"""Link-level simulation and analysis of predictive relay selection.

Subpackages and modules:

* ``numerics``     special functions (J0, E1), the Gauss-Chebyshev rule
* ``rng``          seeded splittable random streams
* ``channel``      Jakes fading series, correlated gain pairs, SNR bookkeeping
* ``selection``    rate thresholds and the block relay-selection kernel
* ``analytics``    closed-form outage and ergodic capacity for DF/AF selection
* ``predictor``    from-scratch recurrent networks (RNN/LSTM/GRU) and training
* ``simulator``    CSI sources, Monte-Carlo estimators, timers, frame protocol
* ``config``       experiment configuration files
* ``cli``          experiment runner (gen-data / train / outage / capacity / ...)
"""

__version__ = "0.1.0"
