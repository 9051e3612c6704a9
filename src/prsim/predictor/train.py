"""Batched training loop and stateful series prediction.

Training splits the sample stream into fixed-size batches, resets the
recurrent state at each batch start, and applies one Adam update per
batch from the exact batch gradient (recurrence runs over the batch
sequence dimension).  The tail of the stream can be held out for
validation, time ordered and never shuffled into training.  The report
carries the per-epoch training MSE and, when a span was held out, the
final validation MSE over it.

prediction_correlation() scores predicted against realized CSI: the
Pearson coefficient for real-valued (magnitude) series, and for
complex series rho = |E[(p - E p)(a - E a)*]| / (std(p) std(a)), the
empirical counterpart of the correlation that degrades outdated CSI.
A perfect predictor scores 1; an untrained network sits near 0.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import stream
from .data import build_dataset, complex_from_split, iter_windows
from .layers import LayerSpec
from .network import RecurrentNet
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr: float = 3e-3
    seed: int = 0
    val_fraction: float = 0.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class TrainReport:
    epoch_mse: tuple
    val_mse: float  # None without a held-out span


def prediction_correlation(pred, actual):
    """Pooled correlation over all links and time steps (see module doc)."""
    a = np.asarray(pred).ravel()
    b = np.asarray(actual).ravel()
    if a.size != b.size:
        raise ValueError("prediction/actual size mismatch")
    a = a - a.mean()
    b = b - b.mean()
    sa = np.sqrt(np.mean(np.abs(a) ** 2))
    sb = np.sqrt(np.mean(np.abs(b) ** 2))
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.abs(np.mean(a * np.conj(b))) / (sa * sb))


# A stateful pass over a long record runs in blocks of this many steps,
# carrying the state across, so the hoisted projections and per-step
# buffers of a 10k-sample record are never all held at once.
_PREDICT_BLOCK = 256


def _stateful_predict(net, X):
    ys = np.empty((X.shape[0], net.output_dim))
    state = None
    for start in range(0, X.shape[0], _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        ys[block], state, _ = net.forward_window(X[block], state)
    return ys


def train(net, X, Y, cfg=TrainConfig()):
    """Fit the network on (X, Y) sample pairs; returns a TrainReport.

    Epoch MSE is the batch-size weighted mean of the per-batch losses,
    i.e. the mean squared error over the whole training span under the
    parameters current when each batch was visited.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must pair up")
    n_val = int(round(cfg.val_fraction * X.shape[0]))
    n_tr = X.shape[0] - n_val
    if n_tr < 1:
        raise ValueError("empty training span")
    order_rng = stream(cfg.seed, 31)
    opt = AdamState()
    epoch_mse = []
    for _ in range(cfg.epochs):
        sq_sum = 0.0
        for sl in iter_windows(n_tr, cfg.batch_size, order_rng):
            loss, grads, _ = net.loss_window(X[sl], Y[sl])
            adam_step(net, grads, opt, lr=cfg.lr)
            sq_sum += loss * (sl.stop - sl.start)
        epoch_mse.append(sq_sum / n_tr)
    if n_val == 0:
        return TrainReport(tuple(epoch_mse), None)
    err = _stateful_predict(net, X[n_tr:]) - Y[n_tr:]
    return TrainReport(tuple(epoch_mse), float(np.mean(err ** 2)))


DEFAULT_SPECS = (LayerSpec("lstm", 25), LayerSpec("lstm", 25))

# Longer-budget recipe for series of 40k samples and up.  Each batch
# is one span of consecutive samples unrolled from a zero state, so
# batch_size doubles as the truncation length: spans of 64 make the
# fit objective track the long stateful pass that predict_series runs,
# which turns out to be what keeps late epochs from oscillating.  At
# lengths near 5000 the shorter spans of the default recipe win by
# sheer update count.
HIGH_ACCURACY_TRAIN = TrainConfig(epochs=30, batch_size=64)


def train_link_predictor(series, tau=4, horizon=3, specs=DEFAULT_SPECS,
                         features="complex", scale=0.4, net_seed=0, cfg=None):
    """Build and fit the default dual-layer LSTM link predictor.

    The network regresses tapped-delay features of a (T, K) fading
    series onto the CSI `horizon` steps ahead.  The defaults pin the
    reference operating point: two 25-unit LSTM layers fed complex
    re/im features compressed by 0.4, fit for 10 epochs in small
    batches (large batches starve the optimizer of updates at series
    lengths around 5000, and unscaled features clip in the saturating
    output layer).  For longer series pass cfg=HIGH_ACCURACY_TRAIN,
    which trades runtime for correlations near 0.99 at a 3-step
    horizon.  Returns (net, report); score generalization with
    predict_series() on a series the fit never saw, passing the same
    tau, horizon, features and scale.
    """
    X, Y = build_dataset(series, tau, horizon, features, scale=scale)
    net = RecurrentNet(X.shape[1], specs, Y.shape[1], seed=net_seed)
    if cfg is None:
        cfg = TrainConfig(seed=net_seed)
    report = train(net, X, Y, cfg)
    return net, report


def predict_series(net, series, tau, horizon, features="magnitude", scale=1.0):
    """Stateful prediction over a whole series.

    Returns (pred, rho) for each window end t in [tau, T - 1 - horizon]
    with targets at t + horizon.  In magnitude mode pred holds (N, K)
    predicted magnitudes and rho is their Pearson correlation against
    the realized ones; in complex mode the re/im outputs are rebuilt
    into (N, K) complex coefficients and rho is the complex correlation
    against the realized coefficients.  `scale` must match the factor
    the network was trained with; predictions are mapped back to
    physical units (rho itself is scale invariant).  State carries
    across the full sweep, reset once at the start.
    """
    X, Y = build_dataset(series, tau, horizon, features, scale=scale)
    raw = _stateful_predict(net, X) / scale
    Y = Y / scale
    if features == "complex":
        pred = complex_from_split(raw)
        return pred, prediction_correlation(pred, complex_from_split(Y))
    return raw, prediction_correlation(raw, Y)
