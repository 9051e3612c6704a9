"""The predictor recipe, batched training and stateful series prediction.

PredictorSettings, the [predictor] section of an experiment file, is
the one recipe of a link predictor, from architecture to budget.  The
net train_link_predictor fits records its feature layout, which
PredictorSettings.layout builds.

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
class PredictorSettings:
    """Architecture and training knobs for the channel predictor."""

    kind: str = "lstm"
    layers: int = 2
    neurons: int = 25
    tau: int = 4
    features: str = "complex"
    scale: float = 0.4
    train_len: int = 5000
    epochs: int = 10
    batch_size: int = 8
    lr: float = 3e-3

    def __post_init__(self):
        if self.kind not in ("rnn", "lstm", "gru"):
            raise ValueError("predictor kind must be rnn, lstm or gru")
        if self.layers < 1 or self.neurons < 1:
            raise ValueError("need >= 1 layer with >= 1 neuron")
        if self.tau < 0:
            raise ValueError("tapped-delay length must be >= 0")
        if self.features not in ("magnitude", "complex"):
            raise ValueError("features must be magnitude or complex")
        if self.scale <= 0:
            raise ValueError("feature scale must be positive")
        if self.train_len < 16:
            raise ValueError("training length must be >= 16 samples")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def layout(self, horizon, links):
        """The feature layout a net fit by this recipe reads, a dict over
        model_io.LAYOUT_KEYS."""
        return {"tau": self.tau, "horizon": horizon,
                "features": self.features, "scale": self.scale,
                "links": links}


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


def train(net, X, Y, recipe=PredictorSettings(), seed=0, val_fraction=0.0):
    """Fit the network on (X, Y) sample pairs; returns a TrainReport.

    The recipe gives epochs, batch size and learning rate, `seed` the
    batch order, and the last `val_fraction` of the pairs is held out.
    Epoch MSE is the batch-size weighted mean of the per-batch losses,
    i.e. the mean squared error over the whole training span under the
    parameters current when each batch was visited.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must pair up")
    n_val = int(round(val_fraction * X.shape[0]))
    n_tr = X.shape[0] - n_val
    if n_tr < 1:
        raise ValueError("empty training span")
    order_rng = stream(seed, 31)
    opt = AdamState()
    epoch_mse = []
    for _ in range(recipe.epochs):
        sq_sum = 0.0
        for sl in iter_windows(n_tr, recipe.batch_size, order_rng):
            loss, grads, _ = net.loss_window(X[sl], Y[sl])
            adam_step(net, grads, opt, lr=recipe.lr)
            sq_sum += loss * (sl.stop - sl.start)
        epoch_mse.append(sq_sum / n_tr)
    if n_val == 0:
        return TrainReport(tuple(epoch_mse), None)
    err = _stateful_predict(net, X[n_tr:]) - Y[n_tr:]
    return TrainReport(tuple(epoch_mse), float(np.mean(err ** 2)))


# Longer-budget recipe for series of 40k samples and up.  Each batch
# is one span of consecutive samples unrolled from a zero state, so
# batch_size doubles as the truncation length: spans of 64 make the
# fit objective track the long stateful pass that predict_series runs,
# which turns out to be what keeps late epochs from oscillating.  At
# lengths near 5000 the shorter spans of the default recipe win by
# sheer update count.
HIGH_ACCURACY_TRAIN = PredictorSettings(train_len=40_000, epochs=30,
                                        batch_size=64)


def train_link_predictor(series, horizon, recipe=PredictorSettings(), seed=0,
                         val_fraction=0.0):
    """Build the recipe's predictor and fit it on all of a (T, K) series.

    The network regresses tapped-delay features onto the CSI `horizon`
    steps ahead; `seed` draws its initial weights and orders its
    batches.  The default recipe pins the reference operating point:
    two 25-unit LSTM layers fed complex re/im features compressed by
    0.4, fit for 10 epochs in small batches (large batches starve the
    optimizer of updates at series lengths around 5000, and unscaled
    features clip in the saturating output layer).  For longer series
    pass recipe=HIGH_ACCURACY_TRAIN, which trades runtime for
    correlations near 0.99 at a 3-step horizon.  Returns (net, report),
    net.layout filled in; score generalization with predict_series()
    on a series the fit never saw.
    """
    X, Y = build_dataset(series, recipe.tau, horizon, recipe.features,
                         scale=recipe.scale)
    links = np.shape(series)[1] if np.ndim(series) == 2 else 1
    net = RecurrentNet(X.shape[1],
                       (LayerSpec(recipe.kind, recipe.neurons),) * recipe.layers,
                       Y.shape[1], seed=seed,
                       layout=recipe.layout(horizon, links))
    return net, train(net, X, Y, recipe, seed, val_fraction)


def predict_series(net, series):
    """Stateful prediction over a whole series in net.layout.

    Returns (pred, rho) for each window end t in [tau, T - 1 - horizon]
    with targets at t + horizon, so pred covers the last N samples.  In
    magnitude mode pred holds (N, K) predicted magnitudes and rho is
    their Pearson correlation against the realized ones; in complex
    mode the re/im outputs are rebuilt into (N, K) complex coefficients
    and rho is the complex correlation against the realized
    coefficients.  Predictions are mapped back to physical units (rho
    itself is scale invariant).  State carries across the full sweep,
    reset once at the start.
    """
    lay = net.layout
    X, Y = build_dataset(series, lay["tau"], lay["horizon"], lay["features"],
                         scale=lay["scale"])
    raw = _stateful_predict(net, X) / lay["scale"]
    Y = Y / lay["scale"]
    if lay["features"] == "complex":
        pred = complex_from_split(raw)
        return pred, prediction_correlation(pred, complex_from_split(Y))
    return raw, prediction_correlation(raw, Y)
