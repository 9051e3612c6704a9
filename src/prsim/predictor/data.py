"""Tapped-delay-line features for multi-link channel prediction.

The regression input at time t collects the last tau + 1 samples of all
K links, earliest instant first and all links per instant contiguous:

    x_t = [ m_1(t-tau) .. m_K(t-tau),  m_1(t-tau+1) .. m_K(t-tau+1),
            ...,  m_1(t) .. m_K(t) ]

In magnitude mode m_k = |h_k| and the input width is K (tau + 1); the
target is the magnitude vector a horizon of D samples ahead.  Complex
mode instead feeds per-instant [Re_1..Re_K, Im_1..Im_K] blocks (width
2K (tau + 1)) and regresses the same re/im split of h(t + D), from
which the predicted coefficient is rebuilt as re + j im.  K = 8 and
tau = 4 give input widths 40 and 80 respectively.  A sample pair
exists for every t in [tau, T - 1 - D].

Features and targets can be shrunk by a common `scale` factor before
windowing.  The output layer saturates at +-1, so unit-power fading
samples (peaks near +-3) would clip; scales around 0.4 keep the
targets well inside the linear region.  Predictions come back in
feature units and must be divided by the same scale to recover
physical coefficients.
"""

import numpy as np


def _feature_rows(series, features):
    series = np.asarray(series)
    if series.ndim == 1:
        series = series[:, None]
    if features == "magnitude":
        return np.abs(series).astype(float)
    if features == "complex":
        return np.concatenate([series.real, series.imag], axis=1).astype(float)
    raise ValueError(f"unknown feature mode {features!r}")


def build_dataset(series, tau, horizon, features="magnitude", scale=1.0):
    """All (input, target) pairs of a (T, K) series.

    Returns (X, Y) with X of shape (N, width) and Y the feature rows of
    the sample `horizon` steps past each window end: (N, K) magnitudes
    in magnitude mode, (N, 2K) re/im splits in complex mode, with
    N = T - tau - horizon.  Both sides carry the common `scale`.
    """
    if tau < 0 or horizon < 1:
        raise ValueError("need tau >= 0 and horizon >= 1")
    rows = _feature_rows(series, features) * scale
    T = rows.shape[0]
    n = T - tau - horizon
    if n < 1:
        raise ValueError("series too short for the requested tau and horizon")
    X = np.empty((n, rows.shape[1] * (tau + 1)))
    for j in range(tau + 1):
        X[:, j * rows.shape[1]:(j + 1) * rows.shape[1]] = rows[j:j + n]
    Y = rows[tau + horizon:tau + horizon + n].copy()
    return X, Y


def complex_from_split(y):
    """Rebuild (N, K) complex coefficients from (N, 2K) re/im rows."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] % 2:
        raise ValueError("expected (N, 2K) re/im rows")
    K = y.shape[1] // 2
    return y[:, :K] + 1j * y[:, K:]


def iter_windows(n, window, rng):
    """Slices covering [0, n) in steps of `window` (short tail kept), in
    the order of rng's shuffle.

    The split points do not move, so state reset boundaries stay
    aligned across epochs.
    """
    if window < 1:
        raise ValueError("window must be positive")
    slices = [slice(s, min(s + window, n)) for s in range(0, n, window)]
    return [slices[i] for i in rng.permutation(len(slices))]
