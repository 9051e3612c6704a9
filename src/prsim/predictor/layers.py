"""Recurrent layers run layer by layer over a whole window.

Every layer keeps its weights in a dict of float64 arrays.  Gated layers
stack the gate blocks row-wise in a single input matrix W, a single
recurrent matrix U and a single bias b:

vanilla RNN    h' = tanh(W x + U h + b)

LSTM (rows i, f, g, o in that order)
    [zi zf zg zo] = W x + U h + b
    i = sig(zi)   f = sig(zf)   g = tanh(zg)   o = sig(zo)
    c' = f c + i g
    h' = o tanh(c')

GRU (rows z, r, c in that order; the candidate block sees r * s)
    z = sig(Wz x + Uz s + bz)
    r = sig(Wr x + Ur s + br)
    c = tanh(Wc x + Uc (r s) + bc)
    s' = (1 - z) s + z c

The network's readout is the stateless dense layer y = tanh(W x + b).

A layer sees a (T, in) window at once.  Its input projection X W^T + b
does not depend on the recurrence, so it is one GEMM for the window;
only U h and the gate math run inside the time loop.  The sigmoid is
evaluated as 1/2 + tanh(z/2)/2, which never overflows.  Halving the
sigmoid rows of the LSTM's projection and of its U is exact, so all
four LSTM gates of a step take a single tanh call.

Backward sweeps run in reverse time one layer at a time.  Each step
writes its pre-activation gradient into a (T, rows) block DZ; after the
sweep dW = DZ^T X, dU = DZ^T H_prev, db = DZ.sum(0) and the input
gradient DZ W are one GEMM each.  Parameter gradients are written, not
accumulated, into the views handed in.  With all weights at zero the
LSTM emits zeros (g = 0 pins c at 0) and the GRU halves its state each
step (z = 1/2, c = 0), which the tests use as closed-form probes of the
gate wiring.
"""

from dataclasses import dataclass

import numpy as np

_KINDS = ("rnn", "lstm", "gru")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack: kind and output width."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}, expected one of {_KINDS}")
        if self.size < 1:
            raise ValueError("layer size must be positive")

    @property
    def gate_rows(self):
        """Stacked pre-activation rows per unit (1, 4 or 3)."""
        return {"rnn": 1, "lstm": 4, "gru": 3}[self.kind]


def sigmoid(x):
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def init_layer(spec, in_dim, rng):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rows = spec.gate_rows * spec.size
    bw = 1.0 / np.sqrt(in_dim)
    bu = 1.0 / np.sqrt(spec.size)
    return {"W": rng.uniform(-bw, bw, size=(rows, in_dim)),
            "U": rng.uniform(-bu, bu, size=(rows, spec.size)),
            "b": np.zeros(rows)}


def initial_state(spec):
    n = spec.size
    if spec.kind == "lstm":
        return (np.zeros(n), np.zeros(n))
    return np.zeros(n)


def _states(first, T):
    """(T + 1, n) buffer whose row 0 is the incoming state."""
    out = np.empty((T + 1, first.size))
    out[0] = first
    return out


def _finish(p, g, DZ, X, H_prev):
    """Parameter gradients of a window and the gradient of its input."""
    np.matmul(DZ.T, X, out=g["W"])
    if H_prev is not None:
        np.matmul(DZ.T, H_prev, out=g["U"])
    DZ.sum(axis=0, out=g["b"])
    return DZ @ p["W"]


# --------------------------------------------------------- dense readout

def dense_forward(p, X):
    H = np.tanh(X @ p["W"].T + p["b"])
    return H, (X, H)


def dense_backward(p, g, cache, dH):
    X, H = cache
    return _finish(p, g, dH * (1.0 - H * H), X, None)


# ------------------------------------------------------------------- rnn

def rnn_forward(p, X, h):
    Z = X @ p["W"].T + p["b"]
    Hs = _states(h, len(X))
    UT = p["U"].T
    for t in range(len(X)):
        np.tanh(Z[t] + Hs[t] @ UT, out=Hs[t + 1])
    return Hs[1:], Hs[-1].copy(), (X, Hs)


def rnn_backward(p, g, cache, dH):
    X, Hs = cache
    D = 1.0 - Hs[1:] * Hs[1:]
    DZ = np.empty_like(D)
    U = p["U"]
    dh = np.zeros(U.shape[1])
    for t in range(len(DZ) - 1, -1, -1):
        np.multiply(dH[t] + dh, D[t], out=DZ[t])
        dh = DZ[t] @ U
    return _finish(p, g, DZ, X, Hs[:-1])


# ------------------------------------------------------------------ lstm

def lstm_forward(p, X, state):
    h, c = state
    T, n = len(X), h.size
    s = np.full(4 * n, 0.5)  # 1/2 on sigmoid rows, 1 on the g block
    s[2 * n:3 * n] = 1.0
    off = 1.0 - s
    A = (X @ p["W"].T + p["b"]) * s  # becomes the gate activations
    UT = (p["U"] * s[:, None]).T
    Hs, Cs = _states(h, T), _states(c, T)
    HC = np.empty((T, n))
    I, F, G, O = (A.reshape(T, 4, n)[:, k] for k in range(4))
    for t in range(T):
        a = A[t]
        a += Hs[t] @ UT
        np.tanh(a, out=a)
        a *= s
        a += off
        np.multiply(F[t], Cs[t], out=Cs[t + 1])
        Cs[t + 1] += I[t] * G[t]
        np.tanh(Cs[t + 1], out=HC[t])
        np.multiply(O[t], HC[t], out=Hs[t + 1])
    return Hs[1:], (Hs[-1].copy(), Cs[-1].copy()), (X, Hs, Cs, A, HC)


def lstm_backward(p, g, cache, dH):
    X, Hs, Cs, A, HC = cache
    T, n = HC.shape
    A4 = A.reshape(T, 4, n)
    I, F, G, O = (A4[:, k] for k in range(4))
    # each gate's derivative times its partner in c' = f c + i g or
    # h' = o tanh(c'), so dz is dc P on the i, f, g blocks and dh P on o
    P = A * (1.0 - A)
    P4 = P.reshape(T, 4, n)
    P4[:, 2] = 1.0 - G * G
    P4[:, 0] *= G
    P4[:, 1] *= Cs[:-1]
    P4[:, 2] *= I
    P4[:, 3] *= HC
    Q = O * (1.0 - HC * HC)
    DZ = np.empty_like(A)
    DZ4 = DZ.reshape(T, 4, n)
    U = p["U"]
    dh = np.zeros(n)
    dc = np.zeros(n)
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh
        dc = dc + dh * Q[t]
        np.multiply(P4[t, :3], dc, out=DZ4[t, :3])
        np.multiply(P4[t, 3], dh, out=DZ4[t, 3])
        dc = dc * F[t]
        dh = DZ[t] @ U
    return _finish(p, g, DZ, X, Hs[:-1])


# ------------------------------------------------------------------- gru

def gru_forward(p, X, s0):
    T, n = len(X), s0.size
    A = X @ p["W"].T + p["b"]  # becomes the gate activations
    UzrT, UcT = p["U"][:2 * n].T, p["U"][2 * n:].T
    Ss = _states(s0, T)
    RS = np.empty((T, n))
    for t in range(T):
        zr, c = A[t, :2 * n], A[t, 2 * n:]
        zr[:] = sigmoid(zr + Ss[t] @ UzrT)
        np.multiply(zr[n:], Ss[t], out=RS[t])
        c += RS[t] @ UcT
        np.tanh(c, out=c)
        np.multiply(1.0 - zr[:n], Ss[t], out=Ss[t + 1])
        Ss[t + 1] += zr[:n] * c
    return Ss[1:], Ss[-1].copy(), (X, Ss, A, RS)


def gru_backward(p, g, cache, dH):
    X, Ss, A, RS = cache
    T, n = RS.shape
    S = Ss[:-1]
    Z, R, C = A[:, :n], A[:, n:2 * n], A[:, 2 * n:]
    to_c = Z * (1.0 - C * C)            # ds -> candidate pre-activation
    to_z = (C - S) * Z * (1.0 - Z)      # ds -> update pre-activation
    to_r = S * R * (1.0 - R)            # d(r s) -> reset pre-activation
    keep = 1.0 - Z
    Uzr, Uc = p["U"][:2 * n], p["U"][2 * n:]
    DZ = np.empty_like(A)
    ds = np.zeros(n)
    for t in range(T - 1, -1, -1):
        ds = dH[t] + ds
        da = np.multiply(ds, to_c[t], out=DZ[t, 2 * n:])
        np.multiply(ds, to_z[t], out=DZ[t, :n])
        drs = da @ Uc
        np.multiply(drs, to_r[t], out=DZ[t, n:2 * n])
        ds = ds * keep[t] + drs * R[t] + DZ[t, :2 * n] @ Uzr
    np.matmul(DZ[:, :2 * n].T, S, out=g["U"][:2 * n])
    np.matmul(DZ[:, 2 * n:].T, RS, out=g["U"][2 * n:])
    return _finish(p, g, DZ, X, None)


FORWARD = {"rnn": rnn_forward, "lstm": lstm_forward, "gru": gru_forward}
BACKWARD = {"rnn": rnn_backward, "lstm": lstm_backward, "gru": gru_backward}
