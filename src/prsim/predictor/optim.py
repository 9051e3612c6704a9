"""Adam on the network's flat parameter buffer.

Standard first/second moment estimates with bias correction:

    m <- b1 m + (1 - b1) g        v <- b2 v + (1 - b2) g^2
    step = lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

Parameters, gradients and both moments are flat float64 vectors with
one layout (see ``network``), so a step is a few whole-vector ops; the
update is elementwise, so it equals the per-array textbook form bit for
bit.  Under a constant gradient the corrected ratio m_hat / sqrt(v_hat)
equals sign(g) from the first step, so each update moves every
coordinate by lr; the tests pin that behaviour.  Defaults follow the
usual lr = 1e-3, b1 = 0.9, b2 = 0.999, eps = 1e-8.
"""

import numpy as np


class AdamState:
    """Flat moment buffers, allocated at the first step, and the step counter."""

    def __init__(self):
        self.t = 0
        self.m = None
        self.v = None


def adam_step(net, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Apply one Adam update in place from a flat backward_bptt gradient."""
    if state.m is None:
        state.m = np.zeros_like(net.flat)
        state.v = np.zeros_like(net.flat)
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads * grads
    net.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
