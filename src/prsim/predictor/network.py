"""Layer stack with layer-major windowed forward and truncated BPTT.

The predictor the CLI builds is L recurrent layers fed the raw input
and a dense tanh readout:

    dl = cell_l(d(l-1))            l = 1 .. L
    y  = tanh(Wo dL + bo)

A window runs one layer at a time: each layer maps the whole (T, in)
output of the layer below to its own (T, out) output (see ``layers``),
and the readout is one GEMM plus tanh.  Training processes the sample
stream in fixed-length batches: state is zeroed at the start of each
batch, the batch is run forward with every layer's window cache kept,
and the backward sweep, top layer first, gives exact gradients of the
batch-mean square error.  Truncation therefore coincides with the batch
boundary.

All parameters live in one flat float64 buffer, ``flat``.  The
``params`` dicts (one per layer) and ``out`` hold named views into it,
laid out in ``parameter_items`` order: per layer its sorted keys, then
the readout.  A gradient is a second flat buffer with the same layout,
so an optimizer updates the whole network with a few vector ops, and
writing into a named view (as ``model_io`` does) writes the buffer.

Per-step complexity follows the paper's complexity model, not the
built network: each weight-matrix product of an m x k matrix costs
2 m k (multiplies plus accumulates, bias fold-in included), activations
are neglected, and a dense input layer N_i -> n1 is charged on top of
the recurrent layers, the first of which is still charged at the raw
input width N_i.  With hidden widths n1..nL, input N_i and output N_o
that is

    flops = 2 [ N_i n1 + nL N_o + c * sum_l (n_{l-1} n_l + n_l^2) ]

with n_0 = N_i and c = 1 (vanilla RNN), 3 (GRU) or 4 (LSTM).  The
census thus exceeds the 2 x (weight entries) a step of the built
network performs by exactly the input layer's 2 N_i n1: 35800 against
31800 for the CLI default (N_i = 80, LSTM 25 x 2, N_o = 16).  The
worked default of the model, LSTM with N_i = 40, hidden (25, 25),
N_o = 8, gives 25400 flops per prediction, i.e. 25.4 Mflop/s at 1 kHz.
Setting all dims to a common width n and dropping nothing else
recovers the simplified per-step estimates 4(1+L)n^2, 4(1+3L)n^2 and
4(1+4L)n^2.  ``flops_per_step`` counts from the widths and cell kind
alone, so it needs no built model; the ``flops`` subcommand feeds it
the configured architecture.
"""

import numpy as np

from ..rng import stream
from . import layers as L

_CELL_COST = {"rnn": 1, "gru": 3, "lstm": 4}


class RecurrentNet:
    """Stack of recurrent layers with a tanh readout; `layout` is the
    feature layout it reads, a dict over model_io.LAYOUT_KEYS."""

    def __init__(self, input_dim, specs, output_dim, seed=0, layout=None):
        if input_dim < 1 or output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one layer")
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.specs = specs
        self.seed = int(seed)
        self.layout = layout
        init = []
        in_dim = self.input_dim
        for idx, spec in enumerate(specs):
            init.append(L.init_layer(spec, in_dim, stream(self.seed, 29, idx)))
            in_dim = spec.size
        rng = stream(self.seed, 29, len(specs))
        bw = 1.0 / np.sqrt(in_dim)
        init.append({"W": rng.uniform(-bw, bw, size=(self.output_dim, in_dim)),
                     "b": np.zeros(self.output_dim)})
        # (group, key, name, span, shape); group len(specs) is the readout
        self._slots = []
        start = 0
        for gi, group in enumerate(init):
            prefix = "out" if gi == len(specs) else f"layer{gi}"
            for key in sorted(group):
                span = slice(start, start + group[key].size)
                self._slots.append((gi, key, f"{prefix}/{key}", span,
                                     group[key].shape))
                start = span.stop
        self.flat = np.empty(start)
        groups = self._groups(self.flat)
        for views, values in zip(groups, init):
            for key, arr in values.items():
                views[key][...] = arr
        *self.params, self.out = groups

    def _groups(self, flat):
        """Per-layer dicts of named views into a flat buffer, readout last."""
        groups = [{} for _ in range(len(self.specs) + 1)]
        for gi, key, _, span, shape in self._slots:
            groups[gi][key] = flat[span].reshape(shape)
        return groups

    # ------------------------------------------------------------ state

    def initial_state(self):
        return [L.initial_state(s) for s in self.specs]

    # ---------------------------------------------------------- forward

    def forward_window(self, xs, state=None, keep_cache=False):
        """Run a (T, input_dim) window; returns (ys, state, cache list).

        The cache list holds one window cache per layer, then the
        readout's (top, ys).
        """
        h = np.asarray(xs, dtype=float)
        if state is None:
            state = self.initial_state()
        new_state, caches = [], []
        for spec, p, st in zip(self.specs, self.params, state):
            h, st, cache = L.FORWARD[spec.kind](p, h, st)
            new_state.append(st)
            caches.append(cache)
        ys, cache = L.dense_forward(self.out, h)
        caches.append(cache)
        return ys, new_state, caches if keep_cache else None

    # --------------------------------------------------------- backward

    def backward_bptt(self, caches, dys):
        """Reverse sweep over a window given d(loss)/d(y_t) rows.

        Returns the flat gradient buffer; every entry is written.
        """
        grads = np.empty(self.flat.size)
        *gl, gout = self._groups(grads)
        d = L.dense_backward(self.out, gout, caches[-1], dys)
        for li in range(len(self.specs) - 1, -1, -1):
            d = L.BACKWARD[self.specs[li].kind](self.params[li], gl[li],
                                                caches[li], d)
        return grads

    def loss_window(self, xs, targets, state=None):
        """Window-mean square error and its exact gradients.

        Returns (loss, flat grads, end state).  The loss averages over
        both time steps and output components.
        """
        targets = np.asarray(targets, dtype=float)
        ys, state, caches = self.forward_window(xs, state, keep_cache=True)
        err = ys - targets
        loss = float(np.mean(err * err))
        dys = (2.0 / err.size) * err
        return loss, self.backward_bptt(caches, dys), state

    # ------------------------------------------------------- parameters

    def parameter_items(self):
        """Stable (name, view) iteration over ``flat``, used by model I/O."""
        return self.grad_items(self.flat)

    def grad_items(self, grads):
        """(name, view) pairs of a flat buffer, in parameter_items order."""
        for _, _, name, span, shape in self._slots:
            yield name, grads[span].reshape(shape)


def flops_per_step(input_dim, hidden_widths, output_dim, kind="lstm"):
    """Per-step flop count of the standard complexity model.

    Every hidden layer is a `kind` cell.  The first recurrent layer is
    charged at the raw input width, per the model's n_0 = N_i
    convention.
    """
    widths = [int(input_dim)] + [int(w) for w in hidden_widths]
    if len(widths) < 2:
        raise ValueError("need at least one hidden layer")
    cost = _CELL_COST.get(kind)
    if cost is None:
        raise ValueError(f"no per-step count for kind {kind!r}")
    total = widths[0] * widths[1] + widths[-1] * int(output_dim)
    for prev, cur in zip(widths[:-1], widths[1:]):
        total += cost * (prev * cur + cur * cur)
    return 2 * total
