"""In-memory span tracer and the wrappers that attach it to prsim.

A span is (name, start, end, parent index).  Spans stay in memory
until the traced process ends; `summary()` then folds them into
per-name totals: calls, self time (duration minus the part covered
by direct child spans), work counts and repeat keys.  The benchmark
parent sums these summaries over the steps of one workload run.

`install()` wraps the public functions of each layer at the place its
caller looks the name up, so nothing inside `src/prsim` is edited:

- `prsim.cli` binds most layer functions at import, so they are
  patched in the cli namespace;
- `prsim.simulator` imports `predict_series` lazily from the
  `prsim.predictor` package, so the package attribute is patched too;
- `prsim.predictor.train` is shadowed by the re-exported `train`
  function, so the module is reached through importlib;
- `loss_window` and `SeriesNetwork.__init__` are patched on the class;
- `correlated_pair` and `decoding_subset` are patched as
  `prsim.simulator` sees them, `phi` as `prsim.analytics` sees it.
"""

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.work = defaultdict(float)
        self.keys = defaultdict(list)
        self.values = defaultdict(list)
        self._stack = []

    def wrap(self, name, fn, work=None, key=None, value=None):
        """Wrap fn so each call records a span under `name`.

        work(bound, result) returns the call's work count, key(bound)
        a string identifying its inputs (for repeat ratios) and
        value(bound, result) a number to keep; `bound` is the call's
        inspect.BoundArguments, built only when one of them is given.
        """
        sig = inspect.signature(fn) if (work or key or value) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if work:
                    self.work[name] += work(bound, result)
                if key:
                    self.keys[name].append(key(bound))
                if value:
                    self.values[name].append(value(bound, result))
            return result

        return traced

    def summary(self):
        """Per-name {calls, self_s, work, keys, values} of finished spans."""
        return summarize(self.spans, self.work, self.keys, self.values)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, start, end, parent) in enumerate(spans)]


def new_entry():
    return {"calls": 0, "self_s": 0.0, "work": 0.0, "keys": [], "values": []}


def summarize(spans, work=None, keys=None, values=None):
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, new_entry())
        entry["calls"] += 1
        entry["self_s"] += own
    for name, entry in out.items():
        entry["work"] = float((work or {}).get(name, 0.0))
        entry["keys"] = list((keys or {}).get(name, []))
        entry["values"] = list((values or {}).get(name, []))
    return out


def merge(summaries):
    """Sum the summaries of several traced processes (None is skipped)."""
    out = {}
    for summary in summaries:
        for name, e in (summary or {}).items():
            m = out.setdefault(name, new_entry())
            for field in m:
                m[field] += e[field]
    return out


# ---------------------------------------------------------------- wrappers


def _size(shape):
    return int(np.prod(shape)) if np.ndim(shape) else int(shape)


def _series_key(bound):
    a = bound.arguments
    return "%r|%d|%d" % (a["cfg"], int(a["length"]), int(a["link"]))


def _training_key(bound):
    a = dict(bound.arguments)
    digest = hashlib.sha1(np.ascontiguousarray(a.pop("series")).tobytes())
    return digest.hexdigest() + "|" + repr(sorted(a.items()))


def install(tracer):
    """Patch every traced layer entry point of prsim in place."""
    cli = importlib.import_module("prsim.cli")
    simulator = importlib.import_module("prsim.simulator")
    analytics = importlib.import_module("prsim.analytics")
    predictor = importlib.import_module("prsim.predictor")
    train_mod = importlib.import_module("prsim.predictor.train")
    network = importlib.import_module("prsim.predictor.network")
    w = tracer.wrap

    cli.main = w("cli.main", cli.main)
    cli._write_rows = w("cli.write_rows", cli._write_rows)
    cli.load_config = w("config.load_config", cli.load_config)
    cli.generate_series = w(
        "channel.generate_series", cli.generate_series,
        work=lambda b, r: int(b.arguments["length"]), key=_series_key)
    cli.estimate = w(
        "simulator.estimate", cli.estimate,
        work=lambda b, r: int(b.arguments["trials"])
        * np.atleast_1d(b.arguments["snr_grid_db"]).size)
    cli.simulate_frames = w(
        "simulator.simulate_frames", cli.simulate_frames,
        work=lambda b, r: int(b.arguments["num_frames"]))
    cli.train_link_predictor = w(
        "predictor.train_link_predictor", cli.train_link_predictor,
        key=_training_key)
    for name in ("outage_df", "outage_af"):
        setattr(cli, name, w("analytics.outage", getattr(cli, name)))
    for name in ("capacity_df", "capacity_af", "capacity_exponential_exact"):
        setattr(cli, name, w("analytics.capacity", getattr(cli, name)))

    predict = w("predictor.predict_series", predictor.predict_series,
                work=lambda b, r: len(r[0]), value=lambda b, r: float(r[1]))
    cli.predict_series = predict
    predictor.predict_series = predict

    simulator.correlated_pair = w(
        "channel.correlated_pair", simulator.correlated_pair,
        work=lambda b, r: _size(b.arguments["size"]))
    simulator.decoding_subset = w("selection.decoding_subset",
                                  simulator.decoding_subset)
    series_net = simulator.SeriesNetwork
    series_net.__init__ = w("simulator.SeriesNetwork", series_net.__init__)
    analytics.phi = w("numerics.phi", analytics.phi)

    net_cls = network.RecurrentNet
    net_cls.loss_window = w("predictor.loss_window", net_cls.loss_window,
                            work=lambda b, r: len(b.arguments["xs"]))
    train_mod.adam_step = w("predictor.adam_step", train_mod.adam_step)
    return cli.main
