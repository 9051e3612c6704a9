"""Command-line experiment runner.

Subcommands:

  gen-data      write the channel dataset (CSV, one complex link per
                column pair)
  train         fit the predictor on a stored dataset, save the model
  predict-eval  prediction quality (correlation, error power) against
                the stale-CSI baseline
  outage        Monte-Carlo plus closed-form outage curves on the grid
  capacity      Monte-Carlo plus closed-form ergodic rate curves
  flops         per-prediction cost of the configured architecture
  protocol-sim  frame-accurate timer-based selection runs

Named presets bundle the curve families of the standard result
figures: fig3b (prediction quality against horizon, two Doppler
spreads), fig4a (DF outage for selection on stale, pair and predicted
CSI), fig4b (the AF counterpart), fig6a (ergodic capacity), fig6b
(pilot-noise and phase-error robustness), fig7a (Doppler sweep on
Rician links, record-driven), fig7b (network scaling against direct
transmission).  A preset is a complete experiment bound to one
subcommand; --seed and --out still override its settings, and so does
--trials on outage and capacity, the only subcommands that read it.
A curve preset is a list of config variants (schemes, csi mode and
delay, relays, [protocol] impairments), each planned as a config file.

Curves are labelled by the (scheme, rho_mode) pair: classic selection
on stale estimates is the df scheme with rho_mode outdated(d), and
predictive selection is df with rho_mode predicted(d), so the usual
scheme names map onto metric sources rather than separate estimators.
Every CSV row carries the config hash and the seed; rerunning with an
equal hash and seed reproduces the file byte for byte.  Closed-form
values are filled for df/af rows whose metric the analysis models
(perfect, synthetic, outdated and predicted correlation) and for
direct transmission, which has no metric to impair; they are left
blank for pair selection, for impaired df/af rows, for record-driven
rows and for protocol-sim rows.  Synthetic-pair rows run estimate's
schemes (df, af, ostc, dt) under [protocol]'s impairments;
protocol-sim and record-driven rows run the frame protocol's (df, af,
df-central), unimpaired, under [protocol]'s timer race and policy.  A
plan its engine cannot run fails up front.

Predictors trained on the fly are kept in a content-addressed model
cache, .prsim-models/ beside the output CSV, so runs that write into
one directory train each model once (see PredictorPool).
"""

import argparse
import csv
import functools
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytics import (SelectionParams, capacity_af, capacity_df,
                        capacity_exponential_exact, outage_af, outage_df)
from .channel import (FadingProcessConfig, FadingSettings, generate_series,
                      jakes_correlation)
from .config import (ConfigError, ExperimentConfig, load_config, parse_config,
                     settings_lines)
from .predictor import (HIGH_ACCURACY_TRAIN, flops_per_step, load_model,
                        predict_series, save_model, train_link_predictor)
from .selection import RateConfig
from .simulator import (ESTIMATE_SCHEMES, FRAME_SCHEMES, MIN_TRIALS,
                        ProtocolSettings, SeriesNetwork, SyntheticRhoNetwork,
                        _hop_snr, estimate, simulate_frames)

# Derived stream seeds: training, evaluation and the two frame-level
# records draw from fixed offsets of the experiment seed so that every
# subcommand sees the same processes for the same configured seed.
_TRAIN_TAG = 101
_EVAL_TAG = 202
_SR_TAG = 303
_RD_TAG = 404

_EVAL_LEN = 10_000

RESULT_FIELDS = ("scheme", "K", "rho_mode", "snr_db", "outage", "std_err",
                 "rate", "collision_rate", "trials", "seed", "analytic",
                 "config_hash")
PREDICT_FIELDS = ("doppler_hz", "horizon", "rho_outdated", "rho_predicted",
                  "error_power", "trials", "config_hash", "seed")
FLOPS_FIELDS = ("kind", "layers", "neurons", "n_input", "n_output", "exact",
                "simplified", "flops", "config_hash", "seed")


def _sub_seed(seed, tag):
    # injective across tags for any experiment seed
    return 7 * seed + tag


def _series(fading, seed, length, links):
    cfg = FadingProcessConfig(seed=seed, **vars(fading))
    return np.column_stack(
        [generate_series(cfg, length, link=i) for i in range(links)])


def _evaluate(cfg, net, fading):
    """(prediction, actual, rho) of net on the fresh evaluation record."""
    record = _series(fading, _sub_seed(cfg.seed, _EVAL_TAG), _EVAL_LEN,
                     net.layout["links"])
    out, rho = predict_series(net, record)
    actual = record[len(record) - len(out):]
    if net.layout["features"] == "magnitude":
        actual = np.abs(actual)
    return out, actual, rho


def _load_fitting(path, layout):
    """The model saved at path; ConfigError naming each layout setting
    that differs from the config's."""
    net = load_model(path)
    differ = ["%s %r in the model, %r in the config" % (k, net.layout[k], v)
              for k, v in layout.items() if net.layout[k] != v]
    if differ:
        raise ConfigError(
            "model file %r does not fit the config: %s (rerun the "
            "train subcommand)" % (path, "; ".join(differ)))
    return net


# ---------------------------------------------------------------------------
# model cache

_MODEL_CACHE = ".prsim-models"


def _model_cache(cfg, out):
    """The model cache directory beside the run's output CSV."""
    return os.path.join(os.path.dirname(os.path.abspath(out or cfg.output)),
                        _MODEL_CACHE)


@functools.lru_cache(maxsize=None)
def _code_digest():
    """sha256 over the package's source files, read on first use."""
    root = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _model_key(cfg, fading, horizon, links):
    """Cache key of the model trained for these inputs: the fading
    it trains on, every predictor setting, horizon, links, the seed,
    the numpy version and the package source."""
    lines = (["[fading]"] + settings_lines(fading)
             + ["[predictor]"] + settings_lines(cfg.predictor)
             + ["horizon = %d" % horizon, "links = %d" % links,
                "seed = %d" % cfg.seed, "numpy = %s" % np.__version__,
                "code = %s" % _code_digest()])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _store(net, path):
    """save_model through a temp file renamed into place, so a reader
    never sees a partial archive.  Entries are named
    <code digest>-<key>.npz; the entries another package source left in
    the directory can never hit again, so they are deleted."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        save_model(net, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    current = _code_digest() + "-"
    for name in os.listdir(directory):
        if (name.endswith(".npz") and not name.startswith(current)
                and name != os.path.basename(path)):
            try:
                os.unlink(os.path.join(directory, name))
            except FileNotFoundError:  # another writer got there first
                pass


# ---------------------------------------------------------------------------
# run plans


@dataclass(frozen=True)
class RunSpec:
    """One curve: an estimator plus the source of its selection metric."""

    scheme: str                    # df | af | ostc | dt | df-central
    relays: int
    rho_mode: str                  # CSV label
    rho: float = None              # None -> metric from the predictor
    horizon: int = 0               # prediction horizon or record delay
    impairments: ProtocolSettings = None  # None or impaired
    fading: FadingSettings = None  # set -> frames ride its records

    def __post_init__(self):
        if self.fading is not None:
            _refuse("the frame protocol", FRAME_SCHEMES, [self.scheme],
                    self.impairments)


class PredictorPool:
    """Trains (or loads) and evaluates each predictor once.

    Training data and the fresh evaluation record derive from the
    experiment seed, so resolved correlations are reproducible.  When
    the csi section names an existing model file it is loaded instead,
    provided its recorded feature layout matches the config, and only
    evaluated.

    Otherwise the model comes from the on-disk cache in `cache_dir`,
    under the package's code digest and the sha256 of _model_key's
    inputs.  A miss trains and stores the model; a hit loads it, which
    is bit exact, so the rows are the same bytes either way.  An entry
    that does not load, or whose layout differs, is a miss and is
    overwritten.
    """

    def __init__(self, cfg, cache_dir):
        self.cfg = cfg
        self.cache_dir = cache_dir
        self._nets = {}
        self._evals = {}

    def net(self, fading, horizon, links):
        key = (fading, horizon, links)
        if key not in self._nets:
            path = self.cfg.csi.model
            layout = self.cfg.predictor.layout(horizon, links)
            if path and os.path.exists(path):
                net = _load_fitting(path, layout)
            elif path:
                raise ConfigError(
                    "model file %r not found (run the train subcommand "
                    "first, or clear csi.model to train on the fly)" % path)
            else:
                net = self._cached_fit(fading, horizon, links, layout)
            self._nets[key] = net
        return self._nets[key]

    def _cached_fit(self, fading, horizon, links, layout):
        path = os.path.join(self.cache_dir, "%s-%s.npz" % (
            _code_digest(), _model_key(self.cfg, fading, horizon, links)))
        try:
            return _load_fitting(path, layout)
        except (ValueError, OSError):  # absent or damaged: train afresh
            pass
        series = _series(fading, _sub_seed(self.cfg.seed, _TRAIN_TAG),
                         self.cfg.predictor.train_len, links)
        net, _ = train_link_predictor(series, horizon=horizon,
                                      recipe=self.cfg.predictor,
                                      seed=self.cfg.seed)
        _store(net, path)
        return net

    def evaluate(self, fading, horizon, links):
        """(prediction, actual, rho) on the evaluation record."""
        key = (fading, horizon, links)
        if key not in self._evals:
            self._evals[key] = _evaluate(self.cfg, self.net(*key), fading)
        return self._evals[key]


def _rho_outdated(fading, delay):
    # J0 turns negative past f_d tau = 0.383; the pair law and the
    # ranking depend on rho^2 only, so selection sees |J0|
    return abs(jakes_correlation(fading.doppler_hz,
                                 delay / fading.sample_rate_hz))


def _csi_rho(cfg):
    """Metric correlation of the configured csi mode; None for predicted,
    whose metric comes from the predictor."""
    if cfg.csi.mode == "outdated":
        return _rho_outdated(cfg.fading, cfg.csi.delay)
    return {"perfect": 1.0, "synthetic": cfg.csi.rho}.get(cfg.csi.mode)


def _refuse(what, engine, schemes, impairments=None):
    """ConfigError naming the impairments or the schemes engine lacks."""
    if impairments is not None:
        raise ConfigError(what + " models no acquisition impairments; clear "
                          "[protocol] pilot_snr_db and max_phase_error_deg")
    dropped = ", ".join(s for s in schemes if s not in engine)
    if dropped:
        raise ConfigError("%s runs %s only; remove %s"
                          % (what, ", ".join(engine), dropped))


def _config_runs(cfg, command):
    """One RunSpec per configured scheme under the single csi mode;
    protocol-sim rides the records of cfg.fading on outdated and
    predicted csi.  dt runs unimpaired: it has no selection metric, and
    its draw models no phase error."""
    csi, relays = cfg.csi, cfg.network.relays
    imp = cfg.protocol if cfg.protocol.impaired else None
    frames = command == "protocol-sim"
    _refuse(command, FRAME_SCHEMES if frames else ESTIMATE_SCHEMES,
            cfg.schemes, imp if frames else None)
    recorded = csi.mode in ("outdated", "predicted")
    fading = cfg.fading if frames and recorded else None
    label = ("%s(%d)" % (csi.mode, csi.delay) if recorded
             else "synthetic(%r)" % csi.rho if csi.mode == "synthetic"
             else "perfect")
    return [RunSpec("dt", relays, "direct", rho=1.0)
            if scheme == "dt" else
            RunSpec(scheme, relays, label, rho=_csi_rho(cfg),
                    horizon=csi.delay if recorded else 0, impairments=imp,
                    fading=fading)
            for scheme in cfg.schemes]


# ---------------------------------------------------------------------------
# analytic columns


def _analytic(command, spec, cfg, snr_db, rho):
    """Closed-form outage or capacity of one row; None where none applies.

    df and af rows at any resolved correlation and direct transmission
    have one; pair selection, impaired, record-driven and protocol-sim
    rows do not.
    """
    if (command == "protocol-sim" or spec.fading is not None
            or spec.impairments is not None):
        return None
    rate = RateConfig(cfg.network.rate)
    if spec.scheme == "dt":
        total = 2 * _hop_snr(snr_db)
        if command == "outage":
            return -math.expm1(-rate.direct_threshold / total)
        return capacity_exponential_exact(total)
    if spec.scheme not in ("df", "af"):
        return None
    # looked up per call, so a wrapper set on this module sees each one
    law = {("outage", "df"): outage_df, ("outage", "af"): outage_af,
           ("capacity", "df"): capacity_df,
           ("capacity", "af"): capacity_af}[command, spec.scheme]
    hop = _hop_snr(snr_db)
    return law(SelectionParams(K=spec.relays, gamma_sr=hop, gamma_rd=hop,
                               rho=rho, gamma_o=rate.gamma_o))


# ---------------------------------------------------------------------------
# csv plumbing


def _write_rows(path, rows, fields, cfg):
    """Write rows as CSV stamped with the config hash and seed; None
    values and keys a row lacks become blank cells."""
    stamp = {"config_hash": cfg.config_hash(), "seed": cfg.seed}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({**row, **stamp} for row in rows)


def _write_results(cfg, out, rows, fields=RESULT_FIELDS):
    path = out or cfg.output
    _write_rows(path, rows, fields, cfg)
    print("wrote %d rows to %s" % (len(rows), path))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg, out=None):
    """Write the channel dataset: one row per sample, re/im per link."""
    path = out or cfg.dataset.path
    links = cfg.network.relays
    series = _series(cfg.fading, _sub_seed(cfg.seed, _TRAIN_TAG),
                     cfg.dataset.length, links)
    flat = np.empty((series.shape[0], 2 * links))
    flat[:, 0::2] = series.real
    flat[:, 1::2] = series.imag
    header = ("channel dataset hash=%s seed=%d links=%d fs=%s fd=%s k=%s\n"
              % (cfg.config_hash(), cfg.seed, links,
                 repr(cfg.fading.sample_rate_hz), repr(cfg.fading.doppler_hz),
                 repr(cfg.fading.k_factor)))
    header += ",".join("re_%d,im_%d" % (i, i) for i in range(links))
    np.savetxt(path, flat, fmt="%.12e", delimiter=",", header=header)
    print("wrote %d samples x %d links to %s" % (series.shape[0], links, path))
    return path


def _load_dataset(path, links):
    if not os.path.exists(path):
        raise ConfigError(
            "dataset %r not found (run the gen-data subcommand first)" % path)
    flat = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if flat.shape[1] != 2 * links:
        raise ConfigError(
            "dataset %r has %d columns, expected %d for %d links"
            % (path, flat.shape[1], 2 * links, links))
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def cmd_train(cfg, out=None):
    """Fit the predictor on the stored dataset and save the model."""
    pred = cfg.predictor
    horizon = cfg.csi.delay
    series = _load_dataset(cfg.dataset.path, cfg.network.relays)
    if pred.train_len > series.shape[0]:
        raise ConfigError("training length %d exceeds dataset length %d"
                          % (pred.train_len, series.shape[0]))
    # a tenth is held out to report a validation error
    net, report = train_link_predictor(series[:pred.train_len],
                                       horizon=horizon, recipe=pred,
                                       seed=cfg.seed, val_fraction=0.1)
    _, _, rho = _evaluate(cfg, net, cfg.fading)
    rho_out = _rho_outdated(cfg.fading, horizon)
    path = out or cfg.csi.model or "model.npz"
    save_model(net, path)
    for i, mse in enumerate(report.epoch_mse, start=1):
        print("epoch %2d:  train mse %.6f" % (i, mse))
    if report.val_mse is not None:
        print("final val mse: %.6f" % report.val_mse)
    print("achieved rho at horizon %d: %.4f (outdated baseline %.4f)"
          % (horizon, rho, rho_out))
    print("model saved to %s" % path)
    return {"model": path, "report": report, "rho": rho,
            "val_mse": report.val_mse}


def cmd_predict_eval(cfg, out=None, plan=None):
    """Prediction quality rows over (fading, horizon) pairs."""
    pool = PredictorPool(cfg, _model_cache(cfg, out))
    pairs = plan or [(cfg.fading, cfg.csi.delay)]
    rows = []
    for fading, horizon in pairs:
        pred, actual, rho = pool.evaluate(fading, horizon, cfg.network.relays)
        rho_out = _rho_outdated(fading, horizon)
        rows.append({
            "doppler_hz": fading.doppler_hz, "horizon": horizon,
            "rho_outdated": rho_out, "rho_predicted": rho,
            "error_power": float(np.mean(np.abs(pred - actual) ** 2)),
            "trials": _EVAL_LEN,
        })
        print("fd=%6.1f Hz  D=%d  rho_outdated=%.4f  rho_predicted=%.4f"
              % (fading.doppler_hz, horizon, rho_out, rho))
    return _write_results(cfg, out, rows, PREDICT_FIELDS)


def _clamped_trials(cfg):
    if cfg.trials < MIN_TRIALS:
        print("note: trials raised to %d (estimator floor)" % MIN_TRIALS)
        return MIN_TRIALS
    return cfg.trials


def _curves(cfg, out, runs, command):
    """Monte-Carlo every run, attach analytic columns, write the CSV.

    runs None is the config's plan, _config_runs.  Runs that share
    (relays, rho, impairments, fading, delay) form one group.  A
    synthetic group of outage or capacity is one estimate call
    (ESTIMATE_SCHEMES), so schemes of one draw family share their
    draws.  Every other group is one network that simulate_frames
    (FRAME_SCHEMES) scores for each member scheme and grid point: a
    SyntheticRhoNetwork for protocol-sim's perfect or synthetic csi,
    otherwise a SeriesNetwork over the hop records of the group's
    fading.  Records are held by (fading, length, links), one fading at
    a time, so outdated and predicted groups of one fading share them.
    Every simulate_frames call reads [protocol]'s timer race and
    policy.  protocol-sim scores [protocol] frames; record rows of
    outage and capacity score `trials` frames past the bootstrap frame.
    A predicted synthetic-pair run refuses a magnitude-feature
    predictor before any training: its rho is the envelope correlation,
    not the complex one of the pair law.  Every analytic cell is
    computed before the first draw, so a run the closed forms refuse
    fails before any Monte-Carlo.  Rows keep run order.
    """
    runs = runs or _config_runs(cfg, command)
    pool = PredictorPool(cfg, _model_cache(cfg, out))
    rate = RateConfig(cfg.network.rate)
    if command == "protocol-sim":
        budget = frames = cfg.protocol.frames
    else:
        budget = _clamped_trials(cfg)
        frames = budget + 1
    cells, groups, resolved = [], {}, {}
    for i, spec in enumerate(runs):
        rho = spec.rho
        if rho is None and spec.fading is None:
            if cfg.predictor.features == "magnitude":
                raise ConfigError(
                    "a magnitude predictor resolves an envelope correlation, "
                    "not the complex one the pair law takes; set [predictor] "
                    "features = complex")
            key = (cfg.fading, spec.horizon, spec.relays)
            if key not in resolved:  # report each predictor once
                resolved[key] = pool.evaluate(*key)[2]
                print("resolved %s: rho=%.4f" % (spec.rho_mode, resolved[key]))
            rho = resolved[key]
        groups.setdefault((spec.relays, rho, spec.impairments, spec.fading,
                           spec.horizon), []).append(i)
        cells.append([_analytic(command, spec, cfg, snr_db, rho)
                      for snr_db in cfg.snr_grid_db])
    ests, held = {}, {}
    for (relays, rho, imp, fading, delay), members in groups.items():
        if fading is None and command != "protocol-sim":
            ests.update(zip(members, estimate(
                [runs[i].scheme for i in members], cfg.snr_grid_db, budget,
                num_relays=relays, rho=rho, rate=rate, seed=cfg.seed,
                impairments=imp)))
            continue
        if fading is None:
            net = SyntheticRhoNetwork(relays, rho, seed=cfg.seed)
        else:
            predictor = pool.net(fading, delay, relays) if rho is None else None
            # one fading's records at a time, with room for the frames
            # behind the metric's delay and taps
            held = {k: v for k, v in held.items() if k[0] == fading}
            key = (fading, budget + cfg.predictor.tau + delay + 2, relays)
            if key not in held:
                held[key] = [_series(fading, _sub_seed(cfg.seed, tag), key[1],
                                     relays) for tag in (_SR_TAG, _RD_TAG)]
            net = SeriesNetwork(*held[key], delay, predictor=predictor)
        for i in members:
            ests[i] = [simulate_frames(runs[i].scheme, net, snr_db, frames,
                                       rate=rate, protocol=cfg.protocol)
                       for snr_db in cfg.snr_grid_db]
        del net  # freed before the next group builds its metric records
    rows = []
    for i, spec in enumerate(runs):
        for snr_db, est, cell in zip(cfg.snr_grid_db, ests[i], cells[i]):
            rows.append({
                "scheme": spec.scheme, "K": spec.relays,
                "rho_mode": spec.rho_mode, "snr_db": float(snr_db),
                "outage": est.outage_prob, "std_err": est.std_error,
                "rate": est.mean_rate, "collision_rate": est.collision_rate,
                "trials": est.trials,
                "analytic": cell,
            })
    return _write_results(cfg, out, rows)


def cmd_outage(cfg, out=None, plan=None):
    return _curves(cfg, out, plan, "outage")


def cmd_capacity(cfg, out=None, plan=None):
    return _curves(cfg, out, plan, "capacity")


def cmd_flops(cfg, out=None):
    """Complexity table of the configured architecture: one feature row
    of K magnitudes or 2K re/im parts per instant, tau+1 instants in,
    one row out, one prediction per sample (f_p = f_s)."""
    pred = cfg.predictor
    n_output = cfg.network.relays * (2 if pred.features == "complex" else 1)
    n_input = n_output * (pred.tau + 1)
    f_p = cfg.fading.sample_rate_hz
    widths = (pred.neurons,) * pred.layers
    exact = flops_per_step(n_input, widths, n_output, kind=pred.kind)
    # every width equal: the square law 4(1 + cL)n^2
    simplified = flops_per_step(pred.neurons, widths, pred.neurons, pred.kind)
    rate = exact * f_p
    print("kind=%s layers=%d neurons=%d n_in=%d n_out=%d"
          % (pred.kind, pred.layers, pred.neurons, n_input, n_output))
    print("exact ops per prediction : %d" % exact)
    print("simplified 4(1+cL)n^2    : %d" % simplified)
    print("rate at f_p=%s Hz        : %s MFLOPS" % (repr(f_p), rate / 1e6))
    if out:
        rows = [{
            "kind": pred.kind, "layers": pred.layers, "neurons": pred.neurons,
            "n_input": n_input, "n_output": n_output, "exact": exact,
            "simplified": simplified, "flops": rate,
        }]
        _write_rows(out, rows, FLOPS_FIELDS, cfg)
        print("wrote 1 row to %s" % out)
    return {"exact": exact, "simplified": simplified, "flops": rate}


def cmd_protocol_sim(cfg, out=None):
    """Frame-accurate timer runs; all schemes ride one network's frames."""
    return _curves(cfg, out, None, "protocol-sim")


# ---------------------------------------------------------------------------
# presets


# presets fit the predictor with the long-budget recipe (about a minute
# per horizon) so the predicted curves sit where the analysis puts
# nearly-optimal selection
_PRESET_PREDICTOR = "\n".join(["[predictor]"]
                               + settings_lines(HIGH_ACCURACY_TRAIN))


def _preset_config(name, trials=None, extra=""):
    """The long-budget predictor plus the preset's [experiment] section
    (its name, output file and trial count) and any extra sections."""
    text = "%s\n[experiment]\nname = %s\noutput = %s.csv\n" % (
        _PRESET_PREDICTOR, name, name)
    if trials is not None:
        text += "trials = %d\n" % trials
    return parse_config(text + extra)


def _preset_fig3b():
    cfg = _preset_config("fig3b")
    plan = [(replace(cfg.fading, doppler_hz=doppler), horizon)
            for doppler in (100.0, 50.0) for horizon in (1, 2, 3, 4)]
    return cfg, "predict-eval", plan


def _variant(cfg, mode, *schemes, delay=3, relays=None, **impairments):
    """cfg running `schemes` on one csi mode, delay, relays and [protocol]."""
    return replace(
        cfg, schemes=schemes, csi=replace(cfg.csi, mode=mode, delay=delay),
        network=replace(cfg.network, relays=relays or cfg.network.relays),
        protocol=replace(cfg.protocol, **impairments))


def _planned(command, variants):
    """The runs _config_runs plans for each variant, in order."""
    return [run for cfg in variants for run in _config_runs(cfg, command)]


def _preset_fig4a():
    cfg = _preset_config("fig4a", trials=200000)
    variants = [_variant(cfg, "perfect", "df")]
    for delay in (2, 3):
        variants += [_variant(cfg, "outdated", "df", "ostc", delay=delay),
                     _variant(cfg, "predicted", "df", delay=delay)]
    return cfg, "outage", _planned("outage", variants)


def _preset_fig4b():
    cfg = _preset_config("fig4b", trials=200000)
    variants = [_variant(cfg, "perfect", "af")] + [
        _variant(cfg, mode, "af", delay=delay)
        for delay in (1, 2, 3) for mode in ("outdated", "predicted")]
    return cfg, "outage", _planned("outage", variants)


def _preset_fig6a():
    cfg = _preset_config("fig6a", trials=200000)
    variants = []
    for scheme, stale in (("df", ("df", "ostc")), ("af", ("af",))):
        variants += [_variant(cfg, "perfect", scheme),
                     _variant(cfg, "outdated", *stale),
                     _variant(cfg, "predicted", scheme)]
    return cfg, "capacity", _planned("capacity", variants)


def _preset_fig6b():
    cfg = _preset_config("fig6b", trials=200000)
    runs = _planned("outage", [_variant(cfg, mode, "df")
                               for mode in ("predicted", "outdated")])
    for key, tag, values in (
            ("pilot_snr_db", "+pilot%gdB", (30.0, 25.0, 20.0)),
            ("max_phase_error_deg", "+phase%gdeg", (5.0, 20.0))):
        for value in values:
            run, = _config_runs(
                _variant(cfg, "predicted", "df", **{key: value}), "outage")
            runs.append(replace(run, rho_mode=run.rho_mode + tag % value))
    return cfg, "outage", runs


def _preset_fig7a():
    cfg = _preset_config("fig7a", trials=100000,
                         extra="[fading]\nk_factor = 3.0\n")
    runs = []
    for doppler in (25.0, 50.0, 100.0):
        fading = replace(cfg.fading, doppler_hz=doppler)
        variants = [_variant(replace(cfg, fading=fading), mode, "df")
                    for mode in ("outdated", "predicted")]
        # the rows ride records of this Doppler
        runs += [replace(run, rho_mode=run.rho_mode + "/fd=%g" % doppler,
                         fading=fading)
                 for run in _planned("outage", variants)]
    return cfg, "outage", runs


def _preset_fig7b():
    cfg = _preset_config("fig7b", trials=100000)
    variants = [_variant(cfg, "perfect", "dt")] + [
        _variant(cfg, mode, "df", relays=relays)
        for relays in (1, 2, 6) for mode in ("outdated", "predicted")]
    return cfg, "outage", _planned("outage", variants)


PRESETS = {
    "fig3b": _preset_fig3b,
    "fig4a": _preset_fig4a,
    "fig4b": _preset_fig4b,
    "fig6a": _preset_fig6a,
    "fig6b": _preset_fig6b,
    "fig7a": _preset_fig7a,
    "fig7b": _preset_fig7b,
}


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "predict-eval": cmd_predict_eval,
    "outage": cmd_outage,
    "capacity": cmd_capacity,
    "flops": cmd_flops,
    "protocol-sim": cmd_protocol_sim,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="prsim",
        description="relay-selection experiments: datasets, predictor "
                    "training, outage/capacity curves, complexity tables")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named experiment")
        p.add_argument("--seed", type=int, help="override experiment seed")
        if name in ("outage", "capacity"):  # no other command reads trials
            p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--out", help="override output path")
    return parser


def _resolve(args):
    """Config plus optional preset plan from parsed arguments."""
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    plan_command, plan = None, None
    if args.preset:
        cfg, plan_command, plan = PRESETS[args.preset]()
    elif args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = {"seed": args.seed, "trials": getattr(args, "trials", None)}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg, plan_command, plan


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg, plan_command, plan = _resolve(args)
        if plan_command is not None and plan_command != args.command:
            raise ConfigError("preset %r belongs to the %s subcommand"
                              % (args.preset, plan_command))
        extra = {} if plan is None else {"plan": plan}
        COMMANDS[args.command](cfg, out=args.out, **extra)
    except (ConfigError, ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
