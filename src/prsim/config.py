"""Experiment configuration for the command-line runner.

Experiments are described by small text files in a line-based format:

    [section]
    key = value

Full-line comments start with '#' or ';'.  Sections group related
knobs: network geometry, the fading process, where the selection
metric comes from (the csi section), schemes to run, the SNR grid,
the predictor recipe and frame-level protocol settings.  Each settings
section is a frozen dataclass, and its parser table is read off the
fields.  FadingSettings is defined beside the generator in channel,
PredictorSettings beside the training code in predictor.train,
ProtocolSettings beside the frame protocol in simulator, and the
other three here.  Every key has a default taken from the baseline
setup used throughout (f_s = 1000 Hz, f_d = 100 Hz, K = 8 relays,
tapped-delay length 4, two recurrent layers of 25 units each), so an
empty file is already a valid experiment.  A section whose values do
not fit together is a ConfigError naming the section.
Unknown sections and unknown or repeated keys are hard errors, which
guards against silent typos in sweeps.

Parsing yields an immutable ExperimentConfig.  Its config_hash() is a
digest of the canonical serialization minus the output path, so every
result row can be traced back to the exact generating setup: equal
hash and equal seed imply byte-identical rows.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass

from .channel import FadingSettings
from .predictor.train import PredictorSettings
from .simulator import (ESTIMATE_SCHEMES, FRAME_SCHEMES, ProtocolSettings,
                        _hop_snr)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# section dataclasses


@dataclass(frozen=True)
class NetworkSettings:
    """Relay count and target rate.

    The SNR grid is expressed as total end-to-end SNR P/sigma_n^2 in
    dB; the source and the chosen relay each spend half of P.
    """

    relays: int = 8
    rate: float = 1.0

    def __post_init__(self):
        if not 1 <= self.relays < math.inf:
            raise ConfigError("need at least one relay")
        if not 0 < self.rate < 512:  # as RateConfig
            raise ConfigError("target rate must be positive and below 512")


@dataclass(frozen=True)
class DatasetSettings:
    """Stored channel-series file used by gen-data and train."""

    length: int = 1_000_000
    path: str = "dataset.csv"

    def __post_init__(self):
        if not 1 <= self.length < math.inf:
            raise ConfigError("dataset length must be >= 1")


@dataclass(frozen=True)
class CsiSettings:
    """Where the selection metric comes from.

    mode = perfect     selection sees the true coefficients
           outdated    selection sees coefficients `delay` samples old
           predicted   a recurrent net maps the stale tap line to a
                       `delay`-step-ahead estimate (model file optional;
                       trained on the fly when empty)
           synthetic   selection metric drawn jointly with the actual
                       at a prescribed correlation `rho`
    """

    mode: str = "outdated"
    delay: int = 3
    rho: float = 0.95
    model: str = ""

    def __post_init__(self):
        if self.mode not in ("perfect", "outdated", "predicted", "synthetic"):
            raise ConfigError("unknown csi mode %r" % self.mode)
        if (self.mode in ("outdated", "predicted")
                and not 1 <= self.delay < math.inf):
            raise ConfigError("csi delay must be >= 1 sample")
        if not 0 <= self.rho <= 1:
            raise ConfigError("rho must be in [0, 1]")


_SCHEMES = tuple(dict.fromkeys(ESTIMATE_SCHEMES + FRAME_SCHEMES))  # union


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment."""

    name: str = "default"
    seed: int = 0
    trials: int = 100_000
    output: str = "results.csv"
    schemes: tuple = ("df",)
    snr_grid_db: tuple = tuple(float(x) for x in range(0, 31, 2))
    network: NetworkSettings = field(default_factory=NetworkSettings)
    fading: FadingSettings = field(default_factory=FadingSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    csi: CsiSettings = field(default_factory=CsiSettings)
    predictor: PredictorSettings = field(default_factory=PredictorSettings)
    protocol: ProtocolSettings = field(default_factory=ProtocolSettings)

    def __post_init__(self):
        if not 0 <= self.seed < math.inf:
            raise ConfigError("seed must be >= 0")
        if not 1 <= self.trials < math.inf:
            raise ConfigError("trials must be >= 1")
        if not self.schemes:
            raise ConfigError("scheme list is empty")
        for s in self.schemes:
            if s not in _SCHEMES:
                raise ConfigError(
                    "unknown scheme %r (choose from %s)" % (s, ", ".join(_SCHEMES)))
        if not self.snr_grid_db:
            raise ConfigError("snr grid is empty")

    def config_hash(self):
        """Digest of the canonical text, minus the output path."""
        lines = [ln for ln in to_text(self).splitlines()
                 if not ln.startswith("output =")]
        return hashlib.md5("\n".join(lines).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# value converters


def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % raw)


def _float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError("expected a number, got %r" % raw)
    if not math.isfinite(value):
        raise ConfigError("expected a finite number, got %r" % raw)
    return value


def _opt_float(raw):
    return None if raw == "" else _float(raw)


def _word(raw):
    return raw.lower()


def _text(raw):
    return raw


MAX_GRID_POINTS = 10_000


def _grid(raw):
    """SNR grid: either 'start:stop:step' (inclusive, at most
    MAX_GRID_POINTS points, each start + i step) or a comma list, of
    points whose hop SNR the engines can hold."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("grid range must be start:stop:step")
        start, stop, step = (_float(p) for p in parts)
        if step <= 0:
            raise ConfigError("grid step must be positive")
        if stop < start:
            raise ConfigError("grid stop must be >= start")
        steps = (stop - start) / step + 1e-9  # floor(steps) + 1 points
        if not steps < MAX_GRID_POINTS:
            raise ConfigError("grid range has more than %d points"
                              % MAX_GRID_POINTS)
        vals = [round(start + i * step, 12)
                for i in range(math.floor(steps) + 1)]
    else:
        vals = [_float(p) for p in raw.split(",") if p.strip()]
    if not vals:
        raise ConfigError("grid is empty")
    for x in vals:
        try:
            _hop_snr(x)
        except ValueError as err:
            raise ConfigError(str(err))
    return tuple(vals)


def _scheme_list(raw):
    return tuple(t.strip().lower() for t in raw.split(",") if t.strip())


# the settings sections, in ExperimentConfig's field order
_SECTION_CLS = {f.name: f.type for f in fields(ExperimentConfig)
                if is_dataclass(f.type)}


def _converter(f):
    """Converter of one settings field: optional, vocabulary or by type."""
    if f.default is None:
        return _opt_float
    if f.name in ("mode", "kind", "features", "policy"):  # words, any case
        return _word
    return {int: _int, float: _float, str: _text}[f.type]


# the top sections: section -> key -> (ExperimentConfig field, converter)
_TOP = {
    "experiment": {"name": ("name", _text), "seed": ("seed", _int),
                   "trials": ("trials", _int), "output": ("output", _text)},
    "schemes": {"list": ("schemes", _scheme_list)},
    "grid": {"snr_db": ("snr_grid_db", _grid)},
}

# section -> key -> converter; table drives both parsing and the
# canonical serialization, so the two can never drift apart.  The
# settings sections read theirs off the dataclass fields.
_SCHEMA = {
    **{section: {key: conv for key, (_, conv) in keys.items()}
       for section, keys in _TOP.items()},
    **{section: {f.name: _converter(f) for f in fields(cls)}
       for section, cls in _SECTION_CLS.items()},
}


def parse_config(text):
    """Parse experiment text into an ExperimentConfig."""
    raw = {sec: {} for sec in _SCHEMA}
    section = None
    for num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError("line %d: unknown section [%s]" % (num, section))
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % num)
        if section is None:
            raise ConfigError("line %d: key outside any [section]" % num)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCHEMA[section]:
            raise ConfigError(
                "line %d: unknown key %r in [%s] (valid: %s)"
                % (num, key, section, ", ".join(sorted(_SCHEMA[section]))))
        if key in raw[section]:
            raise ConfigError("line %d: duplicate key %r in [%s]" % (num, key, section))
        raw[section][key] = (num, value.strip())

    def build(section):
        out = {}
        for key, (num, value) in raw[section].items():
            try:
                out[key] = _SCHEMA[section][key](value)
            except ConfigError as err:
                raise ConfigError("line %d: [%s] %s: %s"
                                  % (num, section, key, err))
        return out

    top = {}
    for section, keys in _TOP.items():
        top.update((keys[key][0], v) for key, v in build(section).items())
    for section, cls in _SECTION_CLS.items():
        vals = build(section)
        if vals:
            try:
                top[section] = cls(**vals)
            except ValueError as err:
                raise ConfigError("[%s] %s" % (section, err))
    return ExperimentConfig(**top)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lines(items):
    return ["%s = %s" % (key, _format_value(value)) for key, value in items]


def settings_lines(settings):
    """Canonical `key = value` lines of one settings section."""
    return _lines((f.name, getattr(settings, f.name))
                  for f in fields(settings))


def to_text(cfg):
    """Canonical full serialization; parse_config(to_text(c)) == c."""
    blocks = [["[%s]" % section] + _lines(
        (key, getattr(cfg, name)) for key, (name, _) in keys.items())
        for section, keys in _TOP.items()]
    blocks += [["[%s]" % section] + settings_lines(getattr(cfg, section))
               for section in _SECTION_CLS]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
