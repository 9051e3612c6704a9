"""Monte-Carlo outage/rate estimation and the frame protocol.

A frame proceeds in two phases: the source broadcasts, decoding relays
form the decoding subset, and one relay (or a coded pair) forwards.
Every estimator runs a block of frames through one per-block rule,
`_rule`, which maps a scheme onto the selection kernel: af ranks and
judges the weaker hop; df, df-central and the coded pair (ostc) rank
the relay hop among the decoders.  The estimators differ only in where
the selection metric and the picks' actual SNRs come from.

Networks are pure CSI sources.  A network's `frames(n)` returns the
actual and buffered complex coefficients of its first n frames as
(n, K) arrays, the same frames on every call.  The SNR grid point and
the target rate belong to the driver call, which scales coefficients
into hop SNRs, so one network serves every scheme and grid point of a
run with common random numbers.

The selection metric is never the frame's own CSI: each node predicts
the next frame's coefficient, writes it to a buffer, and a later
frame's selection reads that buffer.  A network hands out the metric
already shifted `metric_lag` frames behind the actuals;
simulate_frames refuses a network whose lag is below one.  Row 0 is
the bootstrap frame, whose buffer no earlier frame of the run wrote;
it is dropped from statistics.

ProtocolSettings, the [protocol] section of an experiment file, holds
the settings of the frame protocol's timer race and the acquisition
impairments of synthetic pairs; simulate_frames reads the race's,
estimate the impairments.

Distributed variants resolve contention with back-off timers
T = min(1 / |metric|, T_m): the relay with the strongest buffered
metric fires first and the rest hear its flag and stand down, which
is the kernel ranking by -T (capped timers tie to the lowest id).  Two
timers closer than the uncertainty window collide and destroy the
frame (counted as outage).  The window defaults to zero, in which case
continuous metrics almost surely never collide and the timer race is
exactly an argmax.  The centralized variant ranks buffered predictions
at the destination instead; when the pick turns out not to have
decoded, it either re-selects among the remaining decoders (default)
or terminates the frame.

Two CSI-correlation modes drive the statistics.  Synthetic mode draws
(metric, actual) pairs at an exact correlation rho, which is what the
closed forms assume; series mode, a SeriesNetwork under
simulate_frames, rides a generated fading record and takes the metric
from a trained predictor (or from the record itself, delayed, for the
no-predictor baseline).  estimate() ranks metric SNRs without timers,
so it reports no collisions.  estimate() runs ESTIMATE_SCHEMES and
simulate_frames FRAME_SCHEMES: the frame protocol has no coded pair,
no direct link and no acquisition impairments.

simulate_frames holds every relay's actual SNR and judges the picks'
entries.  estimate() draws only what selection reads, from the
conditional law: per trial, df draws K source-hop and K metric
exponentials, ranks them, and then draws the pick's actual SNR given
its metric (`channel.correlated_pair`, two normals); ostc adds two
normals for the runner-up, af e2e needs the K metric exponentials and
the pick's two normals, and dt one exponential.  This is exact, not an
approximation: each relay's metric SNR is Exp(1), and given it the
actual gain is rho |metric| + sqrt(1 - rho^2) CN(0, 1) in
distribution.

estimate() serves every scheme of one (relays, rho, impairments) group
in one call.  Schemes that read the stream the same way form a draw
family and share one draw: df and ostc both decide from one ranking
of the same source-hop and metric exponentials and the same pick.  af
(the closed forms' end-to-end model) and dt each draw on their own.
Every family reads its own fresh stream per grid point, and ostc's
runner-up a stream of its own, so a scheme's estimate is the same bits
whichever schemes share its call.  The exponentials land in (n, K)
planes allocated once per call and refilled chunk by chunk.

Power accounting: with total per-frame power P and unit noise, the
half-duplex relay phases each spend 0.5 P, so both hop SNRs average
half the grid value (`_hop_snr`); direct transmission spends the full
P and is judged against the single-phase rate threshold.

Acquisition impairments are modeled on synthetic pairs: pilot noise
adds CN(0, s2), s2 = 10^(-pilotSNR/10), to every unit-power estimate
entering the metric path, and a residual phase error theta ~
U(-theta_max, theta_max) scales the detected amplitude by cos(theta)
on the actual path.  Ranking ignores the metric's scale, so pilot noise
only lowers the metric-actual correlation to rho / sqrt(1 + s2), and
the phase error multiplies each pick's actual SNR by cos^2(theta); the
conditional draw applies both exactly.  The cosine mapping is a
convention of this package: the effect of imperfect carrier recovery
on a coherent detector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import correlate_planes, correlated_pair, snr_from_gain
from .rng import stream
from .selection import RateConfig, decoding_subset, judge, rank, select

ESTIMATE_SCHEMES = ("df", "af", "ostc", "dt")
FRAME_SCHEMES = ("df", "af", "df-central")
MIN_TRIALS = 10_000  # estimate's floor per grid point


def _hop_snr(snr_db):
    """Mean SNR of each relay hop at a grid point (half the power each)."""
    return 0.5 * 10.0 ** (snr_db / 10.0)


# ------------------------------------------------------------------ types


@dataclass(frozen=True)
class ProtocolSettings:
    """The [protocol] section: frames per grid point, the centralized
    variant's policy, the timer cap T_m of the back-off timer
    min(1/|metric|, T_m), the uncertainty window (the separation two
    timers need to be resolved; within it both relays fire and the
    frame is lost) and the acquisition impairments of synthetic pairs,
    each None when off (a zero phase error bound is off too)."""

    frames: int = 100_000
    policy: str = "reselect"
    timer_max: float = 1000.0
    uncertainty_window: float = 0.0
    pilot_snr_db: float = None
    max_phase_error_deg: float = None

    def __post_init__(self):
        if self.frames < 2:
            raise ValueError("need at least 2 frames")
        if self.policy not in ("reselect", "terminate"):
            raise ValueError("policy must be reselect or terminate")
        if self.timer_max <= 0:
            raise ValueError("timer cap must be positive")
        if self.uncertainty_window < 0:
            raise ValueError("uncertainty window must be >= 0")
        if self.max_phase_error_deg is not None and self.max_phase_error_deg < 0:
            raise ValueError("phase error bound must be nonnegative")

    def duration(self, metric_magnitude):
        """Back-off timer min(1 / |metric|, timer_max)."""
        m = np.asarray(metric_magnitude, dtype=float)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0 / m, self.timer_max)

    @property
    def impaired(self):
        """Whether any impairment is on: pilot noise, or a nonzero phase
        error bound."""
        return self.pilot_snr_db is not None or bool(self.max_phase_error_deg)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo point estimate with its binomial standard error."""

    trials: int
    outage_prob: float
    std_error: float
    mean_rate: float
    collision_rate: float


def _mc_estimate(outage, rates, collisions=0):
    n = outage.size
    p = float(np.mean(outage))
    se = math.sqrt(p * (1.0 - p) / n)
    return McEstimate(n, p, se, float(np.mean(rates)), collisions / n)


# -------------------------------------------------------------- networks


class SyntheticRhoNetwork:
    """CSI source of i.i.d. frames with exact-rho buffered metrics.

    Every frame draws fresh unit-power coefficients; the prediction
    buffered at frame t-1 for frame t is the correlated-pair partner
    of frame t's actuals, so the metric-actual correlation equals rho
    by construction.
    """

    metric_lag = 1  # frames between buffering a metric and reading it

    def __init__(self, num_relays, rho, seed=0):
        if num_relays < 1:
            raise ValueError("need at least one relay")
        self.num_relays = int(num_relays)
        self.rho = float(rho)
        self.seed = seed
        self._block = None

    def frames(self, n):
        """(csi_sr, csi_rd, metric_sr, metric_rd) of the first n frames.

        Each is (n, K), and every call replays the same frames.  Frame
        by frame the (seed, 41) stream is read as the source hop's four
        standard-normal K-planes (metric re and im, innovation re and
        im; see `correlate_planes`), then the relay hop's.  The stream
        fills frames in order, so the network holds the longest block
        asked for and slices shorter ones.
        """
        if self._block is None or self._block[0].shape[0] < n:
            z = stream(self.seed, 41).standard_normal(
                (n, 2, 4, self.num_relays))
            # (metric re, metric im, actual re, actual im), each (n, 2, K)
            planes = correlate_planes(np.moveaxis(z, 2, 0), self.rho)
            block = np.empty((2, 2, n, self.num_relays), dtype=complex)
            block.real = np.moveaxis(planes[2::-2], 2, 1)  # actual, metric
            block.imag = np.moveaxis(planes[3::-2], 2, 1)
            self._block = tuple(block.reshape(4, n, -1))
        return tuple(a[:n] for a in self._block)


class SeriesNetwork:
    """CSI source riding generated fading records, one sample per frame.

    The buffered metric for the frame at sample s is the predictor's
    output computed from taps up to s - delay, or the record itself
    delayed by `delay` samples when no predictor is given.  A predictor
    reads the feature layout it records, whose horizon must be `delay`.
    Frames start at `start`, the first sample the metric covers; the
    network holds views of the records from there on, plus predictions.
    """

    def __init__(self, series_sr, series_rd, delay, predictor=None):
        series_sr = np.asarray(series_sr)
        series_rd = np.asarray(series_rd)
        if series_sr.shape != series_rd.shape or series_sr.ndim != 2:
            raise ValueError("need matching (T, K) hop records")
        if delay < 1:
            raise ValueError("delay must be at least one sample")
        if predictor is not None and predictor.layout["horizon"] != delay:
            raise ValueError("predictor horizon differs from the delay")
        self.metric_lag = int(delay)
        self.metric_sr = _metric_record(series_sr, delay, predictor)
        self.metric_rd = _metric_record(series_rd, delay, predictor)
        self.num_frames = len(self.metric_sr)
        if self.num_frames < 2:
            raise ValueError("record too short for the requested delay")
        self.start = series_sr.shape[0] - self.num_frames
        self.series_sr = series_sr[self.start:]
        self.series_rd = series_rd[self.start:]

    def frames(self, n):
        """(csi_sr, csi_rd, metric_sr, metric_rd) of the first n frames."""
        if n > self.num_frames:
            raise ValueError(f"record supports at most {self.num_frames} frames")
        return (self.series_sr[:n], self.series_rd[:n],
                self.metric_sr[:n], self.metric_rd[:n])


def _metric_record(series, delay, predictor):
    """Metric of the record's last samples: the record itself `delay`
    samples back (a view), or the predictor's output."""
    if predictor is None:
        return series[:max(series.shape[0] - delay, 0)]
    from .predictor import predict_series

    return predict_series(predictor, series)[0]


# ---------------------------------------------------------- the one rule


def _rule(scheme, rate, g_sr, s_sr, s_rd, timer=None, terminate=False):
    """The selection kernel's arguments for one (n, K) block of a scheme.

    g_sr are the source-hop SNRs and s_* the per-hop scores (higher is
    better).  af ranks the weaker hop's score; s_sr = None hands in an
    end-to-end score as the relay hop.  df, df-central and ostc rank the
    relay hop among the decoding subset, ostc the best pair.  timer, a
    ProtocolSettings, turns the score into the back-off race with its
    uncertainty window; terminate leaves only the overall top-ranked
    relay eligible.  Returns the score, eligible, window and pair
    arguments of `selection.rank` and `selection.select`; the picks are
    judged on the weaker hop's actual SNR for af, the relay hop's
    otherwise.
    """
    score, eligible = s_rd, None
    if scheme == "af":
        if s_sr is not None:
            score = np.minimum(s_sr, s_rd)
    else:
        eligible = decoding_subset(g_sr, rate)
        if terminate:
            # only the destination's first pick may forward
            eligible &= (np.arange(score.shape[1])
                         == np.argmax(score, axis=1)[:, None])
    window = None
    if timer is not None:
        score = -timer.duration(score)
        window = timer.uncertainty_window
    return dict(score=score, eligible=eligible, window=window,
                pair=(scheme == "ostc"))


# -------------------------------------------------------- frame protocol


def simulate_frames(scheme, network, snr_db, num_frames, rate=None,
                    protocol=ProtocolSettings()):
    """Run the frame protocol over a block; the bootstrap frame is dropped.

    scheme: one of FRAME_SCHEMES, at the grid point snr_db.  df and af
    race protocol's timers; df-central ranks at the destination under
    protocol's policy.  Returns one McEstimate over frames
    1 .. num_frames - 1.
    """
    if num_frames < 2:
        raise ValueError("need at least two frames (the first is dropped)")
    if scheme not in FRAME_SCHEMES:
        raise ValueError(f"unknown frame scheme {scheme!r}")
    if network.metric_lag < 1:
        raise RuntimeError(
            "selection would read a prediction written at its own frame")
    central = scheme == "df-central"  # the destination ranks; nobody races
    rate = rate if rate is not None else RateConfig(1.0)
    hop = _hop_snr(snr_db)
    csi_sr, csi_rd, m_sr, m_rd = (a[1:] for a in network.frames(num_frames))
    g_sr, g_rd = snr_from_gain(csi_sr, hop), snr_from_gain(csi_rd, hop)
    rule = _rule(scheme, rate, g_sr, np.abs(m_sr), np.abs(m_rd),
                 None if central else protocol,
                 terminate=(central and protocol.policy == "terminate"))
    g = np.minimum(g_sr, g_rd) if scheme == "af" else g_rd
    sel = select(g, rate=rate, **rule)
    return _mc_estimate(sel.outage, sel.rate,
                        int(np.count_nonzero(sel.collision)))


# ------------------------------------------------- vectorized estimators


# (n, K) planes each draw family fills per chunk: df a source-hop and a
# metric plane, af a metric plane; dt draws straight into its rates row
_FAMILY_PLANES = {"df": 2, "af": 1, "dt": 0}

# trials drawn per chunk; the chunking sets the draw order of a stream
_CHUNK = 250_000


def _actuals(rng, rho, metric, gain, phase_bound):
    """Actual SNRs of the picks, given their metric SNRs (unit mean):
    the conditional draw at rho, scaled to the mean SNR gain, then the
    phase error's cos^2 factor when phase_bound (radians) is nonzero."""
    g = correlated_pair(rng, rho, metric.shape, metric)
    g *= gain
    if phase_bound:
        # U(-bound, bound), formed as rng.uniform forms it
        theta = rng.random(metric.shape)
        theta *= 2.0 * phase_bound
        theta -= phase_bound
        np.cos(theta, out=theta)
        g *= theta * theta
    return g


def _relay_family(family, targets, rng, pair_rng, rho, hop, rate, phase,
                  planes):
    """Draw one relay family's chunk and judge each of its schemes.

    targets lists (scheme, outage row, rate row), views of the chunk's
    slice that the judged frames are written into.  planes are the
    family's (n, K) planes (`_FAMILY_PLANES`), refilled in place, the
    metric plane last.  pair_rng is None unless ostc is among the
    schemes, and draws the runner-up's actual.
    """
    metric = planes[-1]
    g_sr, gain = None, hop / 2.0  # af: the mean of min(sr, rd) at equal hops
    if family == "df":
        g_sr, gain = planes[0], hop
        rng.standard_exponential(out=g_sr)
        g_sr *= hop
    rng.standard_exponential(out=metric)  # metric SNRs, unit mean
    # df and ostc share one ranking; the pair adds the runner-up
    ranking = rank(**_rule("ostc" if pair_rng is not None else family, rate,
                           g_sr, None, metric))
    picks = np.arange(metric.shape[0])
    g_first = _actuals(rng, rho, metric[picks, ranking.first], gain, phase)
    g_second = None
    if pair_rng is not None:
        g_second = _actuals(pair_rng, rho, metric[picks, ranking.second],
                            gain, phase)
    for scheme, outage, rates in targets:
        sel = (judge(ranking, rate, g_first, g_second) if scheme == "ostc"
               else judge(ranking._replace(paired=None), rate, g_first))
        outage[:], rates[:] = sel.outage, sel.rate


def estimate(schemes, snr_grid_db, trials, num_relays=8, rho=1.0, rate=None,
             seed=0, impairments=None):
    """Synthetic-rho Monte-Carlo of several schemes across an SNR grid.

    schemes lists ESTIMATE_SCHEMES names; the result holds one list per
    scheme, in that order, of one McEstimate per grid point.  Selection
    ranks rho-correlated metric copies of the actual coefficients;
    rho = 1 is perfect selection and rho = J0(2 pi f_d tau) the
    no-predictor baseline.  impairments is None or an impaired
    ProtocolSettings: pilot noise perturbs the metric path, phase error
    the actual (detection) path.  dt has no metric, and its draw models
    no phase error.

    Trials are drawn from the conditional law (see the module
    docstring): the kernel ranks every relay's metric SNR, and only the
    picks' actual SNRs are drawn, given their metrics
    (`correlated_pair`), with the impairments applied exactly.

    Each draw family (df with ostc, af, dt) reads its own stream per
    grid point, chunk by chunk, into planes allocated once per call;
    its schemes decide from that one draw.  ostc's runner-up reads a
    stream of its own, so a scheme's estimates are the same bits
    whichever schemes share the call, and deterministic for a given
    seed.

    af is the closed forms' end-to-end model: one outdated estimate of
    the min(sr, rd) figure; the per-hop ranking the distributed
    algorithm runs is `simulate_frames("af")`.
    """
    if isinstance(schemes, str) or not schemes:
        raise ValueError("schemes must be a non-empty list of names")
    for scheme in schemes:
        if scheme not in ESTIMATE_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of "
                             f"{ESTIMATE_SCHEMES}")
    if trials < MIN_TRIALS:
        raise ValueError("need at least 1e4 trials per point")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    if num_relays < 1:
        raise ValueError("need at least one relay")
    grid = np.atleast_1d(np.asarray(snr_grid_db, dtype=float))
    if not np.all(np.isfinite(grid)):
        raise ValueError("SNR grid points must be finite")
    rate = rate if rate is not None else RateConfig(1.0)
    imp = impairments if impairments is not None else ProtocolSettings()
    if imp.pilot_snr_db is not None:
        rho /= math.sqrt(1.0 + 10.0 ** (-imp.pilot_snr_db / 10.0))
    phase = math.radians(imp.max_phase_error_deg or 0.0)
    families = {}
    for j, scheme in enumerate(schemes):
        # df and ostc read one draw the same way
        families.setdefault({"ostc": "df"}.get(scheme, scheme), []).append(j)
    width = max(_FAMILY_PLANES[f] for f in families)
    buf = np.empty((width, min(_CHUNK, trials), num_relays))
    outage = np.empty((len(schemes), trials), dtype=bool)
    rates = np.empty((len(schemes), trials))
    out = [[] for _ in schemes]
    for i, snr_db in enumerate(grid):
        hop = _hop_snr(snr_db)
        for family, members in families.items():
            rng = stream(seed, 43, i)
            paired = any(schemes[j] == "ostc" for j in members)
            pair_rng = stream(seed, 43, i, 1) if paired else None
            for start in range(0, trials, _CHUNK):
                sl = slice(start, min(start + _CHUNK, trials))
                if family == "dt":
                    g = rates[members[0], sl]
                    rng.standard_exponential(out=g)
                    g *= 2.0 * hop  # the whole power P
                    # the boundary succeeds; a full-frame link, no halving
                    outage[members, sl] = g < rate.direct_threshold
                    g += 1.0
                    np.log2(g, out=g)
                    rates[members, sl] = g
                    continue
                _relay_family(
                    family, [(schemes[j], outage[j, sl], rates[j, sl])
                             for j in members], rng, pair_rng, rho, hop,
                    rate, phase,
                    buf[-_FAMILY_PLANES[family]:, :sl.stop - start])
        for j in range(len(schemes)):
            out[j].append(_mc_estimate(outage[j], rates[j]))
    return out
