"""Monte-Carlo outage/rate estimation and the frame protocol.

A frame proceeds in two phases: the source broadcasts, decoding relays
form the decoding subset, and one relay (or a coded pair) forwards.
af ranks and judges the weaker hop; df, df-central and the coded pair
(ostc) rank the relay hop among the decoders.  The frame protocol runs
each block of frames through the selection kernel, `selection.select`;
estimate() draws the same rule's picks directly.

Networks are pure CSI sources.  A network's `frames(n)` returns the
actual SNR gains |h|^2 (unit mean) and buffered metrics (ranked by
magnitude) of its first n frames as (n, K) arrays, the same frames on
every call.  The SNR grid point and the target rate belong to the
driver call, which scales gains into hop SNRs, so one network serves
every scheme and grid point of a run with common random numbers.

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
metric SNRs and, given them, actual SNRs at an exact correlation rho,
which is what the closed forms assume; series mode, a SeriesNetwork under
simulate_frames, rides a generated fading record and takes the metric
from a trained predictor (or from the record itself, delayed, for the
no-predictor baseline).  estimate() picks by metric SNR without timers,
so it reports no collisions.  estimate() runs ESTIMATE_SCHEMES and
simulate_frames FRAME_SCHEMES: the frame protocol has no coded pair,
no direct link and no acquisition impairments.

simulate_frames holds every relay's actual SNR and judges the picks'
entries.  estimate() draws only what selection reads, and no value
per relay: per trial, df and af e2e draw the best of K metrics (one
uniform; the Renyi representation of order statistics) and the pick's
actual SNR given its metric (`channel.correlated_pair`, two normals);
ostc adds one uniform for the runner-up's metric and two normals for
its actual SNR, and dt draws one exponential.  No draw grows with K.
df thins the relays by decoding: a relay decodes with probability
p = exp(-c), c = gamma_o / hop, so its metric shifted down by c has
the law of a decoder's metric above zero, and a negative value is a
relay that did not decode.  df's pick is the best shifted metric, and
a negative one is a frame with no decoder.  This is exact, not an
approximation: each relay's metric SNR is Exp(1), independent of its
source hop, and given it the actual gain is
rho |metric| + sqrt(1 - rho^2) CN(0, 1) in distribution.

estimate() serves every scheme of one (relays, rho, impairments) group
in one call.  Schemes that read the stream the same way form a draw
family and share one draw: df and ostc both decide from the same pick.
af (the closed forms' end-to-end model) and dt each draw on their own.
Every family reads its own fresh stream per grid point, and ostc's
runner-up a stream of its own, so a scheme's estimate is the same bits
whichever schemes share its call.  A family draws chunk by chunk into
result rows of its own, so a call's memory grows with neither K nor
the number of schemes.

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

from .channel import correlated_pair
from .rng import stream
from .selection import RateConfig, decoding_subset, select

ESTIMATE_SCHEMES = ("df", "af", "ostc", "dt")
FRAME_SCHEMES = ("df", "af", "df-central")
MIN_TRIALS = 10_000  # estimate's floor per grid point


def _hop_snr(snr_db):
    """Mean SNR of each relay hop at a grid point (half the power each).

    ValueError unless it lies in [1e-300, 1e300], about +-3000 dB:
    inside that range every product the engines form stays finite."""
    snr_db = float(snr_db)
    try:
        hop = 0.5 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        hop = math.inf
    if not 1e-300 <= hop <= 1e300:
        raise ValueError("SNR grid point %g dB puts the hop SNR past "
                         "[1e-300, 1e300], where the engines' products "
                         "leave the float range" % snr_db)
    return hop


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
        if not 2 <= self.frames < math.inf:
            raise ValueError("need at least 2 frames")
        if self.policy not in ("reselect", "terminate"):
            raise ValueError("policy must be reselect or terminate")
        if not 0 < self.timer_max < math.inf:
            raise ValueError("timer cap must be positive")
        if not 0 <= self.uncertainty_window < math.inf:
            raise ValueError("uncertainty window must be >= 0")
        if self.pilot_snr_db is not None and not math.isfinite(
                self.pilot_snr_db):
            raise ValueError("pilot SNR must be finite")
        if not (self.max_phase_error_deg is None
                or 0 <= self.max_phase_error_deg < math.inf):
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
    """CSI source of i.i.d. frames with exact-rho buffered metrics: the
    metric buffered at frame t-1 for frame t is the correlated-pair
    partner of frame t's actual gain."""

    metric_lag = 1  # frames between buffering a metric and reading it

    def __init__(self, num_relays, rho, seed=0):
        if num_relays < 1:
            raise ValueError("need at least one relay")
        if not 0.0 <= rho <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        self.num_relays = int(num_relays)
        self.rho = float(rho)
        self.seed = seed
        self._frames = None

    def frames(self, n):
        """(gain_sr, gain_rd, metric_sr, metric_rd) of the first n frames.

        Each is (n, K).  The (seed, 41) stream is read as both hops'
        metric SNRs |h_m|^2, Exp(1), then the gains given them
        (`correlated_pair`); the metrics handed out are |h_m|.  The
        first call draws the frames and sets the most a later call
        may ask for.
        """
        if self._frames is None:
            rng = stream(self.seed, 41)
            metric = rng.standard_exponential((2, n, self.num_relays))
            gain = correlated_pair(rng, self.rho, metric.shape, metric)
            self._frames = (*gain, *np.sqrt(metric, out=metric))
        if n > len(self._frames[0]):
            raise ValueError("the first frames() call drew fewer frames")
        return tuple(a[:n] for a in self._frames)


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
        """(gain_sr, gain_rd, metric_sr, metric_rd) of the first n frames."""
        if n > self.num_frames:
            raise ValueError(f"record supports at most {self.num_frames} frames")
        gain_sr, gain_rd = (h.real ** 2 + h.imag ** 2 for h in
                            (self.series_sr[:n], self.series_rd[:n]))
        return gain_sr, gain_rd, self.metric_sr[:n], self.metric_rd[:n]


def _metric_record(series, delay, predictor):
    """Metric of the record's last samples: the record itself `delay`
    samples back (a view), or the predictor's output."""
    if predictor is None:
        return series[:max(series.shape[0] - delay, 0)]
    from .predictor import predict_series

    return predict_series(predictor, series)[0]


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
    g_sr, g_rd, m_sr, m_rd = (a[1:] for a in network.frames(num_frames))
    g_sr, g_rd = g_sr * hop, g_rd * hop
    score, eligible, window = np.abs(m_rd), None, None
    if scheme == "af":
        # rank and judge the weaker hop
        score = np.minimum(np.abs(m_sr), score)
        g_rd = np.minimum(g_sr, g_rd)
    else:
        # rank the relay hop among the decoders
        eligible = decoding_subset(g_sr, rate)
        if central and protocol.policy == "terminate":
            # only the destination's first pick may forward
            eligible &= (np.arange(score.shape[1])
                         == np.argmax(score, axis=1)[:, None])
    if not central:
        score = -protocol.duration(score)
        window = protocol.uncertainty_window
    sel = select(g_rd, score, rate, eligible, window)
    return _mc_estimate(sel.outage, sel.rate,
                        int(np.count_nonzero(sel.collision)))


# ------------------------------------------------- vectorized estimators


# trials drawn per chunk; the chunking sets the draw order of a stream
_CHUNK = 250_000


def _top_survival(u, count):
    """Survival 1 - F of the largest of `count` i.i.d. continuous draws,
    one uniform u each: 1 - u^(1/count), formed as -expm1(log(u) / count)
    so that a survival near 0, the upper tail, keeps its digits.  A
    count of 0 gives 1."""
    with np.errstate(divide="ignore"):
        s = np.log(u) / count
    np.expm1(s, out=s)
    return np.negative(s, out=s)


def _second_survival(best, u, count):
    """Survival of the runner-up of `count` draws given the best's, one
    uniform u each.  The other count - 1 lie i.i.d. below the best, so
    the runner-up is the largest of them on that range; 1 when count
    is 1."""
    s = _top_survival(u, count - 1)
    s *= 1.0 - best
    s += best
    return s


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


def _relay_family(family, targets, rng, pair_rng, rho, num_relays, hop,
                  rate, phase):
    """Draw one relay family's chunk and judge each of its schemes.

    targets lists (scheme, outage row, rate row), views of the chunk's
    slice that the judged frames are written into.  pair_rng is None
    unless ostc is among the schemes, and draws its runner-up.

    The picks' metric SNRs are order statistics of K i.i.d. Exp(1)
    metrics, drawn directly (the Renyi representation; H. A. David and
    H. N. Nagaraja, Order Statistics, 3rd ed., 2003): the best of K,
    one uniform, and for ostc the runner-up given it.  df thins each
    relay by its decoding probability p = exp(-c), c = gamma_o / hop:
    a relay's metric shifted down by c has survival p e^-y above zero,
    the law of a decoder's metric, and is negative when the relay did
    not decode.  So df's pick is the best shifted metric, and a
    negative one is a frame with no decoder, which is lost; a pair
    whose runner-up is negative forwards the pick alone.  af e2e
    shifts by nothing.  Each pick's actual SNR is then drawn given its
    metric (`_actuals`).
    """
    n = targets[0][1].size
    shift, gain = ((rate.gamma_o / hop, hop) if family == "df"
                   else (0.0, hop / 2.0))  # the mean of min(sr, rd)
    best = _top_survival(rng.random(n), num_relays)
    metric = -np.log(best) - shift
    # clipped, so no lost frame's negative metric reaches a square root
    g = _actuals(rng, rho, np.maximum(metric, 0.0), gain, phase)
    g[metric < 0.0] = 0.0
    for scheme, outage, rates in targets:
        judged = g
        if scheme == "ostc":
            second = -np.log(_second_survival(best, pair_rng.random(n),
                                              num_relays)) - shift
            g2 = _actuals(pair_rng, rho, np.maximum(second, 0.0), gain, phase)
            judged = np.where(second >= 0.0, 0.5 * (g + g2), g)
        outage[:] = judged < rate.gamma_o
        rates[:] = 0.5 * np.log2(1.0 + judged)


def _family_point(family, schemes, trials, rng, pair_rng, rho, num_relays,
                  hop, rate, phase):
    """One McEstimate per scheme of a draw family at one grid point.

    The family draws chunk by chunk into result rows of its own, which
    are freed before the next family draws.
    """
    outage = np.empty((len(schemes), trials), dtype=bool)
    rates = np.empty((len(schemes), trials))
    for start in range(0, trials, _CHUNK):
        sl = slice(start, min(start + _CHUNK, trials))
        if family == "dt":
            g = rates[0, sl]
            rng.standard_exponential(out=g)
            g *= 2.0 * hop  # the whole power P
            # the boundary succeeds; a full-frame link, no halving
            outage[:, sl] = g < rate.direct_threshold
            g += 1.0
            np.log2(g, out=g)
            rates[:, sl] = g
            continue
        _relay_family(family, [(scheme, outage[j, sl], rates[j, sl])
                               for j, scheme in enumerate(schemes)],
                      rng, pair_rng, rho, num_relays, hop, rate, phase)
    return [_mc_estimate(o, r) for o, r in zip(outage, rates)]


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
    docstring): the picks' metric SNRs are drawn as order statistics,
    and their actual SNRs given those metrics (`correlated_pair`), with
    the impairments applied exactly.  A trial costs the same at any K.

    Each draw family (df with ostc, af, dt) reads its own stream per
    grid point, chunk by chunk; its schemes decide from that one draw.
    ostc's runner-up reads a stream of its own, so a scheme's estimates
    are the same bits whichever schemes share the call, and
    deterministic for a given seed.

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
    hops = [_hop_snr(snr_db) for snr_db in np.atleast_1d(snr_grid_db)]
    rate = rate if rate is not None else RateConfig(1.0)
    imp = impairments if impairments is not None else ProtocolSettings()
    if imp.pilot_snr_db is not None:
        rho /= math.sqrt(1.0 + 10.0 ** (-imp.pilot_snr_db / 10.0))
    phase = math.radians(imp.max_phase_error_deg or 0.0)
    families = {}
    for j, scheme in enumerate(schemes):
        # df and ostc read one draw the same way
        families.setdefault({"ostc": "df"}.get(scheme, scheme), []).append(j)
    out = [[] for _ in schemes]
    for i, hop in enumerate(hops):
        for family, members in families.items():
            names = [schemes[j] for j in members]
            pair_rng = stream(seed, 43, i, 1) if "ostc" in names else None
            for j, est in zip(members, _family_point(
                    family, names, trials, stream(seed, 43, i), pair_rng,
                    rho, num_relays, hop, rate, phase)):
                out[j].append(est)
    return out
