"""Monte-Carlo outage/rate estimation and the frame protocol.

A frame proceeds in two phases: the source broadcasts, decoding relays
form the decoding subset, and one relay (or a coded pair) forwards.
Every estimator decides a block of frames through one per-block
decision, `_decide`, which maps a scheme onto the kernel
`selection.select`: af ranks and judges the weaker hop; df, df-central
and the coded pair (ostc) rank the relay hop among the decoders.  The
estimators differ only in where the selection metric comes from.

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

estimate() serves every scheme of one (relays, rho, impairments) group
in one call.  Schemes that read the stream the same way form a draw
family and share one draw: df and ostc both decide from a source-hop
exponential and one relay-hop pair.  af (the closed forms' end-to-end
model) and dt each draw on their own.  Every family reads its own
fresh stream per grid point, so a scheme's estimate is the same bits
whichever schemes share its call.  Draws land in float planes (real
and imaginary parts apart) allocated once per call and refilled chunk
by chunk; hop SNRs and impairments are formed in those planes in place.

Power accounting: with total per-frame power P and unit noise, the
half-duplex relay phases each spend 0.5 P, so both hop SNRs average
half the grid value (`_hop_snr`); direct transmission spends the full
P and is judged against the single-phase rate threshold.

Acquisition impairments are modeled on synthetic pairs: pilot noise
adds CN(0, 10^(-pilotSNR/10)) to every unit-power estimate entering
the metric path, and a residual phase error theta ~ U(-theta_max,
theta_max) scales the detected amplitude by cos(theta) on the actual
path.  The cosine mapping is a convention of this package: the effect
of imperfect carrier recovery on a coherent detector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import correlate_planes, correlated_pair, snr_from_gain
from .rng import stream
from .selection import RateConfig, decoding_subset, select

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
        """Whether impair_pair draws anything: pilot noise, or a nonzero
        phase error bound."""
        return self.pilot_snr_db is not None or bool(self.max_phase_error_deg)


def impair_pair(planes, imp, rng, scratch):
    """Impair one correlated pair in place (estimation noise, then phase).

    planes are correlated_pair's (metric re, metric im, actual re,
    actual im) and scratch one spare plane of the same shape.  The
    metric becomes h + e with e ~ CN(0, 10^(-pilotSNR/10)), drawn as a
    whole real plane and then a whole imaginary one; the residual phase
    error multiplies the actual (post-detection) amplitude by
    cos(theta), theta ~ U(-theta_max, theta_max).  imp is None or an
    impaired ProtocolSettings; None is a no-op.
    """
    if imp is None:
        return
    if imp.pilot_snr_db is not None:
        sd = math.sqrt(10.0 ** (-imp.pilot_snr_db / 10.0) / 2.0)
        for plane in planes[:2]:
            rng.standard_normal(out=scratch)
            scratch *= sd
            plane += scratch
    if imp.max_phase_error_deg:
        bound = math.radians(imp.max_phase_error_deg)
        rng.random(out=scratch)  # U(-bound, bound), as rng.uniform forms it
        scratch *= 2.0 * bound
        scratch += -bound
        np.cos(scratch, out=scratch)
        planes[2:] *= scratch


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
        by frame the (seed, 41) stream is consumed exactly as two
        correlated_pair draws (source hop, then relay hop) would
        consume it.  The stream fills frames in order, so the network
        holds the longest block asked for and slices shorter ones.
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


# ------------------------------------------------------ the one decision


def _decide(scheme, rate, g_sr, g_rd, s_sr, s_rd, timer=None,
            terminate=False):
    """Run one (n, K) block of a scheme through the selection kernel.

    g_* are the actual hop SNRs and s_* the per-hop scores (higher is
    better).  af ranks and judges the weaker hop; g_sr = s_sr = None
    hands in an end-to-end figure as the relay hop.  df, df-central and
    ostc rank the relay hop among the decoding subset, ostc forwarding
    the best pair.  timer, a ProtocolSettings, turns the score into the
    back-off race with its uncertainty window; terminate leaves only the
    overall top-ranked relay eligible.
    """
    g, score, eligible = g_rd, s_rd, None
    if scheme == "af":
        if g_sr is not None:
            g, score = np.minimum(g_sr, g_rd), np.minimum(s_sr, s_rd)
    else:
        eligible = decoding_subset(g_sr, rate)
        if terminate:
            # only the destination's first pick may forward
            eligible &= (np.arange(g.shape[1])
                         == np.argmax(score, axis=1)[:, None])
    window = None
    if timer is not None:
        score = -timer.duration(score)
        window = timer.uncertainty_window
    return select(g, score, rate, eligible, window, pair=(scheme == "ostc"))


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
    hop = _hop_snr(snr_db)
    csi_sr, csi_rd, m_sr, m_rd = (a[1:] for a in network.frames(num_frames))
    sel = _decide(scheme, rate if rate is not None else RateConfig(1.0),
                  snr_from_gain(csi_sr, hop), snr_from_gain(csi_rd, hop),
                  np.abs(m_sr), np.abs(m_rd), None if central else protocol,
                  terminate=(central and protocol.policy == "terminate"))
    return _mc_estimate(sel.outage, sel.rate,
                        int(np.count_nonzero(sel.collision)))


# ------------------------------------------------- vectorized estimators


def _snr(re, im, power):
    """Hop SNR |h|^2 * power of the planes (re, im), formed in re."""
    re *= re
    im *= im
    re += im
    re *= power
    return re


# planes each draw family fills per chunk, besides the scratch plane of
# impaired draws; dt draws straight into its rates row
_FAMILY_PLANES = {"df": 5, "af": 4, "dt": 0}

# trials drawn per chunk; the chunking sets the draw order of a stream
_CHUNK = 250_000


def _draw(family, rng, rho, hop, imp, planes):
    """(g_sr, g_rd, s_sr, s_rd) of one relay family's chunk, in planes.

    planes is (width, n, K), its last plane the scratch of impaired
    draws; the result feeds `_decide`.
    """
    shape = planes.shape[1:]
    scratch = planes[-1] if imp is not None else None
    if family == "df":
        g_sr = planes[0]
        rng.standard_exponential(out=g_sr)
        g_sr *= hop
        rd = correlated_pair(rng, rho, shape, out=planes[1:5])
        impair_pair(rd, imp, rng, scratch)
        return g_sr, _snr(*rd[2:], hop), None, _snr(*rd[:2], hop)
    # af: one outdated estimate of the end-to-end figure itself
    e2e = correlated_pair(rng, rho, shape, out=planes[:4])
    impair_pair(e2e, imp, rng, scratch)
    gamma_e = hop / 2.0  # mean of min(sr, rd) at equal hops
    return None, _snr(*e2e[2:], gamma_e), None, _snr(*e2e[:2], gamma_e)


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

    Each draw family (df with ostc, af, dt) reads its own stream per
    grid point, chunk by chunk, into planes allocated once per call;
    its schemes decide from that one draw.  A scheme's estimates are
    therefore the same bits whichever schemes share the call, and
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
    rate = rate if rate is not None else RateConfig(1.0)
    families = {}
    for j, scheme in enumerate(schemes):
        # df and ostc read one draw the same way
        families.setdefault({"ostc": "df"}.get(scheme, scheme), []).append(j)
    width = max(_FAMILY_PLANES[f] for f in families)
    if width and impairments is not None:
        width += 1  # the scratch plane of impaired draws
    buf = np.empty((width, min(_CHUNK, trials), num_relays))
    outage = np.empty((len(schemes), trials), dtype=bool)
    rates = np.empty((len(schemes), trials))
    out = [[] for _ in schemes]
    for i, snr_db in enumerate(np.atleast_1d(snr_grid_db)):
        hop = _hop_snr(snr_db)
        for family, members in families.items():
            rng = stream(seed, 43, i)
            for start in range(0, trials, _CHUNK):
                sl = slice(start, min(start + _CHUNK, trials))
                n = sl.stop - start
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
                args = _draw(family, rng, rho, hop, impairments, buf[:, :n])
                for j in members:
                    _, outage[j, sl], rates[j, sl], _ = _decide(
                        schemes[j], rate, *args)
        for j in range(len(schemes)):
            out[j].append(_mc_estimate(outage[j], rates[j]))
    return out
