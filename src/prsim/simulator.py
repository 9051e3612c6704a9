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

Distributed variants resolve contention with back-off timers
T = min(c / |metric|, T_m): the relay with the strongest buffered
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
closed forms assume; series mode rides a generated fading record and
takes the metric from a trained predictor (or from the record itself,
delayed, for the no-predictor baseline).  estimate() and
estimate_series() rank metric SNRs without timers, so they report no
collisions.

Power accounting: with total per-frame power P and unit noise, the
half-duplex relay phases each spend 0.5 P, so both hop SNRs average
half the grid value (`_hop_snr`); direct transmission spends the full
P and is judged against the single-phase rate threshold.

Acquisition impairments are modeled on top of either mode: pilot noise
adds CN(0, 10^(-pilotSNR/10)) to every unit-power estimate entering
the metric path, and a residual phase error theta ~ U(-theta_max,
theta_max) scales the detected amplitude by cos(theta) on the actual
path.  The cosine mapping is a convention of this package (the effect
of imperfect carrier recovery on a coherent detector), isolated here
so alternatives can be swapped in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import correlated_pair, snr_from_gain
from .rng import complex_normal, stream
from .selection import RateConfig, decoding_subset, select

_SCHEMES = ("df", "af", "ostc", "dt")


def _hop_snr(snr_db):
    """Mean SNR of each relay hop at a grid point (half the power each)."""
    return 0.5 * 10.0 ** (snr_db / 10.0)


# ------------------------------------------------------------------ types


@dataclass(frozen=True)
class TimerModel:
    """Back-off timer T = min(c / |metric|, max_duration).

    Only the ordering of timers matters for outage statistics; c and
    the cap are free conventions (defaults 1 and 1e3).  The
    uncertainty window is the minimum separation two timers need to be
    resolved; within it both relays fire and the frame is lost.
    """

    c: float = 1.0
    max_duration: float = 1e3
    uncertainty_window: float = 0.0

    def __post_init__(self):
        if self.c <= 0 or self.max_duration <= 0:
            raise ValueError("timer constants must be positive")
        if self.uncertainty_window < 0:
            raise ValueError("uncertainty window must be nonnegative")

    def duration(self, metric_magnitude):
        m = np.asarray(metric_magnitude, dtype=float)
        with np.errstate(divide="ignore"):
            return np.minimum(self.c / m, self.max_duration)


@dataclass(frozen=True)
class ImpairmentConfig:
    """CSI acquisition impairments; None disables a component."""

    pilot_snr_db: float = None
    max_phase_error_deg: float = None

    def __post_init__(self):
        if self.max_phase_error_deg is not None and self.max_phase_error_deg < 0:
            raise ValueError("phase error bound must be nonnegative")

    @property
    def enabled(self):
        return self.pilot_snr_db is not None or self.max_phase_error_deg is not None


def apply_impairments(csi, cfg, rng):
    """Impaired copy of a unit-power CSI array (estimation noise, then phase).

    The estimate is h + e with e ~ CN(0, 10^(-pilotSNR/10));
    the residual phase error multiplies the effective post-detection
    amplitude by cos(theta), theta ~ U(-theta_max, theta_max).
    """
    out = np.asarray(csi, dtype=complex)
    if cfg.pilot_snr_db is not None:
        var = 10.0 ** (-cfg.pilot_snr_db / 10.0)
        out = out + complex_normal(rng, size=out.shape, variance=var)
    if cfg.max_phase_error_deg is not None and cfg.max_phase_error_deg > 0:
        bound = math.radians(cfg.max_phase_error_deg)
        out = out * np.cos(rng.uniform(-bound, bound, size=out.shape))
    return out


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

    def frames(self, n):
        """(csi_sr, csi_rd, metric_sr, metric_rd) of the first n frames.

        Each is (n, K), and every call replays the same frames.  Frame
        by frame the (seed, 41) stream is consumed exactly as two
        correlated_pair draws (source hop, then relay hop) would
        consume it.
        """
        z = stream(self.seed, 41).standard_normal((n, 2, 4, self.num_relays))
        scale = np.sqrt(0.5)
        metric = scale * (z[:, :, 0] + 1j * z[:, :, 1])
        w = scale * (z[:, :, 2] + 1j * z[:, :, 3])
        actual = self.rho * metric + math.sqrt(1.0 - self.rho * self.rho) * w
        return actual[:, 0], actual[:, 1], metric[:, 0], metric[:, 1]


class SeriesNetwork:
    """CSI source riding generated fading records, one sample per frame.

    The buffered metric for the frame at sample s is the predictor's
    output computed from taps up to s - delay, or the record itself
    delayed by `delay` samples when no predictor is given.  Frames
    start at the first sample every metric covers.
    """

    def __init__(self, series_sr, series_rd, delay, predictor=None, tau=4,
                 features="complex", scale=0.4):
        series_sr = np.asarray(series_sr)
        series_rd = np.asarray(series_rd)
        if series_sr.shape != series_rd.shape or series_sr.ndim != 2:
            raise ValueError("need matching (T, K) hop records")
        if delay < 1:
            raise ValueError("delay must be at least one sample")
        self.series_sr = series_sr
        self.series_rd = series_rd
        self.metric_lag = int(delay)
        self.metric_sr, start_sr = _metric_record(
            series_sr, delay, predictor, tau, features, scale)
        self.metric_rd, start_rd = _metric_record(
            series_rd, delay, predictor, tau, features, scale)
        self.start = max(start_sr, start_rd)
        self.num_frames = series_sr.shape[0] - self.start
        if self.num_frames < 2:
            raise ValueError("record too short for the requested delay")

    def frames(self, n):
        """(csi_sr, csi_rd, metric_sr, metric_rd) of the first n frames."""
        if n > self.num_frames:
            raise ValueError(f"record supports at most {self.num_frames} frames")
        s = slice(self.start, self.start + n)
        return (self.series_sr[s], self.series_rd[s],
                self.metric_sr[s], self.metric_rd[s])


def _metric_record(series, delay, predictor, tau, features, scale):
    """Per-sample metric array aligned with the record, plus first
    sample index it covers."""
    T = series.shape[0]
    metric = np.zeros_like(series)
    if predictor is None:
        metric[delay:] = series[:T - delay]
        return metric, delay
    from .predictor import predict_series

    pred, _ = predict_series(predictor, series, tau, delay,
                             features=features, scale=scale)
    start = tau + delay
    metric[start:] = pred
    return metric, start


# ------------------------------------------------------ the one decision


def _decide(scheme, rate, g_sr, g_rd, s_sr, s_rd, timer=None,
            terminate=False):
    """Run one (n, K) block of a scheme through the selection kernel.

    g_* are the actual hop SNRs and s_* the per-hop scores (higher is
    better).  af ranks and judges the weaker hop; g_sr = s_sr = None
    hands in an end-to-end figure as the relay hop.  df, df-central and
    ostc rank the relay hop among the decoding subset, ostc forwarding
    the best pair.  A timer turns the score into the back-off race with
    its collision window; terminate leaves only the overall top-ranked
    relay eligible.
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
                    timer=None, policy="reselect"):
    """Run the frame protocol over a block; the bootstrap frame is dropped.

    scheme: 'df' (distributed), 'df-central' or 'af', at the grid point
    snr_db.  Returns one McEstimate over frames 1 .. num_frames - 1.
    """
    if num_frames < 2:
        raise ValueError("need at least two frames (the first is dropped)")
    if scheme not in ("df", "df-central", "af"):
        raise ValueError(f"unknown frame scheme {scheme!r}")
    if policy not in ("reselect", "terminate"):
        raise ValueError("policy must be 'reselect' or 'terminate'")
    if network.metric_lag < 1:
        raise RuntimeError(
            "selection would read a prediction written at its own frame")
    if scheme == "df-central":
        timer = None  # the destination ranks; nobody races
    elif timer is None:
        timer = TimerModel()
    hop = _hop_snr(snr_db)
    csi_sr, csi_rd, m_sr, m_rd = (a[1:] for a in network.frames(num_frames))
    sel = _decide(scheme, rate if rate is not None else RateConfig(1.0),
                  snr_from_gain(csi_sr, hop), snr_from_gain(csi_rd, hop),
                  np.abs(m_sr), np.abs(m_rd), timer,
                  terminate=(scheme == "df-central" and policy == "terminate"))
    return _mc_estimate(sel.outage, sel.rate,
                        int(np.count_nonzero(sel.collision)))


# ------------------------------------------------- vectorized estimators


def _impaired(metric_h, actual_h, imp, rng):
    """Split an impairment config over the two CSI paths."""
    if imp is None or not imp.enabled:
        return metric_h, actual_h
    metric_h = apply_impairments(
        metric_h, ImpairmentConfig(pilot_snr_db=imp.pilot_snr_db), rng)
    actual_h = apply_impairments(
        actual_h, ImpairmentConfig(max_phase_error_deg=imp.max_phase_error_deg), rng)
    return metric_h, actual_h


def estimate(scheme, snr_grid_db, trials, num_relays=8, rho=1.0, rate=None,
             seed=0, impairments=None, af_mode="e2e", chunk=250_000):
    """Synthetic-rho Monte-Carlo across an SNR grid.

    scheme is 'df', 'af', 'ostc' or 'dt'.  Selection ranks
    rho-correlated metric copies of the actual coefficients; rho = 1
    is perfect selection and rho = J0(2 pi f_d tau) the no-predictor
    baseline.  Pilot noise perturbs the metric path, phase error the
    actual (detection) path.  Returns one McEstimate per grid point;
    deterministic for a given seed and chunk size (the chunking sets
    the draw order of the underlying stream).

    af_mode picks the amplified link's correlation structure: 'e2e'
    treats the end-to-end SNR as one fading figure with its own
    outdated estimate, which is the model behind the closed forms;
    'per-hop' ranks min(|metric_sr|, |metric_rd|) of separately
    outdated hop estimates, the rule the distributed algorithm runs.
    The two differ by a few percent at intermediate rho.  Either way
    the amplified end-to-end SNR is the min(sr, rd) bound the closed
    forms assume.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {_SCHEMES}")
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials per point")
    if af_mode not in ("e2e", "per-hop"):
        raise ValueError("af_mode must be 'e2e' or 'per-hop'")
    rate = rate if rate is not None else RateConfig(1.0)

    def block(rng, n, hop):
        """Outage flags and realized rates of n fresh trials.

        The draws die when this returns, before the next block's.
        """
        shape = (n, num_relays)
        if scheme == "dt":
            g = rng.exponential(2.0 * hop, size=n)  # the whole power P
            # the boundary succeeds; a full-frame link, no halving
            return g < rate.direct_threshold, np.log2(1.0 + g)
        if scheme == "af" and af_mode == "e2e":
            # one outdated estimate of the end-to-end figure itself
            m, a = _impaired(*correlated_pair(rng, rho, shape),
                             impairments, rng)
            gamma_e = hop / 2.0  # mean of min(sr, rd) at equal hops
            sel = _decide("af", rate, None, snr_from_gain(a, gamma_e),
                          None, snr_from_gain(m, gamma_e))
        elif scheme == "af":
            pair_sr = correlated_pair(rng, rho, shape)
            pair_rd = correlated_pair(rng, rho, shape)
            m_sr, a_sr = _impaired(*pair_sr, impairments, rng)
            m_rd, a_rd = _impaired(*pair_rd, impairments, rng)
            sel = _decide("af", rate, *(snr_from_gain(h, hop)
                                        for h in (a_sr, a_rd, m_sr, m_rd)))
        else:
            g_sr = rng.exponential(hop, size=shape)
            m_rd, a_rd = _impaired(*correlated_pair(rng, rho, shape),
                                   impairments, rng)
            sel = _decide(scheme, rate, g_sr, snr_from_gain(a_rd, hop),
                          None, snr_from_gain(m_rd, hop))
        return sel.outage, sel.rate

    out = []
    for i, snr_db in enumerate(np.atleast_1d(snr_grid_db)):
        rng = stream(seed, 43, i)
        hop = _hop_snr(snr_db)
        outage = np.empty(trials, dtype=bool)
        rates = np.empty(trials)
        for start in range(0, trials, chunk):
            sl = slice(start, min(start + chunk, trials))
            outage[sl], rates[sl] = block(rng, sl.stop - start, hop)
        out.append(_mc_estimate(outage, rates))
    return out


def estimate_series(scheme, series_sr, series_rd, snr_grid_db, delay,
                    rate=None, predictor=None, tau=4, features="complex",
                    scale=0.4):
    """Monte-Carlo across an SNR grid with frames riding fading records.

    One frame per record sample (from the first the metric covers);
    the metric is the predictor's output for that sample, or the
    record delayed by `delay` samples when no predictor is given.
    Deterministic given the records and the predictor.
    """
    if scheme not in ("df", "af", "ostc"):
        raise ValueError(f"series mode covers df/af/ostc, not {scheme!r}")
    rate = rate if rate is not None else RateConfig(1.0)
    net = SeriesNetwork(series_sr, series_rd, delay, predictor=predictor,
                        tau=tau, features=features, scale=scale)
    block = net.frames(net.num_frames)
    out = []
    for snr_db in np.atleast_1d(snr_grid_db):
        hop = _hop_snr(snr_db)
        sel = _decide(scheme, rate, *(snr_from_gain(h, hop) for h in block))
        out.append(_mc_estimate(sel.outage, sel.rate))
    return out


# ----------------------------------------------------------------- output

CSV_FIELDS = ("scheme", "K", "rho_mode", "snr_db", "outage", "std_err",
              "rate", "collision_rate", "trials", "seed")


def experiment_rows(scheme, num_relays, rho_mode, snr_grid_db, estimates, seed):
    """Self-describing result rows, one per grid point."""
    rows = []
    for snr_db, est in zip(np.atleast_1d(snr_grid_db), estimates):
        rows.append({
            "scheme": scheme,
            "K": num_relays,
            "rho_mode": rho_mode,
            "snr_db": float(snr_db),
            "outage": est.outage_prob,
            "std_err": est.std_error,
            "rate": est.mean_rate,
            "collision_rate": est.collision_rate,
            "trials": est.trials,
            "seed": seed,
        })
    return rows
