"""The four-normal synthetic-pair sampler, kept as a test oracle.

Before `estimate` drew from the conditional law, it drew every relay's
(metric, actual) gain pair as four standard normals, impaired the
whole pair, and ranked and judged the full (n, K) planes.  That
sampler lives on here, unchanged in its draws and arithmetic, so the
conditional sampler can be checked against it, and tests that need
whole correlated pairs can draw them.
"""

import math

import numpy as np

from prsim.channel import correlate_planes
from prsim.rng import stream
from prsim.selection import RateConfig, decoding_subset, select

CHUNK = 250_000  # trials per chunk, as the sampler drew them


def pair_planes(rng, rho, size, out=None):
    """(metric, actual) gains at exact correlation rho, as float planes.

    Returns one (4, *size) array holding (metric.real, metric.imag,
    actual.real, actual.imag), or fills `out`.  The stream is read as
    four whole standard-normal planes: the metric's real and imaginary
    parts, then those of the innovation that completes the actual.
    """
    if out is None:
        out = np.empty((4, *np.atleast_1d(size)))
    for plane in out:
        rng.standard_normal(out=plane)
    return correlate_planes(out, rho)


def complex_pair(rng, rho, size):
    """pair_planes as (metric, actual) complex arrays."""
    planes = pair_planes(rng, rho, size)
    return planes[0::2] + 1j * planes[1::2]


def impair_pair(planes, imp, rng, scratch):
    """Impair one pair of planes in place (estimation noise, then phase).

    The metric becomes h + e with e ~ CN(0, 10^(-pilotSNR/10)), drawn as
    a whole real plane and then a whole imaginary one; the residual
    phase error multiplies the actual amplitude by cos(theta),
    theta ~ U(-theta_max, theta_max).  imp is None or an impaired
    ProtocolSettings; None is a no-op.  scratch is one spare plane.
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


def _snr(re, im, power):
    re *= re
    im *= im
    re += im
    re *= power
    return re


def _draw(family, rng, rho, hop, imp, planes):
    """(g_sr, g, score) of one relay family's chunk, in planes."""
    scratch = planes[-1] if imp is not None else None
    if family == "df":
        g_sr = planes[0]
        rng.standard_exponential(out=g_sr)
        g_sr *= hop
        rd = pair_planes(rng, rho, None, out=planes[1:5])
        impair_pair(rd, imp, rng, scratch)
        return g_sr, _snr(*rd[2:], hop), _snr(*rd[:2], hop)
    e2e = pair_planes(rng, rho, None, out=planes[:4])
    impair_pair(e2e, imp, rng, scratch)
    gamma_e = hop / 2.0
    return None, _snr(*e2e[2:], gamma_e), _snr(*e2e[:2], gamma_e)


def four_normal_estimate(schemes, snr_grid_db, trials, num_relays=8, rho=1.0,
                         rate=None, seed=0, impairments=None):
    """The four-normal sampler's estimate of df, af and ostc.

    Returns, per scheme, one (outage, outage SE, mean rate, rate SD)
    tuple per grid point; the rate SD is that of a single trial.  The
    draws are those `estimate` made with the four-normal sampler, so
    for a given seed the outage and mean rate are its bits.
    """
    rate = rate if rate is not None else RateConfig(1.0)
    families = {}
    for j, scheme in enumerate(schemes):
        families.setdefault({"ostc": "df"}.get(scheme, scheme), []).append(j)
    width = 5 if "df" in families else 4
    if impairments is not None:
        width += 1
    buf = np.empty((width, min(CHUNK, trials), num_relays))
    outage = np.empty((len(schemes), trials), dtype=bool)
    rates = np.empty((len(schemes), trials))
    out = [[] for _ in schemes]
    for i, snr_db in enumerate(np.atleast_1d(snr_grid_db)):
        hop = 0.5 * 10.0 ** (snr_db / 10.0)
        for family, members in families.items():
            rng = stream(seed, 43, i)
            for start in range(0, trials, CHUNK):
                sl = slice(start, min(start + CHUNK, trials))
                g_sr, g, score = _draw(family, rng, rho, hop, impairments,
                                       buf[:, :sl.stop - start])
                eligible = (decoding_subset(g_sr, rate) if family == "df"
                            else None)
                for j in members:
                    sel = select(g, score, rate, eligible,
                                 pair=(schemes[j] == "ostc"))
                    outage[j, sl], rates[j, sl] = sel.outage, sel.rate
        for j in range(len(schemes)):
            p = float(np.mean(outage[j]))
            out[j].append((p, math.sqrt(p * (1.0 - p) / trials),
                           float(np.mean(rates[j])), float(np.std(rates[j]))))
    return out
