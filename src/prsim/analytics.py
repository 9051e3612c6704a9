"""Closed-form outage probability and ergodic capacity for selection relaying.

The expressions cover best-relay selection whose selection metric is a
stale or predicted observation of the true channel: the metric/actual
gain pair is jointly complex Gaussian with correlation rho, so the
actual SNR conditioned on the metric SNR follows a noncentral-chi-square
law.  rho is an input abstraction: callers map either the Doppler-lag
correlation J0(2 pi f_d tau) of outdated CSI or the measured correlation
of a channel predictor onto the same formulas.

DF: a relay participates if its source-hop SNR clears the threshold
gamma_o (the decoding subset); the destination picks the participant
with the strongest relay-hop metric.  AF: the best min(src, relay)
metric is picked among all K and the end-to-end SNR is modeled by its
tight upper bound min(gamma_sr, gamma_rd), a single exponential variate
with mean gamma_e = gamma_sr*gamma_rd/(gamma_sr+gamma_rd) per relay.

Both are one law, ``_law``: the best metric among K relays, each of
which takes part independently with probability p.  DF's relays decode
with p = exp(-gamma_o/gamma_sr) and are judged on gamma_rd; AF's all
take part (p = 1) and are judged on gamma_e.  Thinning each relay by p
needs no sum over the decoding subset's size, since
sum_M Binom(K, M, p) C(M-1, k-1) M/k = C(K, k) p^k.  The actual SNR of
the pick is then a finite signed mixture of exponentials,
sum_k w_k Exp(mu_k), plus an atom at zero of mass (1 - p)^K where no
relay takes part.  Outage is the atom plus the mixture's CDF at
gamma_o, and ergodic capacity is the mixture of single-link capacities
sum_k w_k exp(1/mu_k) E1(1/mu_k) / ln 2 (Alouini and Goldsmith, IEEE
TVT 1999) with the 1/2 half-duplex pre-log.  Both are exact K-term
sums.  At rho = 1 the outage takes the binomial power of the order
statistic instead, which is also the numerically stable branch there:
the alternating sum loses all precision in deep tails as rho -> 1.

``capacity_exponential_check`` applies the tan-mapped Gauss-Chebyshev
rule to the rate integral of one exponential link, where the integrand
is smooth and 200 nodes are accurate to ~1e-3 even at mean SNR 100; it
is the rule's self-check against ``capacity_exponential_exact``.
"""

import math
from dataclasses import dataclass
from math import comb, expm1, fsum

from .numerics import gauss_chebyshev, phi

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SelectionParams:
    """Best-relay selection: K relays, per-hop mean SNRs, metric
    correlation rho and threshold SNR gamma_o, for DF and AF alike."""

    K: int
    gamma_sr: float
    gamma_rd: float
    rho: float
    gamma_o: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need at least one relay")
        if not (0 < self.gamma_sr < math.inf and 0 < self.gamma_rd < math.inf):
            raise ValueError("mean SNRs must be positive and finite")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if not 0 < self.gamma_o < math.inf:
            raise ValueError("threshold SNR must be positive and finite")

    @property
    def gamma_e(self):
        # mean of min(sr, rd) for independent exponentials; recomputed,
        # never stored, so it can not go stale
        return self.gamma_sr * self.gamma_rd / (self.gamma_sr + self.gamma_rd)


def _law(K, p, gamma, rho):
    """Actual SNR of the best-metric one of K relays, each taking part
    with probability p, [(w, mu)].  The weights sum to 1 - (1 - p)^K;
    the rest is the atom at zero SNR where no relay takes part."""
    r2 = rho * rho
    try:
        return [(comb(K, k) * (-1.0) ** (k + 1) * p ** k,
                 (k * (1.0 - r2) + r2) * gamma / k)
                for k in range(1, K + 1)]
    except OverflowError:  # C(K, k) past the float range
        raise ValueError(f"K = {K} relays: the closed forms' weights "
                         "C(K, k) exceed the float range") from None


def _outage(K, c, gamma, rho, gamma_o):
    """Outage of ``_law`` at p = exp(-c) on mean SNR gamma.

    At rho = 1 the pick is the best-of-K order statistic of the thinned
    metrics, P(no relay above gamma_o) = (1 - e^-c e^(-gamma_o/gamma))^K.
    """
    if rho == 1.0:
        return (-expm1(-c - gamma_o / gamma)) ** K
    # expm1, not 1 - p: the atom keeps its relative precision in the
    # high-SNR tail, where the DF outage is miss-dominated
    atom = (-expm1(-c)) ** K
    law = _law(K, math.exp(-c), gamma, rho)
    # the sum is a probability; clip float cancellation noise at the edges
    total = fsum([atom] + [-w * expm1(-gamma_o / mu) for w, mu in law])
    return min(max(total, 0.0), 1.0)


def _capacity(K, c, gamma, rho):
    """Capacity of ``_law`` at p = exp(-c) on mean SNR gamma; the atom
    carries no rate, and half duplex puts a 1/2 pre-log on the rest."""
    return 0.5 * fsum(w * capacity_exponential_exact(mu)
                      for w, mu in _law(K, math.exp(-c), gamma, rho))


def outage_df(p):
    """End-to-end outage probability of DF best-relay selection."""
    return _outage(p.K, p.gamma_o / p.gamma_sr, p.gamma_rd, p.rho, p.gamma_o)


def outage_af(p):
    """End-to-end outage probability of AF best-relay selection."""
    return _outage(p.K, 0.0, p.gamma_e, p.rho, p.gamma_o)


def capacity_df(p):
    """Ergodic capacity of DF selection, bits/s/Hz.

    Includes the 1/2 half-duplex pre-log; an empty decoding subset
    contributes zero rate.
    """
    return _capacity(p.K, p.gamma_o / p.gamma_sr, p.gamma_rd, p.rho)


def capacity_af(p):
    """Ergodic capacity of AF selection, bits/s/Hz, with the 1/2 pre-log."""
    return _capacity(p.K, 0.0, p.gamma_e, p.rho)


def capacity_exponential_exact(gamma_avg):
    """Exact capacity of a single exponential-SNR link, bits/s/Hz.

    exp(1/g) E1(1/g) / ln 2, written through the kernel phi = -E1.
    """
    if not 0 < gamma_avg < math.inf:
        raise ValueError("mean SNR must be positive and finite")
    x = 1.0 / gamma_avg
    if x <= 700.0:
        return -math.exp(x) * phi(x) / LN2
    # exp(x) overflows past here; the asymptotic series
    # sum_k (-1)^k k! / x^(k+1) is exact to double precision in 8 terms,
    # built as t_k = -k t_(k-1) / x, t_0 = 1/x = g, so no term overflows
    terms = [gamma_avg]
    for k in range(1, 8):
        terms.append(-k * terms[-1] * gamma_avg)
    return fsum(terms) / LN2


def capacity_exponential_check(gamma_avg):
    """Single-link capacity via the quadrature rule in the SNR domain.

    Applies the 200-node rule directly to
    int_0^inf log2(1+g) exp(-g/ga)/ga dg, whose integrand is smooth on
    the half line, so this doubles as an accuracy check of the rule
    itself against ``capacity_exponential_exact``.
    """
    if gamma_avg <= 0:
        raise ValueError("mean SNR must be positive")
    nodes, weights = gauss_chebyshev(200)
    return fsum(
        w * math.log1p(s) / LN2 * math.exp(-s / gamma_avg) / gamma_avg
        for s, w in zip(nodes, weights)
    )
