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

Either way the actual SNR of the selected relay is a finite signed
mixture of exponentials, sum_j w_j Exp(mu_j) with sum_j w_j = 1
(``_df_law`` given the decoding-subset size, ``_af_law``).  Outage is
the mixture's CDF at gamma_o, sum_j w_j (1 - exp(-gamma_o/mu_j)), and
ergodic capacity is the mixture of single-link capacities
sum_j w_j exp(1/mu_j) E1(1/mu_j) / ln 2 (Alouini and Goldsmith, IEEE
TVT 1999) with the 1/2 half-duplex pre-log.  Both are exact finite
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
        if self.gamma_sr <= 0 or self.gamma_rd <= 0:
            raise ValueError("mean SNRs must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if self.gamma_o <= 0:
            raise ValueError("threshold SNR must be positive")

    @property
    def gamma_e(self):
        # mean of min(sr, rd) for independent exponentials; recomputed,
        # never stored, so it can not go stale
        return self.gamma_sr * self.gamma_rd / (self.gamma_sr + self.gamma_rd)


def prob_ds_size(K, M, gamma_o, gamma_sr):
    """P(decoding subset has exactly M of K relays): binomial law."""
    if not 0 <= M <= K:
        raise ValueError("need 0 <= M <= K")
    p = math.exp(-gamma_o / gamma_sr)
    # expm1, not 1 - p: the miss probability keeps its relative
    # precision in the high-SNR tail, where the outage is miss-dominated
    miss = -expm1(-gamma_o / gamma_sr)
    return comb(K, M) * p ** M * miss ** (K - M)


def _df_law(M, gamma_rd, rho):
    """Actual relay-hop SNR of the best-metric one of M decoders, [(w, mu)]."""
    one_minus_r2 = 1.0 - rho * rho
    return [(comb(M - 1, m) * (-1.0) ** m * (M / (m + 1.0)),
             gamma_rd * (1.0 + m * one_minus_r2) / (m + 1.0))
            for m in range(M)]


def _af_law(p):
    """Actual end-to-end SNR of the best-metric AF relay, [(w, mu)]."""
    r2 = p.rho * p.rho
    return [(comb(p.K, k) * (-1.0) ** (k + 1),
             (k * (1.0 - r2) + r2) * p.gamma_e / k)
            for k in range(1, p.K + 1)]


def _law_outage(law, gamma_o):
    # the sum is a probability; clip float cancellation noise at the edges
    return min(max(fsum(-w * expm1(-gamma_o / mu) for w, mu in law), 0.0), 1.0)


def _law_capacity(law):
    # half duplex: two phases per frame put a 1/2 pre-log on the rate
    return 0.5 * fsum(w * capacity_exponential_exact(mu) for w, mu in law)


def conditional_outage_df(M, gamma_rd, rho, gamma_o):
    """Outage of the selected relay hop given M participants.

    At rho = 1 the selected hop is the best-of-M order statistic and
    the mixture collapses to the binomial power, which is also the
    numerically stable branch there.
    """
    if M < 1:
        raise ValueError("need at least one participant")
    if rho == 1.0:
        return (-expm1(-gamma_o / gamma_rd)) ** M
    return _law_outage(_df_law(M, gamma_rd, rho), gamma_o)


def outage_df(p):
    """End-to-end outage probability of DF best-relay selection."""
    total = prob_ds_size(p.K, 0, p.gamma_o, p.gamma_sr)  # empty subset fails
    for M in range(1, p.K + 1):
        total += (prob_ds_size(p.K, M, p.gamma_o, p.gamma_sr)
                  * conditional_outage_df(M, p.gamma_rd, p.rho, p.gamma_o))
    return min(max(total, 0.0), 1.0)


def outage_af(p):
    """End-to-end outage probability of AF best-relay selection."""
    if p.rho == 1.0:
        return (-expm1(-p.gamma_o / p.gamma_e)) ** p.K
    return _law_outage(_af_law(p), p.gamma_o)


def capacity_df(p):
    """Ergodic capacity of DF selection, bits/s/Hz.

    Includes the 1/2 half-duplex pre-log; an empty decoding subset
    contributes zero rate.
    """
    return fsum(prob_ds_size(p.K, M, p.gamma_o, p.gamma_sr)
                * _law_capacity(_df_law(M, p.gamma_rd, p.rho))
                for M in range(1, p.K + 1))


def capacity_af(p):
    """Ergodic capacity of AF selection, bits/s/Hz, with the 1/2 pre-log."""
    return _law_capacity(_af_law(p))


def capacity_exponential_exact(gamma_avg):
    """Exact capacity of a single exponential-SNR link, bits/s/Hz.

    exp(1/g) E1(1/g) / ln 2, written through the kernel phi = -E1.
    """
    if gamma_avg <= 0:
        raise ValueError("mean SNR must be positive")
    x = 1.0 / gamma_avg
    if x <= 700.0:
        return -math.exp(x) * phi(x) / LN2
    # exp(x) overflows past here; the asymptotic series
    # sum_k (-1)^k k! / x^(k+1) is exact to double precision in 8 terms
    return fsum((-1) ** k * math.factorial(k) / x ** (k + 1)
                for k in range(8)) / LN2


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
