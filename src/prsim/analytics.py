"""Closed-form outage probability and ergodic capacity for selection relaying.

The expressions cover best-relay selection whose selection metric is a
stale or predicted observation of the true channel: the metric/actual
gain pair is jointly complex Gaussian with correlation rho, so the
actual SNR conditioned on the metric SNR follows a noncentral-chi-square
law (``conditional_snr_pdf``).  rho is an input abstraction: callers map
either the Doppler-lag correlation J0(2 pi f_d tau) of outdated CSI or
the measured correlation of a channel predictor onto the same formulas.

DF: a relay participates if its source-hop SNR clears the threshold
gamma_o (the decoding subset); the destination picks the participant
with the strongest relay-hop metric.  AF: the best min(src, relay)
metric is picked among all K and the end-to-end SNR is modeled by its
tight upper bound min(gamma_sr, gamma_rd), a single exponential variate
with mean gamma_e = gamma_sr*gamma_rd/(gamma_sr+gamma_rd) per relay.

Capacity uses the MGF identity C = 1/ln2 * int_0^inf Phi(s) M'(s) ds
evaluated on the tan-mapped Gauss-Chebyshev rule.  Note the kernel
Phi(s) = -E1(s) has a log singularity at s = 0, so that rule converges
only polynomially here: at the default Q = 200 the absolute error grows
roughly like 1.3e-4 * mean-SNR (measured on the single-link case).
``capacity_exponential_check`` therefore applies the same rule directly
to the rate integral in the SNR domain, where the integrand is smooth
and Q = 200 is accurate to ~1e-3 even at mean SNR 100; it serves as the
quadrature self-check against the exact single-link capacity
exp(1/g) E1(1/g) / ln 2.
"""

import math
from dataclasses import dataclass
from math import comb, expm1, fsum

from .numerics import bessel_i0e, exp_integral_e1, gauss_chebyshev, phi

LN2 = math.log(2.0)

_DEFAULT_RULE = None


def _default_rule():
    global _DEFAULT_RULE
    if _DEFAULT_RULE is None:
        _DEFAULT_RULE = gauss_chebyshev(200)
    return _DEFAULT_RULE


@dataclass(frozen=True)
class DfParams:
    """Decode-and-forward selection: K relays, per-hop mean SNRs."""

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


@dataclass(frozen=True)
class AfParams:
    """Amplify-and-forward selection under the min-SNR bound."""

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


def conditional_snr_pdf(snr, snr_metric, snr_avg, rho):
    """Density of the actual SNR given the metric SNR of the same link.

    Both SNRs are exponential with mean snr_avg and their underlying
    complex gains have correlation rho < 1.  Uses the scaled Bessel
    function so the product stays finite for any argument (the combined
    exponent -(sqrt(g) - rho sqrt(gm))^2 / (snr_avg (1-rho^2)) is never
    positive).
    """
    if snr < 0 or snr_metric < 0:
        raise ValueError("SNRs must be nonnegative")
    if snr_avg <= 0:
        raise ValueError("mean SNR must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("density degenerates at rho = 1; need 0 <= rho < 1")
    denom = snr_avg * (1.0 - rho * rho)
    shifted = -((math.sqrt(snr) - rho * math.sqrt(snr_metric)) ** 2) / denom
    bessel_arg = 2.0 * rho * math.sqrt(snr * snr_metric) / denom
    return math.exp(shifted) * bessel_i0e(bessel_arg) / denom


def prob_ds_size(K, M, gamma_o, gamma_sr):
    """P(decoding subset has exactly M of K relays): binomial law."""
    if not 0 <= M <= K:
        raise ValueError("need 0 <= M <= K")
    p = math.exp(-gamma_o / gamma_sr)
    return comb(K, M) * p ** M * (1.0 - p) ** (K - M)


def conditional_outage_df(M, gamma_rd, rho, gamma_o):
    """Outage of the selected relay hop given M participants.

    The selection metric correlates with the actual hop SNR through
    rho; at rho = 1 this is the best-of-M order statistic and the
    alternating form collapses to the binomial power, which is also the
    numerically stable branch there (the alternating sum loses all
    precision in deep tails as rho -> 1).
    """
    if M < 1:
        raise ValueError("need at least one participant")
    if rho == 1.0:
        return (-expm1(-gamma_o / gamma_rd)) ** M
    one_minus_r2 = 1.0 - rho * rho
    terms = []
    for m in range(M):
        b = 1.0 + m * one_minus_r2
        terms.append(
            comb(M - 1, m) * (-1.0) ** m * (M / (m + 1.0))
            * -expm1(-gamma_o * (m + 1.0) / (gamma_rd * b))
        )
    # the sum is a probability; clip float cancellation noise at the edges
    return min(max(fsum(terms), 0.0), 1.0)


def outage_df(p):
    """End-to-end outage probability of DF best-relay selection."""
    decode = math.exp(-p.gamma_o / p.gamma_sr)
    # expm1, not 1 - decode: the miss probability keeps its relative
    # precision in the high-SNR tail, where the outage is miss-dominated
    miss = -expm1(-p.gamma_o / p.gamma_sr)
    total = miss ** p.K  # empty decoding subset always fails
    for M in range(1, p.K + 1):
        weight = comb(p.K, M) * decode ** M * miss ** (p.K - M)
        total += weight * conditional_outage_df(M, p.gamma_rd, p.rho, p.gamma_o)
    return min(max(total, 0.0), 1.0)


def outage_af(p):
    """End-to-end outage probability of AF best-relay selection."""
    ge = p.gamma_e
    if p.rho == 1.0:
        return (-expm1(-p.gamma_o / ge)) ** p.K
    r2 = p.rho * p.rho
    terms = []
    for k in range(1, p.K + 1):
        a = k * (1.0 - r2) + r2
        terms.append(comb(p.K, k) * (-1.0) ** k * expm1(-k * p.gamma_o / (a * ge)))
    return min(max(fsum(terms), 0.0), 1.0)


def mgf_single(s, gamma_avg):
    """MGF E[exp(-s g)] of one exponential SNR with mean gamma_avg."""
    return 1.0 / (1.0 + s * gamma_avg)


def mgf_df_best(s, M, gamma_rd, rho):
    """MGF of the actual SNR of the metric-selected relay, M participants."""
    if M < 1:
        raise ValueError("need at least one participant")
    one_minus_r2 = 1.0 - rho * rho
    terms = []
    for m in range(M):
        b = 1.0 + m * one_minus_r2
        terms.append(comb(M - 1, m) * (-1.0) ** m * M / (m + 1.0 + s * gamma_rd * b))
    return fsum(terms)


def mgf_df_best_deriv(s, M, gamma_rd, rho):
    """d/ds of mgf_df_best; -deriv(0) is the selected relay's mean SNR."""
    if M < 1:
        raise ValueError("need at least one participant")
    one_minus_r2 = 1.0 - rho * rho
    terms = []
    for m in range(M):
        b = 1.0 + m * one_minus_r2
        gb = gamma_rd * b
        terms.append(comb(M - 1, m) * (-1.0) ** (m + 1) * M * gb / (m + 1.0 + s * gb) ** 2)
    return fsum(terms)


def _mgf_af_deriv(s, p):
    ge = p.gamma_e
    r2 = p.rho * p.rho
    terms = []
    for k in range(1, p.K + 1):
        a = k * (1.0 - r2) + r2
        age = a * ge
        terms.append(comb(p.K, k) * (-1.0) ** k * k * age / (k + s * age) ** 2)
    return fsum(terms)


def capacity_df(p):
    """Ergodic capacity of DF selection, bits/s/Hz.

    Includes the 1/(2 ln 2) half-duplex factor; an empty decoding
    subset contributes zero rate.  See the module docstring for the
    quadrature convergence behaviour at large mean SNR.
    """
    rule = _default_rule()
    decode = math.exp(-p.gamma_o / p.gamma_sr)
    miss = 1.0 - decode
    kernel = [phi(s) for s in rule.nodes]
    total = 0.0
    for M in range(1, p.K + 1):
        weight = comb(p.K, M) * decode ** M * miss ** (p.K - M)
        if weight == 0.0:
            continue
        inner = fsum(
            w * k * mgf_df_best_deriv(s, M, p.gamma_rd, p.rho)
            for s, w, k in zip(rule.nodes, rule.weights, kernel)
        )
        total += weight * inner
    return total / (2.0 * LN2)


def capacity_af(p, half_duplex=False):
    """Ergodic capacity of AF selection, bits/s/Hz.

    Evaluated without a rate pre-log by default; pass half_duplex=True
    to apply the 1/2 two-phase penalty.  The DF expression carries the
    factor built in and this one does not; the asymmetry between the
    two reference forms is deliberate and surfaced as a flag rather
    than silently reconciled.
    """
    rule = _default_rule()
    total = fsum(
        w * phi(s) * _mgf_af_deriv(s, p)
        for s, w in zip(rule.nodes, rule.weights)
    )
    total /= LN2
    return 0.5 * total if half_duplex else total


def capacity_exponential_exact(gamma_avg):
    """Exact capacity of a single exponential-SNR link, bits/s/Hz."""
    if gamma_avg <= 0:
        raise ValueError("mean SNR must be positive")
    return math.exp(1.0 / gamma_avg) * exp_integral_e1(1.0 / gamma_avg) / LN2


def capacity_exponential_check(gamma_avg):
    """Single-link capacity via the quadrature rule in the SNR domain.

    Applies the rule directly to int_0^inf log2(1+g) exp(-g/ga)/ga dg,
    whose integrand is smooth on the half line, so this doubles as an
    accuracy check of the rule itself against
    ``capacity_exponential_exact``.
    """
    if gamma_avg <= 0:
        raise ValueError("mean SNR must be positive")
    rule = _default_rule()
    return fsum(
        w * math.log1p(s) / LN2 * math.exp(-s / gamma_avg) / gamma_avg
        for s, w in zip(rule.nodes, rule.weights)
    )
