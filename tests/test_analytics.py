"""Closed forms against algebraic collapses, quadrature and MC oracles."""

import math
from math import comb, expm1, fsum

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from prsim.analytics import (
    SelectionParams,
    _law,
    _outage,
    capacity_af,
    capacity_df,
    capacity_exponential_check,
    capacity_exponential_exact,
    outage_af,
    outage_df,
)
from prsim.numerics import gauss_chebyshev
from prsim.rng import stream

from pair_oracle import complex_pair


# --- conditional SNR density -------------------------------------------------

def conditional_snr_pdf(snr, snr_metric, snr_avg, rho):
    """Density of the actual SNR given the metric SNR of the same link.

    Both SNRs are exponential with mean snr_avg and their underlying
    complex gains have correlation rho < 1.  The scaled Bessel function
    keeps the product finite for any argument (the combined exponent
    -(sqrt(g) - rho sqrt(gm))^2 / (snr_avg (1-rho^2)) is never positive).
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
    return math.exp(shifted) * float(special.i0e(bessel_arg)) / denom


def test_conditional_pdf_rho_zero_is_exponential():
    for g in (0.0, 0.3, 2.0, 11.0):
        want = math.exp(-g / 1.7) / 1.7
        assert abs(conditional_snr_pdf(g, 5.0, 1.7, 0.0) - want) <= 1e-15


def test_conditional_pdf_normalizes():
    val, _ = integrate.quad(
        lambda g: conditional_snr_pdf(g, 2.0, 1.0, 0.9), 0, np.inf, limit=300
    )
    assert abs(val - 1.0) <= 1e-6


def test_conditional_pdf_domain():
    with pytest.raises(ValueError):
        conditional_snr_pdf(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        conditional_snr_pdf(-1.0, 1.0, 1.0, 0.5)


def test_conditional_pdf_matches_conditional_sampling():
    # sample the actual gain conditioned on a fixed metric SNR and
    # chi-square the histogram against the density
    rho = 0.6425
    snr_metric = 2.0
    rng = stream(42)
    n = 200_000
    phase = rng.uniform(0, 2 * np.pi, n)
    h_met = math.sqrt(snr_metric) * np.exp(1j * phase)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    h_act = rho * h_met + math.sqrt(1 - rho * rho) * w
    g_act = np.abs(h_act) ** 2

    edges = np.linspace(0.0, 12.0, 41)
    counts, _ = np.histogram(g_act, bins=edges)
    counts = np.append(counts, n - counts.sum())  # tail bin
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, _ = integrate.quad(lambda g: conditional_snr_pdf(g, snr_metric, 1.0, rho), lo, hi)
        probs.append(v)
    probs.append(1.0 - fsum(probs))
    res = stats.chisquare(counts, np.asarray(probs) * n)
    assert res.pvalue > 0.01


# --- decoding subset ---------------------------------------------------------

def test_prob_ds_size_completeness():
    # the decoding subset's size law now lives in the one law's weights:
    # they carry the chance that some relay decodes, and the rest,
    # (1 - p)^K, is the atom at zero SNR where the subset is empty
    for K in (1, 2, 8, 16):
        for p in (0.0, 0.05, 0.5, 0.97, 1.0):
            total = fsum(w for w, _ in _law(K, p, 7.0, 0.6))
            assert abs(total - (1.0 - (1.0 - p) ** K)) <= 1e-12, (K, p)


def test_prob_ds_size_high_snr_limit():
    # high SNR: almost every relay decodes, so the atom vanishes
    p = math.exp(-3.0 / 1e9)
    assert fsum(w for w, _ in _law(8, p, 7.0, 0.6)) > 0.99999


def test_prob_ds_size_matches_mc():
    # the atom is the rate of an empty decoding subset
    rng = stream(7)
    n = 1_000_000
    empty = np.mean((rng.exponential(10.0, size=(n, 8)) < 3.0).all(axis=1))
    atom = 1.0 - fsum(w for w, _ in _law(8, math.exp(-0.3), 7.0, 0.6))
    assert abs(empty - atom) <= 3 * math.sqrt(atom * (1 - atom) / n)


def nested_df_reference(K, p, gamma, rho, gamma_o):
    """DF outage and capacity as the average over the decoding subset's
    size M ~ Binomial(K, p) of the best-of-M decoders' law, which the
    one K-term law replaced; mpmath at the working precision."""
    one_minus_r2 = 1 - rho * rho
    outage, capacity = (1 - p) ** K, mpmath.mpf(0)
    for M in range(1, K + 1):
        weight = mpmath.binomial(K, M) * p ** M * (1 - p) ** (K - M)
        law = [(mpmath.binomial(M - 1, m) * (-1) ** m * M / (m + 1),
                gamma * (1 + m * one_minus_r2) / (m + 1)) for m in range(M)]
        outage += weight * mpmath.fsum(
            w * -mpmath.expm1(-gamma_o / mu) for w, mu in law)
        capacity += weight * mpmath.fsum(
            w * mpmath.exp(1 / mu) * mpmath.e1(1 / mu) for w, mu in law)
    return outage, capacity / (2 * mpmath.log(2))


def test_one_law_equals_the_decoding_subset_average():
    # sum_M Binom(K, M, p) C(M-1, k-1) M/k = C(K, k) p^k: thinning each
    # relay by p gives the nested average's law, to 60 digits
    with mpmath.workdps(60):
        go = mpmath.mpf(3)
        for K in (1, 2, 8, 16):
            for rho in ("0", "0.5", "0.9", "0.99"):
                rho = mpmath.mpf(rho)
                for hop in (mpmath.mpf(5), mpmath.mpf(50)):
                    p = mpmath.exp(-go / hop)
                    law = _law(K, p, hop, rho)
                    outage = (1 - p) ** K + mpmath.fsum(
                        w * -mpmath.expm1(-go / mu) for w, mu in law)
                    capacity = mpmath.fsum(
                        w * mpmath.exp(1 / mu) * mpmath.e1(1 / mu)
                        for w, mu in law) / (2 * mpmath.log(2))
                    want = nested_df_reference(K, p, hop, rho, go)
                    for got, ref in zip((outage, capacity), want):
                        assert abs(got - ref) <= 1e-40 * abs(ref), (K, rho, hop)


# --- DF outage ---------------------------------------------------------------

def test_outage_df_k1_collapse():
    for rho in (0.0, 0.3, 0.7, 1.0):
        got = outage_df(SelectionParams(K=1, gamma_sr=4.0, gamma_rd=6.0, rho=rho, gamma_o=3.0))
        want = 1.0 - math.exp(-3.0 / 4.0) * math.exp(-3.0 / 6.0)
        assert abs(got - want) <= 1e-14


def test_outage_df_rho_zero_no_selection_gain():
    # uncorrelated metric: selected hop is a plain exponential draw
    K, gsr, grd, go = 8, 5.0, 5.0, 3.0
    for M in range(1, K + 1):
        got = _outage(M, 0.0, grd, 0.0, go)
        want = -expm1(-go / grd)
        assert abs(got - want) <= 1e-12
    p = math.exp(-go / gsr)
    want_total = (1 - p) ** K + (1 - (1 - p) ** K) * -expm1(-go / grd)
    got_total = outage_df(SelectionParams(K=K, gamma_sr=gsr, gamma_rd=grd, rho=0.0, gamma_o=go))
    assert abs(got_total - want_total) <= 1e-12


def test_conditional_outage_rho_one_binomial_identity():
    # brute-force alternating sum (the rho<1 form evaluated at rho=1)
    # against the order-statistic binomial power
    go, grd = 1.5, 3.0
    for M in range(1, 13):
        alternating = fsum(
            comb(M - 1, m) * (-1.0) ** m * (M / (m + 1.0))
            * -expm1(-go * (m + 1.0) / grd)
            for m in range(M)
        )
        binomial = (-expm1(-go / grd)) ** M
        assert abs(alternating - binomial) <= 1e-10
        assert abs(_outage(M, 0.0, grd, 1.0, go) - binomial) <= 1e-15


def test_outage_df_matches_mc():
    # synthetic-rho MC of the full scheme at one operating point
    K, rho, snr_db = 8, 0.6425, 14.0
    gee = 10 ** (snr_db / 10)
    gsr = grd = 0.5 * gee
    rng = stream(1234)
    n = 400_000
    g_sr = rng.exponential(gsr, size=(n, K))
    met, act = complex_pair(rng, rho, (n, K))
    g_met = grd * np.abs(met) ** 2
    g_act = grd * np.abs(act) ** 2
    ds = g_sr >= 3.0
    masked = np.where(ds, g_met, -1.0)
    sel = np.argmax(masked, axis=1)
    any_ds = ds.any(axis=1)
    out = np.where(any_ds, g_act[np.arange(n), sel] < 3.0, True)
    phat = out.mean()
    want = outage_df(SelectionParams(K=K, gamma_sr=gsr, gamma_rd=grd, rho=rho, gamma_o=3.0))
    se = math.sqrt(want * (1 - want) / n)
    assert abs(phat - want) <= 3 * se


# --- AF outage ---------------------------------------------------------------

def test_outage_af_k1_and_rho_limits():
    base = dict(gamma_sr=8.0, gamma_rd=8.0, gamma_o=3.0)
    ge = 4.0
    for rho in (0.0, 0.5, 1.0):
        got = outage_af(SelectionParams(K=1, rho=rho, **base))
        assert abs(got - -expm1(-3.0 / ge)) <= 1e-14
    got = outage_af(SelectionParams(K=6, rho=0.0, **base))
    assert abs(got - -expm1(-3.0 / ge)) <= 1e-12
    got = outage_af(SelectionParams(K=6, rho=1.0, **base))
    assert abs(got - (-expm1(-3.0 / ge)) ** 6) <= 1e-14


def test_outage_af_matches_mc():
    K, rho, snr_db = 8, 0.95, 12.0
    gee = 10 ** (snr_db / 10)
    ge = 0.25 * gee  # gamma_e of two equal hops at 0.5*gee each
    rng = stream(99)
    n = 400_000
    met, act = complex_pair(rng, rho, (n, K))
    g_met = ge * np.abs(met) ** 2
    g_act = ge * np.abs(act) ** 2
    sel = np.argmax(g_met, axis=1)
    phat = np.mean(g_act[np.arange(n), sel] < 3.0)
    want = outage_af(SelectionParams(K=K, gamma_sr=0.5 * gee, gamma_rd=0.5 * gee, rho=rho, gamma_o=3.0))
    se = math.sqrt(want * (1 - want) / n)
    assert abs(phat - want) <= 3 * se


# --- selected-SNR mixture law -------------------------------------------------

def test_mgf_normalization_and_single():
    for M in (1, 3, 8):
        for rho in (0.0, 0.6, 0.95):
            assert abs(fsum(w for w, _ in _law(M, 1.0, 7.0, rho)) - 1.0) <= 1e-12
    assert _law(1, 1.0, 7.0, 0.8) == [(1.0, 7.0)]


def test_mgf_first_moment_vs_mc():
    M, rho, grd = 4, 0.8, 5.0
    rng = stream(21)
    n = 1_000_000
    met, act = complex_pair(rng, rho, (n, M))
    g_met = grd * np.abs(met) ** 2
    g_act = grd * np.abs(act) ** 2
    sel = np.argmax(g_met, axis=1)
    mc_mean = g_act[np.arange(n), sel].mean()
    want = fsum(w * mu for w, mu in _law(M, 1.0, grd, rho))
    assert abs(mc_mean - want) <= 0.01 * want


def test_mgf_selected_mean_limits():
    # rho=1, M=2: best of two exponentials has mean 1.5*gamma; rho=0: mean gamma
    assert abs(fsum(w * mu for w, mu in _law(2, 1.0, 3.0, 1.0)) - 4.5) <= 1e-12
    assert abs(fsum(w * mu for w, mu in _law(5, 1.0, 3.0, 0.0)) - 3.0) <= 1e-12


# --- capacity ----------------------------------------------------------------

def _mixture_capacity_oracle(terms):
    # 30-digit integral of log2(1 + g) against the density
    # sum_j w_j exp(-g/mu_j)/mu_j, split at every mean mu_j so each
    # piece of the half line is smooth on its own scale
    with mpmath.workdps(30):
        terms = [(mpmath.mpf(w), mpmath.mpf(mu)) for w, mu in terms]

        def integrand(g):
            return mpmath.log(1 + g, 2) * mpmath.fsum(
                w * mpmath.exp(-g / mu) / mu for w, mu in terms)

        points = [0] + sorted({mu for _, mu in terms}) + [mpmath.inf]
        return float(mpmath.quad(integrand, points))


# a 200-node quadrature of the MGF form overshot by 0.08 and 1.03 b/s/Hz at
# K = 8, rho 0.9, 30 and 40 dB: the high-SNR inputs tell the two apart
CAPACITY_CASES = [(5.0, 0.9)] + [
    (0.5 * 10.0 ** (snr_db / 10.0), rho)
    for snr_db in (30.0, 40.0) for rho in (0.9, 1.0)]


def test_capacity_exponential_check_against_exact():
    for ga in (1.0, 10.0, 100.0):
        got = capacity_exponential_check(ga)
        want = capacity_exponential_exact(ga)
        assert abs(got - want) <= 1e-3


def test_capacity_exponential_exact_in_the_deep_tail():
    # below g = 1e-38 the asymptotic terms x^(k+1), x = 1/g, overflowed;
    # there exp(x) E1(x) = g - g^2 + ... is g to double precision
    for e in range(30, 301, 5):
        g = 10.0 ** -e
        got = capacity_exponential_exact(g)
        assert got == pytest.approx(g / math.log(2), rel=1e-12, abs=0)
    hop = 0.5 * 10.0 ** (-390.0 / 10.0)
    p = SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop, rho=0.9, gamma_o=3.0)
    assert 0.0 <= capacity_df(p) <= 1e-200


def test_capacity_exponential_exact_past_exp_overflow():
    # mixture terms reach mean SNRs below 1/709, where exp(1/g) overflows
    with mpmath.workdps(40):
        for x in (1.0, 699.0, 700.0, 700.5, 1000.0, 1e6):
            want = float(mpmath.exp(x) * mpmath.e1(x) / mpmath.log(2))
            assert capacity_exponential_exact(1.0 / x) == pytest.approx(want, rel=1e-14)
    hop = 0.5 * 10.0 ** (-20.0 / 10.0)
    p = SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop, rho=1.0, gamma_o=3.0)
    assert 0.0 <= capacity_df(p) <= 1e-200
    best_of_8 = [(comb(8, k) * (-1) ** (k + 1), p.gamma_e / k) for k in range(1, 9)]
    want = 0.5 * _mixture_capacity_oracle(best_of_8)
    assert capacity_af(p) == pytest.approx(want, rel=1e-9)


def test_capacity_df_vanishes_without_decoders():
    p = SelectionParams(K=4, gamma_sr=1e-6, gamma_rd=10.0, rho=0.9, gamma_o=3.0)
    assert capacity_df(p) <= 1e-9


def test_capacity_df_k1_exponential_link():
    p = SelectionParams(K=1, gamma_sr=6.0, gamma_rd=5.0, rho=0.7, gamma_o=3.0)
    want = 0.5 * math.exp(-3.0 / 6.0) * capacity_exponential_exact(5.0)
    assert abs(capacity_df(p) - want) <= 1e-3


def test_capacity_af_k1_exponential_link():
    p = SelectionParams(K=1, gamma_sr=10.0, gamma_rd=10.0, rho=0.5, gamma_o=3.0)
    want = 0.5 * capacity_exponential_exact(p.gamma_e)
    assert abs(capacity_af(p) - want) <= 1e-3


def test_capacity_af_rho_one_order_statistic():
    p = SelectionParams(K=4, gamma_sr=4.0, gamma_rd=4.0, rho=1.0, gamma_o=3.0)
    ge = p.gamma_e

    def best_of_4_pdf(g):
        return 4.0 * (-expm1(-g / ge)) ** 3 * math.exp(-g / ge) / ge

    want, _ = integrate.quad(lambda g: math.log1p(g) / math.log(2) * best_of_4_pdf(g), 0, np.inf)
    assert abs(capacity_af(p) - 0.5 * want) <= 1e-3


def test_capacity_df_consistent_with_direct_integration():
    # exact mixture sum vs direct integration of the selected relay's
    # conditional density, composed over decoding-subset sizes
    for hop, rho in CAPACITY_CASES:
        p = SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop, rho=rho, gamma_o=3.0)
        decode = math.exp(-p.gamma_o / p.gamma_sr)
        miss = -expm1(-p.gamma_o / p.gamma_sr)
        one_minus_r2 = 1.0 - p.rho * p.rho
        total = 0.0
        for M in range(1, 9):
            weight = comb(8, M) * decode ** M * miss ** (8 - M)
            density = [
                (comb(M - 1, m) * (-1) ** m * M / (m + 1),
                 p.gamma_rd * (1 + m * one_minus_r2) / (m + 1))
                for m in range(M)
            ]
            total += weight * _mixture_capacity_oracle(density)
        want = 0.5 * total
        assert abs(capacity_df(p) - want) <= 1e-9, (hop, rho)


def test_capacity_af_consistent_with_direct_integration():
    for hop, rho in CAPACITY_CASES:
        p = SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop, rho=rho, gamma_o=3.0)
        r2 = p.rho * p.rho
        density = [
            (comb(8, k) * (-1) ** (k + 1), (k * (1 - r2) + r2) * p.gamma_e / k)
            for k in range(1, 9)
        ]
        want = 0.5 * _mixture_capacity_oracle(density)
        assert abs(capacity_af(p) - want) <= 1e-9, (hop, rho)


def test_capacity_df_matches_mc_mean_rate():
    K, rho, snr_db = 8, 0.95, 20.0
    gee = 10 ** (snr_db / 10)
    gsr = grd = 0.5 * gee
    rng = stream(31)
    n = 400_000
    g_sr = rng.exponential(gsr, size=(n, K))
    met, act = complex_pair(rng, rho, (n, K))
    g_met = grd * np.abs(met) ** 2
    g_act = grd * np.abs(act) ** 2
    ds = g_sr >= 3.0
    masked = np.where(ds, g_met, -1.0)
    sel = np.argmax(masked, axis=1)
    any_ds = ds.any(axis=1)
    rate = np.where(any_ds, 0.5 * np.log2(1.0 + g_act[np.arange(n), sel]), 0.0)
    want = capacity_df(SelectionParams(K=K, gamma_sr=gsr, gamma_rd=grd, rho=rho, gamma_o=3.0))
    assert abs(rate.mean() - want) <= 0.02 * want


# --- shape and safety invariants --------------------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["gamma_sr", "gamma_rd", "gamma_o"])
def test_non_finite_snrs_and_threshold_are_refused(field, value):
    # nan passed every `<= 0` check and came back as a nan probability
    base = dict(K=4, gamma_sr=5.0, gamma_rd=5.0, rho=0.5, gamma_o=3.0)
    with pytest.raises(ValueError):
        SelectionParams(**{**base, field: value})
    with pytest.raises(ValueError):
        capacity_exponential_exact(value)


def test_relay_count_past_the_float_weights_is_refused():
    # C(2000, 1000) has 600 digits: no float holds the weight
    p = SelectionParams(K=2000, gamma_sr=5.0, gamma_rd=5.0, rho=0.9,
                        gamma_o=3.0)
    for law in (outage_df, outage_af, capacity_df, capacity_af):
        with pytest.raises(ValueError, match="K = 2000"):
            law(p)


def test_outage_monotone_in_mean_snr_and_rho_and_k():
    snrs = np.linspace(1.0, 300.0, 40)
    for rho in (0.0, 0.5, 0.95, 1.0):
        df = [outage_df(SelectionParams(K=4, gamma_sr=g, gamma_rd=g, rho=rho, gamma_o=3.0)) for g in snrs]
        af = [outage_af(SelectionParams(K=4, gamma_sr=g, gamma_rd=g, rho=rho, gamma_o=3.0)) for g in snrs]
        assert all(a >= b - 1e-12 for a, b in zip(df, df[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(af, af[1:]))
    rhos = np.linspace(0.0, 1.0, 21)
    df = [outage_df(SelectionParams(K=4, gamma_sr=20.0, gamma_rd=20.0, rho=r, gamma_o=3.0)) for r in rhos]
    af = [outage_af(SelectionParams(K=4, gamma_sr=20.0, gamma_rd=20.0, rho=r, gamma_o=3.0)) for r in rhos]
    assert all(a >= b - 1e-12 for a, b in zip(df, df[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(af, af[1:]))
    for K in range(1, 8):
        a = outage_af(SelectionParams(K=K, gamma_sr=20.0, gamma_rd=20.0, rho=0.9, gamma_o=3.0))
        b = outage_af(SelectionParams(K=K + 1, gamma_sr=20.0, gamma_rd=20.0, rho=0.9, gamma_o=3.0))
        assert a >= b - 1e-12
        a = outage_df(SelectionParams(K=K, gamma_sr=20.0, gamma_rd=20.0, rho=0.9, gamma_o=3.0))
        b = outage_df(SelectionParams(K=K + 1, gamma_sr=20.0, gamma_rd=20.0, rho=0.9, gamma_o=3.0))
        assert a >= b - 1e-12


def test_outage_probability_range_random_grid():
    rng = stream(5150)
    for _ in range(10_000):
        K = int(rng.integers(1, 13))
        gsr = float(rng.uniform(0.05, 2000.0))
        grd = float(rng.uniform(0.05, 2000.0))
        rho = float(rng.uniform(0.0, 1.0))
        if rng.uniform() < 0.1:
            rho = 1.0 - 10.0 ** float(rng.uniform(-12, -2))  # stress near-perfect metrics
        go = float(rng.uniform(0.1, 20.0))
        a = outage_df(SelectionParams(K=K, gamma_sr=gsr, gamma_rd=grd, rho=rho, gamma_o=go))
        b = outage_af(SelectionParams(K=K, gamma_sr=gsr, gamma_rd=grd, rho=rho, gamma_o=go))
        assert 0.0 <= a <= 1.0
        assert 0.0 <= b <= 1.0


def test_outage_df_diversity_order():
    # with a perfect metric the curve is (1 - e^{-c/snr})^K exactly; the
    # log-log slope approaches -K from above as the SNR grows.  In the
    # 1e-4..1e-8 outage window the binomial curvature still biases the
    # fitted slope to about -7.2 for K=8 (that value is frozen below);
    # the asymptotic slope is reached deeper down the tail.
    snrs = np.linspace(5, 60, 560)
    gee = 10 ** (snrs / 10)
    po = np.array([
        outage_df(SelectionParams(K=8, gamma_sr=g / 2, gamma_rd=g / 2, rho=1.0, gamma_o=3.0))
        for g in gee
    ])
    mid = (po > 1e-8) & (po < 1e-4)
    slope_mid = np.polyfit(np.log10(gee[mid]), np.log10(po[mid]), 1)[0]
    assert abs(slope_mid - (-7.19)) <= 0.05
    deep = (po > 1e-16) & (po < 1e-12)
    slope_deep = np.polyfit(np.log10(gee[deep]), np.log10(po[deep]), 1)[0]
    assert abs(slope_deep - (-8.0)) <= 0.3
    assert slope_deep < slope_mid  # approaching the diversity order monotonically
