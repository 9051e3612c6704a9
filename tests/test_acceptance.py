"""Acceptance targets for the toolkit, one test per target.

Each test pins one externally stated requirement: special-function
anchors, the complexity bookkeeping, quadrature accuracy, agreement
between the Monte-Carlo estimator and the closed forms, predictor
quality gates, gradient correctness, and the relay-count crossover
against direct transmission.  Tolerances are written into the asserts
rather than shared constants so every line reads as its own contract.

Monte-Carlo agreement is measured in standard-error units.  The error
bar at a grid point is max(binomial SE of the estimate, sqrt(p(1-p)/n)
at the analytic p): the floor keeps zero-count points at deep outage
from producing a zero-width bar.

Criterion 7 checks diversity order as the high-SNR limit of the DF
outage curve itself and keeps the operational outage window as a band.
"""

import math

import numpy as np

from prsim.analytics import (
    SelectionParams,
    capacity_af,
    capacity_df,
    capacity_exponential_check,
    capacity_exponential_exact,
    outage_af,
    outage_df,
)
from prsim.channel import FadingProcessConfig, generate_series
from prsim.numerics import bessel_j0, exp_integral_e1
from prsim.predictor import (
    HIGH_ACCURACY_TRAIN,
    LayerSpec,
    RecurrentNet,
    flops_per_step,
    predict_series,
    train_link_predictor,
)
from prsim.rng import stream
from prsim.selection import RateConfig
from prsim.simulator import estimate

GAMMA_O = RateConfig(1.0).gamma_o  # half-duplex threshold at rate 1
RHO_OUTDATED = bessel_j0(2.0 * math.pi * 100.0 * 0.003)  # 100 Hz, 3 ms


def eight_link_series(seed, length):
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0,
                              seed=seed)
    return np.column_stack([generate_series(cfg, length, link=k)
                            for k in range(8)])


def df_params(snr_db, rho, relays=8):
    total = 10.0 ** (snr_db / 10.0)
    return SelectionParams(K=relays, gamma_sr=0.5 * total,
                           gamma_rd=0.5 * total, rho=rho, gamma_o=GAMMA_O)


def af_params(snr_db, rho, relays=8):
    total = 10.0 ** (snr_db / 10.0)
    return SelectionParams(K=relays, gamma_sr=0.5 * total,
                           gamma_rd=0.5 * total, rho=rho, gamma_o=GAMMA_O)


def within_three_se(point, exact):
    floor = math.sqrt(exact * (1.0 - exact) / point.trials)
    band = 3.0 * max(point.std_error, floor)
    return abs(point.outage_prob - exact) <= band


def test_criterion_01_special_function_anchors():
    assert abs(bessel_j0(0.4 * math.pi) - 0.6425) <= 5e-4
    assert abs(bessel_j0(0.6 * math.pi) - 0.2906) <= 5e-4
    assert abs(exp_integral_e1(1.0) - 0.21938) <= 1e-5


def test_criterion_02_predictor_cost_accounting():
    per_step = flops_per_step(40, (25, 25), 8, "lstm")
    assert isinstance(per_step, int)
    assert per_step == 25_400
    assert per_step * 1000 == 25_400_000  # 25.4 MFLOPS at 1 kHz
    assert flops_per_step(25, (25, 25), 25, "lstm") == 22_500  # 4(1+4L)n^2


def test_criterion_03_quadrature_capacity_accuracy():
    for gamma_avg in (1.0, 10.0, 100.0):
        exact = capacity_exponential_exact(gamma_avg)
        quad = capacity_exponential_check(gamma_avg)
        assert abs(quad - exact) <= 1e-3, (
            f"quadrature off by {abs(quad - exact):.2e} bits at "
            f"mean SNR {gamma_avg}")


def test_criterion_04_df_outage_matches_closed_form():
    grid = np.arange(0.0, 31.0, 2.0)
    misses = []
    total = 0
    for j, rho in enumerate((0.2906, 0.6425, 0.95, 1.0)):
        points = estimate(["df"], grid, 1_000_000, num_relays=8, rho=rho,
                          seed=4000 + j)[0]
        for snr_db, point in zip(grid, points):
            exact = outage_df(df_params(snr_db, rho))
            total += 1
            if not within_three_se(point, exact):
                misses.append((rho, snr_db, point.outage_prob, exact))
    assert len(misses) <= 0.05 * total, (
        f"{len(misses)}/{total} grid points beyond 3 SE: {misses}")


def test_criterion_05_af_outage_matches_closed_form():
    grid = np.arange(0.0, 31.0, 2.0)
    misses = []
    total = 0
    for j, rho in enumerate((0.2906, 0.6425, 0.95, 1.0)):
        points = estimate(["af"], grid, 1_000_000, num_relays=8, rho=rho,
                          seed=5000 + j)[0]
        for snr_db, point in zip(grid, points):
            exact = outage_af(af_params(snr_db, rho))
            total += 1
            if not within_three_se(point, exact):
                misses.append((rho, snr_db, point.outage_prob, exact))
    assert len(misses) <= 0.05 * total, (
        f"{len(misses)}/{total} grid points beyond 3 SE: {misses}")
    # limiting forms: one relay, or a selection metric carrying no
    # information, reduce to a plain exponential tail; full correlation
    # reduces to the best of K independent end-to-end links
    for snr_db in (6.0, 14.0, 22.0):
        single = af_params(snr_db, 0.6425, relays=1)
        plain = -math.expm1(-GAMMA_O / single.gamma_e)
        assert math.isclose(outage_af(single), plain, rel_tol=1e-12)
        blind = af_params(snr_db, 0.0)
        assert math.isclose(outage_af(blind), plain, rel_tol=1e-12)
        ideal = af_params(snr_db, 1.0)
        assert math.isclose(outage_af(ideal), plain ** ideal.K,
                            rel_tol=1e-12)


def test_criterion_06_capacity_closed_forms_match_simulation():
    for snr_db in (10.0, 20.0):
        for rho in (0.95, 1.0):
            mc_df = estimate(["df"], [snr_db], 1_000_000, num_relays=8,
                             rho=rho, seed=61)[0][0]
            exact_df = capacity_df(df_params(snr_db, rho))
            assert math.isclose(mc_df.mean_rate, exact_df, rel_tol=0.02), (
                f"df capacity at {snr_db} dB rho={rho}: "
                f"mc {mc_df.mean_rate:.4f} vs exact {exact_df:.4f}")
            mc_af = estimate(["af"], [snr_db], 1_000_000, num_relays=8,
                             rho=rho, seed=62)[0][0]
            exact_af = capacity_af(af_params(snr_db, rho))
            assert math.isclose(mc_af.mean_rate, exact_af, rel_tol=0.02), (
                f"af capacity at {snr_db} dB rho={rho}: "
                f"mc {mc_af.mean_rate:.4f} vs exact {exact_af:.4f}")
    # absolute anchor for the selection-aided decode-and-forward rate
    assert 3.15 <= capacity_df(df_params(20.0, 0.95)) <= 3.85


def _stable_rho1_outage(gamma_bar, relays=8):
    # exact form of outage_df at rho=1 with equal hops: the decoding-
    # subset mixture of best-of-M relay hops collapses to the best of
    # `relays` links of mean gamma_bar/4, i.e. (1 - e^{-u})^K with
    # u = 4 gamma_o / gamma_bar
    return (-math.expm1(-4.0 * GAMMA_O / gamma_bar)) ** relays


def _snr_db_at(target, fn):
    lo, hi = 0.0, 120.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(10.0 ** (mid / 10.0)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fitted_slope(outage_lo, outage_hi, fn, points=25):
    low_db = _snr_db_at(outage_hi, fn)
    high_db = _snr_db_at(outage_lo, fn)
    dbs = np.linspace(low_db, high_db, points)
    logp = [math.log10(fn(10.0 ** (db / 10.0))) for db in dbs]
    return float(np.polyfit(dbs / 10.0, logp, 1)[0])


def test_criterion_07_full_correlation_diversity_slope():
    def closed_form(gamma_bar):
        return outage_df(SelectionParams(K=8, gamma_sr=0.5 * gamma_bar,
                                         gamma_rd=0.5 * gamma_bar, rho=1.0,
                                         gamma_o=GAMMA_O))

    # (a) the program's curve is the exact order-8 form at every SNR
    worst_db, worst = 0.0, 0.0
    for snr_db in np.arange(0.0, 150.25, 0.5):
        gamma_bar = 10.0 ** (snr_db / 10.0)
        exact = _stable_rho1_outage(gamma_bar)
        err = abs(closed_form(gamma_bar) - exact) / exact
        if err > worst:
            worst_db, worst = float(snr_db), err
    assert worst <= 1e-12, (
        f"outage_df at rho=1 departs from (1 - e^(-4 g_o/g))^8 by "
        f"{worst:.2e} relative at {worst_db:.1f} dB, need at most 1e-12")

    # (b) diversity order is the high-SNR limit -log P / log SNR: the fit
    # deep in the tail and the normalized outage P (g / 4 g_o)^8 -> 1
    limit_order = -_fitted_slope(1e-40, 1e-32, closed_form)
    assert abs(limit_order - 8.0) <= 0.05, (
        f"diversity order fitted over outage window [1e-40, 1e-32] is "
        f"{limit_order:.5f}, not within 8 +/- 0.05")
    residuals = []
    for snr_db in (40.0, 60.0, 80.0):
        gamma_bar = 10.0 ** (snr_db / 10.0)
        scale = (gamma_bar / (4.0 * GAMMA_O)) ** 8
        residuals.append(closed_form(gamma_bar) * scale - 1.0)
    shrinking = all(abs(b) < abs(a) for a, b in zip(residuals, residuals[1:]))
    assert shrinking and abs(residuals[-1]) <= 1e-6, (
        f"P_out (g/(4 g_o))^8 - 1 at 40/60/80 dB is "
        f"{residuals[0]:.3e}, {residuals[1]:.3e}, {residuals[2]:.3e}; "
        f"need magnitudes shrinking to at most 1e-6 at 80 dB")

    # (c) over the operational window a finite fit sits below 8: the
    # order-8 curve's local order 8u e^-u / (1 - e^-u) bounds it there
    def local_order(outage):
        u = -math.log1p(-outage ** 0.125)
        return 8.0 * u * math.exp(-u) / (-math.expm1(-u))

    band = (local_order(1e-4), local_order(1e-8))
    window_order = -_fitted_slope(1e-8, 1e-4, closed_form)
    assert band[0] <= window_order <= band[1], (
        f"diversity order fitted over outage window [1e-8, 1e-4] is "
        f"{window_order:.3f}, outside the order-8 band "
        f"[{band[0]:.3f}, {band[1]:.3f}] set by the local order at the "
        f"window's ends")


def test_criterion_08_default_training_beats_outdated_csi():
    train_series = eight_link_series(seed=101, length=5000)
    net, _ = train_link_predictor(train_series, horizon=3)
    eval_series = eight_link_series(seed=202, length=10_000)
    _, rho = predict_series(net, eval_series)
    assert rho >= 0.9, f"predicted-CSI correlation {rho:.4f} below 0.9"
    assert rho > 2.0 * RHO_OUTDATED


def test_criterion_09_predicted_selection_near_perfect():
    train_series = eight_link_series(seed=101, length=40_000)
    net, _ = train_link_predictor(train_series, horizon=3,
                                  recipe=HIGH_ACCURACY_TRAIN)
    eval_series = eight_link_series(seed=202, length=10_000)
    _, rho_hat = predict_series(net, eval_series)
    assert rho_hat >= 0.95, (
        f"long-budget training reached rho {rho_hat:.4f}, need 0.95")

    grid = np.arange(10.0, 31.0, 2.0)
    predicted = estimate(["df"], grid, 1_000_000, rho=rho_hat, seed=91)[0]
    paired = estimate(["ostc"], grid, 1_000_000, rho=RHO_OUTDATED, seed=92)[0]
    outdated = estimate(["df"], grid, 1_000_000, rho=RHO_OUTDATED, seed=93)[0]
    for snr_db, a, b, c in zip(grid, predicted, paired, outdated):
        assert a.outage_prob < b.outage_prob < c.outage_prob, (
            f"at {snr_db} dB: predicted {a.outage_prob:.3e}, "
            f"pair-coded {b.outage_prob:.3e}, outdated {c.outage_prob:.3e}")

    def snr_for(rho):
        return _snr_db_at(1e-3, lambda g: outage_df(
            SelectionParams(K=8, gamma_sr=0.5 * g, gamma_rd=0.5 * g,
                            rho=rho, gamma_o=GAMMA_O)))

    gap = snr_for(rho_hat) - snr_for(1.0)
    assert gap <= 1.0, (
        f"SNR gap to perfect selection at outage 1e-3 is {gap:.3f} dB "
        f"(rho {rho_hat:.4f}), need at most 1 dB")


def _worst_gradient_error(specs, seed):
    net = RecurrentNet(3, specs, 2, seed=seed)
    rng = stream(seed, 77)
    xs = rng.normal(size=(5, 3))
    targets = np.tanh(rng.normal(size=(5, 2)))
    _, grads, _ = net.loss_window(xs, targets)
    analytic = dict(net.grad_items(grads))
    eps = 1e-5
    worst = 0.0
    for name, arr in net.parameter_items():
        flat = arr.reshape(-1)
        idx = rng.permutation(flat.size)[:min(10, flat.size)]
        for k in idx:
            keep = flat[k]
            flat[k] = keep + eps
            up, _, _ = net.loss_window(xs, targets)
            flat[k] = keep - eps
            down, _, _ = net.loss_window(xs, targets)
            flat[k] = keep
            fd = (up - down) / (2.0 * eps)
            an = analytic[name].reshape(-1)[k]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


def test_criterion_10_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    kinds = ("rnn", "lstm", "gru")
    for _ in range(6):
        depth = int(rng.integers(1, 3))
        specs = tuple(LayerSpec(kinds[int(rng.integers(0, 3))],
                                int(rng.integers(2, 6)))
                      for _ in range(depth))
        seed = int(rng.integers(0, 1000))
        worst = _worst_gradient_error(specs, seed)
        assert worst <= 1e-4, (
            f"stack {specs} seed {seed}: worst relative gradient error "
            f"{worst:.2e}")


def test_criterion_11_relay_count_crossover_vs_direct():
    grid = np.arange(0.0, 31.0, 2.0)
    direct = estimate(["dt"], grid, 100_000, seed=111)[0]
    one = estimate(["df"], grid, 100_000, num_relays=1, rho=1.0, seed=112)[0]
    six = estimate(["df"], grid, 100_000, num_relays=6, rho=1.0, seed=113)[0]
    # a single half-duplex relay never beats using the frame directly
    for snr_db, d, r in zip(grid, direct, one):
        assert r.outage_prob > d.outage_prob, (
            f"one relay at {snr_db} dB: {r.outage_prob:.3e} vs direct "
            f"{d.outage_prob:.3e}")
    # six relays start worse (threshold penalty) and cross below
    assert six[0].outage_prob > direct[0].outage_prob
    assert six[-1].outage_prob < direct[-1].outage_prob
