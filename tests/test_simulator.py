import math

import numpy as np
import pytest
from scipy import stats

from prsim.analytics import SelectionParams, outage_af, outage_df
from prsim.analytics import capacity_exponential_exact
from prsim import simulator
from prsim.channel import (FadingProcessConfig, correlated_pair,
                           generate_series, jakes_correlation)
from prsim.rng import stream
from prsim.selection import RateConfig, decoding_subset, pick, select
from prsim.simulator import (
    ProtocolSettings,
    SeriesNetwork,
    SyntheticRhoNetwork,
    estimate,
    simulate_frames,
)

from pair_oracle import four_normal_estimate, impair_pair, pair_planes

RATE = RateConfig(1.0)
GO = RATE.gamma_o


def se_vs(exact, est):
    """Deviation in standard errors, floored by the analytic-p SE."""
    se = max(est.std_error, math.sqrt(exact * (1.0 - exact) / est.trials))
    return abs(est.outage_prob - exact) / se


def multilink_series(seed, length, links=8):
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=seed)
    return np.column_stack([generate_series(cfg, length, link=k) for k in range(links)])


# ------------------------------------------------------------------ timer


def test_timer_model():
    with pytest.raises(ValueError):
        ProtocolSettings(timer_max=0.0)
    with pytest.raises(ValueError):
        ProtocolSettings(uncertainty_window=-1.0)
    t = ProtocolSettings(timer_max=25.0)
    mags = np.array([0.0, 0.01, 0.1, 1.0, 10.0])
    d = t.duration(mags)
    assert d[0] == 25.0 and d[1] == 25.0  # capped
    assert np.allclose(d[2:], [10.0, 1.0, 0.1])
    assert np.all(np.diff(d) <= 0)  # stronger metric fires earlier


# ------------------------------------------------------------ impairments


def unit_pair(h):
    """pair_planes-style planes whose metric and actual are both h."""
    return np.stack([h.real, h.imag, h.real, h.imag])


def complex_planes(planes):
    """(metric, actual) complex arrays of pair_planes planes."""
    return planes[0::2] + 1j * planes[1::2]


def test_impairments_disabled_is_identity():
    h = stream(1).normal(size=8) + 1j * stream(2).normal(size=8)
    planes = unit_pair(h)
    impair_pair(planes, ProtocolSettings(), stream(3), np.empty(8))
    assert np.array_equal(complex_planes(planes), [h, h])
    assert not ProtocolSettings().impaired
    assert ProtocolSettings(pilot_snr_db=30.0).impaired


def test_pilot_noise_correlation():
    # estimate h + e with e at -30 dB: corr = 1/sqrt(1 + 1e-3)
    rng = stream(21)
    n = 1_000_000
    h = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
    planes = unit_pair(h)
    impair_pair(planes, ProtocolSettings(pilot_snr_db=30.0), rng, np.empty(n))
    est, actual = complex_planes(planes)
    assert np.array_equal(actual, h)  # pilot noise touches the metric only
    num = np.abs(np.mean(est * np.conj(h)))
    corr = num / (np.sqrt(np.mean(np.abs(est) ** 2)) * np.sqrt(np.mean(np.abs(h) ** 2)))
    assert abs(corr - 1.0 / math.sqrt(1.001)) < 3e-4
    assert corr >= 0.999


def test_pilot_noise_moments():
    # the estimation error alone, at variance 4: CN(0, 4)
    rng = stream(3)
    n = 200_000
    planes = np.zeros((4, n))
    impair_pair(planes, ProtocolSettings(pilot_snr_db=-10.0 * math.log10(4.0)),
                rng, np.empty(n))
    z = complex_planes(planes)[0]
    assert abs(z.mean()) < 0.02
    assert abs(np.mean(np.abs(z) ** 2) - 4.0) < 0.05
    # circular symmetry: pseudo-variance E[z^2] vanishes
    assert abs(np.mean(z ** 2)) < 0.05


def test_phase_error_snr_factor():
    # E[cos^2 theta] = 1/2 + sin(2 theta_max) / (4 theta_max)
    rng = stream(22)
    n = 1_000_000
    planes = unit_pair(np.ones(n, dtype=complex))
    impair_pair(planes, ProtocolSettings(max_phase_error_deg=5.0), rng,
                np.empty(n))
    metric, out = complex_planes(planes)
    assert np.array_equal(metric, np.ones(n))  # phase acts on the actual
    factor = float(np.mean(np.abs(out) ** 2))
    tm = math.radians(5.0)
    exact = 0.5 + math.sin(2.0 * tm) / (4.0 * tm)
    assert abs(factor - exact) < 3e-4
    assert factor >= 0.997


# ------------------------------------------------------------ frame level


def frame_block(net, n, snr_db):
    """Frames 1 .. n-1 of a network as actual hop SNRs and metrics."""
    hop = 0.5 * 10.0 ** (snr_db / 10.0)
    gain_sr, gain_rd, m_sr, m_rd = (a[1:] for a in net.frames(n))
    return gain_sr * hop, gain_rd * hop, m_sr, m_rd


def block_estimate(sel):
    """McEstimate of a `select` block, formed from its own fields."""
    n = sel.outage.size
    p = float(np.mean(sel.outage))
    return simulator.McEstimate(n, p, math.sqrt(p * (1.0 - p) / n),
                                float(np.mean(sel.rate)),
                                int(sel.collision.sum()) / n)


def test_synthetic_network_frames():
    net = SyntheticRhoNetwork(4, rho=0.8, seed=5)
    assert net.metric_lag == 1
    g_sr, g_rd, m_sr, m_rd = net.frames(3)
    assert all(a.shape == (3, 4) for a in (g_sr, g_rd, m_sr, m_rd))
    # the stream is read as both hops' Exp(1) metric SNRs, then the
    # actual gains given them; the metrics come out as magnitudes
    rng = stream(5, 41)
    metric = rng.standard_exponential((2, 3, 4))
    gain = correlated_pair(rng, 0.8, metric.shape, metric)
    assert np.array_equal(np.stack([g_sr, g_rd]), gain)
    assert np.array_equal(np.stack([m_sr, m_rd]), np.sqrt(metric))
    # the SNR pair's correlation is rho^2 over many frames
    _, g, _, m = SyntheticRhoNetwork(4, rho=0.8, seed=6).frames(4000)
    assert abs(np.corrcoef(np.ravel(m) ** 2, np.ravel(g))[0, 1] - 0.64) < 0.02


@pytest.mark.parametrize("relays,rho", [(8, 5.0), (8, -0.2), (8, math.nan),
                                        (0, 0.9)])
def test_synthetic_network_refuses_bad_inputs(relays, rho):
    # refused at construction, not at the first frames() call
    with pytest.raises(ValueError):
        SyntheticRhoNetwork(relays, rho)


def test_synthetic_network_replays_its_frames():
    # a network is a CSI source: every call hands out the same first
    # frames, so each scheme and grid point sees common random numbers
    net = SyntheticRhoNetwork(4, rho=0.8, seed=5)
    first = net.frames(50)
    again = net.frames(50)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_one_network_serves_every_grid_point():
    # a shared network gives each (scheme, SNR) point the frames a
    # fresh network of the same seed would give it
    shared = SyntheticRhoNetwork(8, rho=0.8, seed=3)
    for scheme in ("df", "af", "df-central"):
        for snr_db in (0.0, 10.0, 20.0):
            fresh = SyntheticRhoNetwork(8, rho=0.8, seed=3)
            assert (simulate_frames([scheme], shared, [snr_db], 500)
                    == simulate_frames([scheme], fresh, [snr_db], 500))


def grid_networks():
    """Factories of fresh networks of one kind each: synthetic pairs,
    an outdated record and a record under a small trained predictor."""
    from prsim.config import PredictorSettings
    from prsim.predictor import train_link_predictor

    sr, rd = multilink_series(41, 400, 4), multilink_series(42, 400, 4)
    recipe = PredictorSettings(neurons=4, tau=2, epochs=1, batch_size=16)
    net, _ = train_link_predictor(multilink_series(43, 300, 4), 3, recipe)
    return {"synthetic": lambda: SyntheticRhoNetwork(4, rho=0.8, seed=3),
            "outdated": lambda: SeriesNetwork(sr, rd, delay=3),
            "predicted": lambda: SeriesNetwork(sr, rd, 3, predictor=net)}


def test_grid_pass_equals_point_by_point_calls():
    # one call over the grid gives each point the estimate a call at
    # that point alone gives on a fresh network, and writes nothing
    # into the frames the next scheme reads; one call over every
    # scheme gives each scheme what a call of that scheme alone gives
    grid, n = [0.0, 6.0, 12.0, 30.0], 300
    schemes = ["df", "af", "df-central"]
    for kind, fresh in grid_networks().items():
        for policy in ("reselect", "terminate"):
            for window in (0.0, 0.01):
                protocol = ProtocolSettings(policy=policy,
                                            uncertainty_window=window)
                net = fresh()
                before = [a.tobytes() for a in net.frames(n)]
                shared = simulate_frames(schemes, net, grid, n,
                                         protocol=protocol)
                for scheme, got in zip(schemes, shared):
                    (ests,) = simulate_frames([scheme], net, grid, n,
                                              protocol=protocol)
                    assert got == ests == [
                        simulate_frames([scheme], fresh(), [snr_db], n,
                                        protocol=protocol)[0][0]
                        for snr_db in grid], (kind, policy, window, scheme)
                assert [a.tobytes() for a in net.frames(n)] == before


def test_networks_hand_out_read_only_arrays():
    # an in-place write into a record network's metrics raises instead
    # of corrupting what the next network riding the record reads; a
    # record that networks share stays writable for its owner
    networks = grid_networks()
    for kind in ("outdated", "predicted"):  # synthetic frames are fresh
        net = networks[kind]()
        for a in net.frames(10)[2:]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                np.minimum(a, 0.0, out=a)
        assert net.frames(10)[3][0, 0] != 0.0
    sr = multilink_series(41, 50, 2)
    SeriesNetwork(sr, sr, delay=3).frames(10)
    sr[0, 0] = 0.0


def test_causality_assert_trips():
    for scheme in ("df", "af", "df-central"):
        net = SyntheticRhoNetwork(4, rho=1.0, seed=1)
        net.metric_lag = 0  # forge a metric read at its own frame
        with pytest.raises(RuntimeError):
            simulate_frames([scheme], net, [10.0], 100)


def test_zero_window_never_collides():
    net = SyntheticRhoNetwork(8, rho=0.5, seed=7)
    ((est,),) = simulate_frames(["df"], net, [10.0], 3000)
    assert est.collision_rate == 0.0
    # so a zero window picks as no window does, field by field, capped
    # timers' ties included, and the frame protocol may skip the
    # runner-up search
    g_sr, _, _, m_rd = frame_block(net, 3000, 10.0)
    score = -ProtocolSettings(timer_max=1.0).duration(np.abs(m_rd))
    top_ties = np.sum(score == score.max(axis=1, keepdims=True), axis=1)
    # frames whose best timers all hit the cap and tie
    assert np.count_nonzero(top_ties > 1) > 20
    for eligible in (None, decoding_subset(g_sr, RATE)):
        zero = pick(score, eligible, window=0.0)
        off = pick(score, eligible)
        for a, b in zip(zero, off):
            assert (a is None and b is None) or np.array_equal(a, b)


def test_collision_rate_monotone_in_window():
    rates = []
    for delta in (0.0, 0.02, 0.2, 2.0):
        net = SyntheticRhoNetwork(8, rho=0.5, seed=8)
        protocol = ProtocolSettings(uncertainty_window=delta)
        ((est,),) = simulate_frames(["df"], net, [10.0], 3000,
                                    protocol=protocol)
        rates.append(est.collision_rate)
    assert rates[0] == 0.0
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.0


def test_df_winner_is_buffered_argmax_over_ds():
    timer = ProtocolSettings()
    g_sr, g_rd, _, m_rd = frame_block(
        SyntheticRhoNetwork(8, rho=0.7, seed=9), 400, 10.0)
    ds = decoding_subset(g_sr, RATE)
    sel = select(g_rd, -timer.duration(np.abs(m_rd)), RATE, ds,
                 timer.uncertainty_window)
    has = ds.any(axis=1)
    want = np.argmax(np.where(ds, np.abs(m_rd), -1.0), axis=1)
    assert np.array_equal(sel.chosen[has], want[has])
    assert np.all(sel.chosen[~has] == -1) and np.all(sel.outage[~has])
    assert simulate_frames(["df"], SyntheticRhoNetwork(8, rho=0.7, seed=9),
                           [10.0], 400) == [[block_estimate(sel)]]


def test_af_winner_is_min_metric_argmax():
    timer = ProtocolSettings()
    g_sr, g_rd, m_sr, m_rd = frame_block(
        SyntheticRhoNetwork(8, rho=0.7, seed=10), 400, 10.0)
    mags = np.minimum(np.abs(m_sr), np.abs(m_rd))
    sel = select(np.minimum(g_sr, g_rd), -timer.duration(mags), RATE,
                 window=timer.uncertainty_window)
    assert np.array_equal(sel.chosen, np.argmax(mags, axis=1))
    assert simulate_frames(["af"], SyntheticRhoNetwork(8, rho=0.7, seed=10),
                           [10.0], 400) == [[block_estimate(sel)]]


def test_df_frames_match_closed_form_at_perfect_foresight():
    net = SyntheticRhoNetwork(8, rho=1.0, seed=11)
    ((est,),) = simulate_frames(["df"], net, [10.0], 100_000)
    exact = outage_df(SelectionParams(8, 5.0, 5.0, 1.0, GO))
    assert se_vs(exact, est) <= 3.0


def test_af_frames_k1_matches_single_link_bound():
    # with one relay selection is moot; outage is P(min(sr, rd) < go)
    net = SyntheticRhoNetwork(1, rho=0.6, seed=12)
    ((est,),) = simulate_frames(["af"], net, [10.0], 100_000)
    gamma_e = 5.0 * 5.0 / (5.0 + 5.0)
    exact = 1.0 - math.exp(-GO / gamma_e)
    assert se_vs(exact, est) <= 3.0


def test_af_frames_perfect_buffers_match_closed_form():
    net = SyntheticRhoNetwork(8, rho=1.0, seed=13)
    ((est,),) = simulate_frames(["af"], net, [12.0], 100_000)
    hop = 0.5 * 10 ** 1.2
    exact = outage_af(SelectionParams(8, hop, hop, 1.0, GO))
    assert se_vs(exact, est) <= 3.0


def test_centralized_reselect_equals_distributed():
    # same seed, zero window: the timer race and the destination-side
    # argmax resolve to the same relay every frame
    net = SyntheticRhoNetwork(8, rho=0.8, seed=14)
    g_sr, g_rd, _, m_rd = frame_block(net, 2000, 10.0)
    ds = decoding_subset(g_sr, RATE)
    race = select(g_rd, -ProtocolSettings().duration(np.abs(m_rd)), RATE, ds, 0.0)
    ranked = select(g_rd, np.abs(m_rd), RATE, ds)
    assert np.array_equal(race.chosen, ranked.chosen)
    a, b = simulate_frames(["df", "df-central"], net, [10.0], 2000)
    assert a == b


def test_termination_never_beats_reselection():
    net = SyntheticRhoNetwork(8, rho=0.8, seed=15)
    terminate = ProtocolSettings(policy="terminate")
    (reselect,) = simulate_frames(["df-central"], net, [6.0, 10.0, 14.0],
                                  20_000)
    (ended,) = simulate_frames(["df-central"], net, [6.0, 10.0, 14.0],
                               20_000, protocol=terminate)
    for r, t in zip(reselect, ended):
        # the top-ranked relay often failed to decode at these SNRs
        assert t.outage_prob > r.outage_prob


class FourNormalNetwork:
    """The synthetic network before it drew the conditional law: every
    relay's (metric, actual) pair from four standard normals, handed out
    as the frame protocol reads it (SNR gains, metric magnitudes)."""

    metric_lag = 1

    def __init__(self, num_relays, rho, seed, n):
        metric_re, metric_im, re, im = pair_planes(stream(seed, 41), rho,
                                                   (2, n, num_relays))
        self._frames = (*(re * re + im * im), *np.hypot(metric_re, metric_im))

    def frames(self, n):
        return tuple(a[:n] for a in self._frames)


WINDOW = ProtocolSettings(uncertainty_window=0.05)
FRAME_RUNS = {"df": ("df", WINDOW), "af": ("af", WINDOW),
              "reselect": ("df-central", ProtocolSettings()),
              "terminate": ("df-central", ProtocolSettings(policy="terminate"))}


@pytest.mark.parametrize("K", [2, 8])
def test_conditional_network_matches_four_normal_network(K):
    # outage and collision rate of every frame run within 3 combined
    # standard errors, on independent seeds, at 2e5 frames
    n = 200_001
    for i, rho in enumerate((0.5, 0.9, 0.99)):
        new = SyntheticRhoNetwork(K, rho, seed=900 + 10 * K + i)
        old = FourNormalNetwork(K, rho, 950 + 10 * K + i, n)
        for name, (scheme, protocol) in FRAME_RUNS.items():
            a, b = (simulate_frames([scheme], net, [10.0], n,
                                    protocol=protocol)[0][0]
                    for net in (new, old))
            for p, q in ((a.outage_prob, b.outage_prob),
                         (a.collision_rate, b.collision_rate)):
                se = math.hypot(math.sqrt(p * (1 - p) / a.trials),
                                math.sqrt(q * (1 - q) / b.trials))
                assert abs(p - q) <= 3.0 * se, (K, rho, name, p, q)
        # Exp(1) gains and squared metrics, whose correlation is rho^2
        g_sr, g_rd, m_sr, m_rd = new.frames(n)
        for g in (g_sr, g_rd, m_sr ** 2, m_rd ** 2):
            assert stats.kstest(g.ravel()[::7], "expon").pvalue > 1e-3
        for g, m in ((g_sr, m_sr), (g_rd, m_rd)):
            r = np.corrcoef(m.ravel() ** 2, g.ravel())[0, 1]
            assert abs(r - rho * rho) < 0.005, (K, rho, r)


def test_frame_driver_validation():
    net = SyntheticRhoNetwork(2, rho=1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_frames(["df"], net, [10.0], 1)
    for schemes in ("df", [], ["df", "mrc"]):  # a list of known names
        with pytest.raises(ValueError):
            simulate_frames(schemes, net, [10.0], 100)
    with pytest.raises(ValueError, match="reselect or terminate"):
        ProtocolSettings(policy="retry")


@pytest.mark.parametrize("snr_db", [3500.0, -4000.0, 3079.0])
def test_frame_driver_refuses_points_past_the_float_range(snr_db):
    # 10^(snr/10) overflows at 3500 dB and underflows to 0 at -4000 dB;
    # at 3079 dB the hop is finite, but a gain times it overflows
    net = SyntheticRhoNetwork(2, rho=1.0, seed=0)
    for scheme in ("df", "af", "df-central"):
        with pytest.raises(ValueError, match="float range"):
            simulate_frames([scheme], net, [0.0, snr_db], 100)


# ------------------------------------------------------- vectorized paths


def test_estimate_df_matches_closed_forms():
    for rho in (1.0, 0.2906):
        ests = estimate(["df"], [10.0, 20.0], 200_000, num_relays=8,
                        rho=rho, seed=3)[0]
        for snr_db, est in zip([10.0, 20.0], ests):
            hop = 0.5 * 10 ** (snr_db / 10)
            exact = outage_df(SelectionParams(8, hop, hop, rho, GO))
            assert se_vs(exact, est) <= 3.0


def test_estimate_af_e2e_matches_closed_form():
    for rho in (0.6425, 1.0):
        est = estimate(["af"], [10.0], 200_000, num_relays=8, rho=rho, seed=4)[0][0]
        exact = outage_af(SelectionParams(8, 5.0, 5.0, rho, GO))
        assert se_vs(exact, est) <= 3.0


def test_af_pairing_modes_differ_at_partial_rho():
    # separately outdated hop estimates rank worse than one outdated
    # end-to-end figure; the closed forms assume the latter.  The frame
    # protocol runs the per-hop ranking: with no collision window the
    # timer race is an argmax of min(|metric_sr|, |metric_rd|).
    def per_hop(rho, n, seed):
        return simulate_frames(["af"], SyntheticRhoNetwork(8, rho, seed=seed),
                               [10.0], n + 1)[0][0]

    e2e = estimate(["af"], [10.0], 200_000, rho=0.2906, seed=5)[0][0]
    hop = per_hop(0.2906, 200_000, seed=5)
    assert hop.outage_prob - e2e.outage_prob > 5.0 * e2e.std_error
    at_one_a = estimate(["af"], [10.0], 100_000, rho=1.0, seed=6)[0][0]
    at_one_b = per_hop(1.0, 100_000, seed=6)
    exact = outage_af(SelectionParams(8, 5.0, 5.0, 1.0, GO))
    assert se_vs(exact, at_one_a) <= 3.0 and se_vs(exact, at_one_b) <= 3.0


def test_estimate_dt_full_power_and_rate():
    est = estimate(["dt"], [10.0], 200_000, seed=5)[0][0]
    exact = 1.0 - math.exp(-RATE.direct_threshold / 10.0)
    assert se_vs(exact, est) <= 3.0
    # single-phase link: the realized rate is not halved
    assert est.mean_rate == pytest.approx(capacity_exponential_exact(10.0), rel=0.01)


def test_estimate_scheme_ordering():
    rho_o = jakes_correlation(100.0, 0.003)
    grid = [10.0, 16.0, 22.0]
    prs = estimate(["df"], grid, 100_000, rho=0.95, seed=11)[0]
    ostc = estimate(["ostc"], grid, 100_000, rho=rho_o, seed=11)[0]
    ors = estimate(["df"], grid, 100_000, rho=rho_o, seed=12)[0]
    for a, b, c in zip(prs, ostc, ors):
        assert a.outage_prob < b.outage_prob < c.outage_prob


def test_estimate_validation_and_determinism():
    with pytest.raises(ValueError):
        estimate(["df"], [10.0], 9_999)
    with pytest.raises(ValueError):
        estimate(["mrc"], [10.0], 10_000)
    for schemes in ("df", [], ["df", "mrc"]):  # a list of known names
        with pytest.raises(ValueError):
            estimate(schemes, [10.0], 10_000)
    a = estimate(["df"], [10.0], 20_000, rho=0.9, seed=42)[0][0]
    b = estimate(["df"], [10.0], 20_000, rho=0.9, seed=42)[0][0]
    c = estimate(["df"], [10.0], 20_000, rho=0.9, seed=43)[0][0]
    assert a == b
    assert a != c


def test_std_error_convergence():
    # quadrupling the trials halves the binomial standard error
    small = estimate(["df"], [10.0], 50_000, rho=0.2906, seed=20)[0][0]
    large = estimate(["df"], [10.0], 200_000, rho=0.2906, seed=21)[0][0]
    assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


def estimate_peak(schemes, grid, relays=8):
    """tracemalloc peak of one estimate call at 1e5 trials."""
    import tracemalloc

    tracemalloc.start()
    try:
        estimate(schemes, grid, 100_000, num_relays=relays, rho=0.9, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_frees_each_point_before_the_next():
    # the draws of one grid point (or chunk) must be gone before the
    # next point draws, so a second point costs no extra peak memory
    for scheme in ("df", "af"):
        one = estimate_peak([scheme], [10.0])
        two = estimate_peak([scheme], [10.0, 20.0])
        assert two <= 1.1 * one, (scheme, one, two)


def test_estimate_peak_grows_with_neither_schemes_nor_relays():
    # each draw family judges into result rows of its own, freed before
    # the next family draws, so adding af and dt to the df family's call
    # costs next to nothing; and no draw holds a value per relay, so 64
    # relays cost what 8 do
    family = estimate_peak(["df", "ostc"], [10.0])
    four = estimate_peak(["df", "af", "ostc", "dt"], [10.0])
    assert four <= 1.1 * family, (family, four)
    wide = estimate_peak(["df", "af", "ostc", "dt"], [10.0], relays=64)
    assert wide <= 1.1 * four, (four, wide)


IMPAIRED = ProtocolSettings(pilot_snr_db=20.0, max_phase_error_deg=10.0)


@pytest.mark.parametrize("chunk", [7_000, 250_000])
@pytest.mark.parametrize("imp", [None, IMPAIRED])
@pytest.mark.parametrize("relays", [1, 8])
def test_shared_estimate_equals_single_scheme_calls(monkeypatch, relays, imp,
                                                    chunk):
    # 20 000 trials in chunks of 7 000 end on a partial 6 000 chunk
    monkeypatch.setattr(simulator, "_CHUNK", chunk)
    kw = dict(num_relays=relays, rho=0.9, seed=8, impairments=imp)
    grid = [0.0, 10.0, 20.0]
    schemes = ["df", "af", "ostc", "dt"]
    shared = estimate(schemes, grid, 20_000, **kw)
    for scheme, got in zip(schemes, shared):
        alone = estimate([scheme], grid, 20_000, **kw)
        assert got == alone[0], scheme


def test_df_and_ostc_share_one_relay_hop_draw(monkeypatch):
    calls = []
    real = simulator.correlated_pair

    def counted(rng, rho, size, metric):
        calls.append(size)
        return real(rng, rho, size, metric)

    monkeypatch.setattr(simulator, "correlated_pair", counted)
    monkeypatch.setattr(simulator, "_CHUNK", 7_000)
    estimate(["df", "ostc"], [0.0, 10.0, 20.0], 20_000, rho=0.9)
    # 3 grid points x 3 chunks: one conditional draw for the pick, which
    # df and ostc share, and one for ostc's runner-up
    assert calls == ([(7_000,), (7_000,)] * 2 + [(6_000,), (6_000,)]) * 3
    calls.clear()
    estimate(["df"], [0.0], 20_000, rho=0.9)
    assert calls == [(7_000,), (7_000,), (6_000,)]


def test_chunking_only_reorders_draws(monkeypatch):
    # different chunk sizes reorder the stream, so the estimates are
    # independent draws of the same quantity, not bit-identical
    whole = estimate(["df"], [10.0], 40_000, rho=0.9, seed=30)[0][0]
    monkeypatch.setattr(simulator, "_CHUNK", 7_000)
    split = estimate(["df"], [10.0], 40_000, rho=0.9, seed=30)[0][0]
    gap = abs(whole.outage_prob - split.outage_prob)
    assert gap <= 3.0 * math.hypot(whole.std_error, split.std_error)
    assert whole.trials == split.trials


@pytest.mark.parametrize("bad", [
    dict(rho=5.0), dict(rho=-0.1), dict(rho=math.nan),
    dict(num_relays=0), dict(snr=math.nan), dict(snr=math.inf),
    dict(snr=3500.0), dict(snr=-4000.0), dict(snr=3079.0),
], ids=["rho-5", "rho-negative", "rho-nan", "no-relays", "snr-nan",
        "snr-inf", "snr-3500", "snr-minus-4000", "snr-3079"])
def test_estimate_refuses_bad_inputs_before_drawing(monkeypatch, bad):
    def no_draws(*key):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(simulator, "stream", no_draws)
    kw = dict(num_relays=bad.get("num_relays", 8), rho=bad.get("rho", 0.9))
    for schemes in (["dt"], ["df", "af", "ostc", "dt"]):
        with pytest.raises(ValueError):
            estimate(schemes, [0.0, bad.get("snr", 10.0)], 10_000, **kw)


def test_engines_stay_finite_at_the_ends_of_the_hop_range():
    # the hop SNR may reach 1e-300 and 1e300 (about -2997 and +3003 dB);
    # every product the engines form stays finite, so no warning fires
    for snr_db in (-2996.0, 3000.0):
        for est in estimate(["df", "af", "ostc", "dt"], [snr_db], 10_000,
                            num_relays=2, rho=0.9):
            assert math.isfinite(est[0].mean_rate)
        for scheme in ("df", "af", "df-central"):
            ((est,),) = simulate_frames([scheme], SyntheticRhoNetwork(2, 0.9),
                                        [snr_db], 1000, protocol=WINDOW)
            assert math.isfinite(est.mean_rate)
    for snr_db in (-2998.0, 3004.0):
        with pytest.raises(ValueError, match="float range"):
            simulator._hop_snr(snr_db)


# exact outage at 32 to 64 relays (gamma_o = 3, each hop half the grid
# SNR): the closed forms' sums evaluated in mpmath at 60 to 300 digits,
# which agree; the float closed forms are off or read 0 or 1 at some of
# these points
MANY_RELAYS_EXACT = {  # (K, rho, snr_db): (df, af)
    (32, 0.9, 20.0): (1.0326954e-5, 3.3081927e-5),
    (48, 0.5, 10.0): (0.24061236, 0.41235133),
    (48, 0.9, 20.0): (2.4181757e-6, 8.5867143e-6),
    (64, 0.9, 0.0): (0.99960729, 0.99961011),
    (64, 0.9, 10.0): (0.0025833512, 0.010113478),
    (64, 0.5, 10.0): (0.22541158, 0.39339015),
    (64, 0.5, 20.0): (0.018443987, 0.036718796),
}


def test_estimate_matches_exact_outage_at_64_relays():
    for K, rho in sorted({key[:2] for key in MANY_RELAYS_EXACT}):
        grid = sorted(snr for k, r, snr in MANY_RELAYS_EXACT
                      if (k, r) == (K, rho))
        df, af = estimate(["df", "af"], grid, 1_000_000, num_relays=K,
                          rho=rho, seed=K)
        for snr, *ests in zip(grid, df, af):
            for est, exact in zip(ests, MANY_RELAYS_EXACT[K, rho, snr]):
                assert se_vs(exact, est) <= 3.0, (K, rho, snr, est, exact)


@pytest.mark.parametrize("M", [1, 2, 8, 64])
def test_order_statistic_draws_match_sorted_exponentials(M):
    # the pick's and runner-up's metrics, drawn from one uniform each,
    # against the top two of M explicitly sorted Exp(1) draws
    n = 20_000
    u, w = stream(70, M).random((2, n))
    count = np.full(n, M)
    best = simulator._top_survival(u, count)
    second = simulator._second_survival(best, w, count)
    ranked = np.sort(stream(71, M).standard_exponential((n, M)), axis=1)
    top, runner_up = -np.log(best), -np.log(second)
    assert stats.ks_2samp(top, ranked[:, -1]).pvalue > 1e-3
    if M == 1:
        assert np.all(runner_up == 0.0)  # nobody to pair with
        return
    assert stats.ks_2samp(runner_up, ranked[:, -2]).pvalue > 1e-3
    # the joint law: the top spacing is Exp(1), whatever M
    assert stats.ks_2samp(top - runner_up,
                          ranked[:, -1] - ranked[:, -2]).pvalue > 1e-3


def explicit_top_two(rng, n, K, p):
    """The best two relay-hop metrics among the decoders of n frames of
    K relays, each decoding with probability p; -inf where fewer
    decoded."""
    metric = rng.standard_exponential((n, K))
    metric[rng.random((n, K)) >= p] = -np.inf
    if K == 1:
        return metric[:, 0], np.full(n, -np.inf)
    top = np.partition(metric, K - 2, axis=1)
    return top[:, -1], top[:, -2]


@pytest.mark.parametrize("K", [1, 2, 8, 64])
def test_thinned_draw_matches_explicit_decoders(monkeypatch, K):
    # df's pick and ostc's runner-up are the best two of K Exp(1)
    # metrics shifted down by c = gamma_o / hop; estimate hands them to
    # correlated_pair clipped at 0, which marks a relay that did not
    # decode.  Frames are lost at (1 - p)^K and pair at P(M >= 2).
    metrics, actuals = [], []
    real = simulator.correlated_pair

    def recorded(rng, rho, size, metric):
        metrics.append(metric.copy())
        actuals.append(real(rng, rho, size, metric))
        return actuals[-1].copy()

    monkeypatch.setattr(simulator, "correlated_pair", recorded)
    n = 200_000
    ps = np.array([0.05, 0.5, 0.97])
    # the grid point whose hop SNR gamma_o / -log(p) decodes at p
    grid = 10.0 * np.log10(2.0 * GO / -np.log(ps))
    df, ostc = estimate(["df", "ostc"], grid, n, num_relays=K, rho=0.5,
                        seed=K)
    rng = stream(73, K)
    for i, snr_db in enumerate(grid):
        pick, runner_up = metrics[2 * i:2 * i + 2]
        hop = 0.5 * 10.0 ** (snr_db / 10.0)
        p = math.exp(-GO / hop)
        # a lost frame has no rate, and a pair forwards when its
        # runner-up decoded
        g, g2 = (a * hop for a in actuals[2 * i:2 * i + 2])
        g[pick == 0.0] = 0.0
        pair_snr = np.where(runner_up > 0.0, 0.5 * (g + g2), g)
        for est, snr in ((df[i], g), (ostc[i], pair_snr)):
            assert est.outage_prob == np.mean(snr < GO)
            assert est.mean_rate == pytest.approx(
                np.mean(0.5 * np.log2(1.0 + snr)), rel=1e-12)
        lost = (1.0 - p) ** K
        pair = 1.0 - lost - K * p * (1.0 - p) ** (K - 1)
        for got, want in ((np.mean(pick == 0.0), lost),
                          (np.mean(runner_up > 0.0), pair)):
            assert abs(got - want) <= 3.0 * math.sqrt(want * (1 - want) / n), \
                (p, got, want)
        best, second = explicit_top_two(rng, n // 4, K, p)
        assert stats.ks_2samp(pick[pick > 0.0],
                              best[best > -np.inf]).pvalue > 1e-3, p
        if K > 1:
            assert stats.ks_2samp(runner_up[runner_up > 0.0],
                                  second[second > -np.inf]).pvalue > 1e-3, p


# one grid point for each (relays, rho, impairments); seeds differ, so
# the two samplers' estimates are independent
EQUIVALENCE_POINTS = [(K, rho, imp) for K in (1, 2, 8)
                      for rho in (0.0, 0.5, 0.9, 1.0)
                      for imp in (None, IMPAIRED)]


def test_conditional_sampler_matches_four_normal_oracle():
    # criterion 4's rule: outage and mean rate of df, af and ostc within
    # 3 combined standard errors at 95% of the points, at 1e6 trials
    schemes, n, snr_db = ["df", "af", "ostc"], 1_000_000, 10.0
    misses, total = [], 0
    for i, (K, rho, imp) in enumerate(EQUIVALENCE_POINTS):
        kw = dict(num_relays=K, rho=rho, impairments=imp)
        new = estimate(schemes, [snr_db], n, seed=7000 + i, **kw)
        old = four_normal_estimate(schemes, [snr_db], n, seed=8000 + i, **kw)
        for scheme, [a], [(p, se, rate, sd)] in zip(schemes, new, old):
            total += 2
            # under the null both samplers share the rate's law, so the
            # oracle's per-trial SD serves both
            if abs(a.outage_prob - p) > 3.0 * math.hypot(a.std_error, se):
                misses.append((K, rho, imp is not None, scheme, "outage",
                               a.outage_prob, p))
            if abs(a.mean_rate - rate) > 3.0 * sd * math.sqrt(2.0 / n):
                misses.append((K, rho, imp is not None, scheme, "rate",
                               a.mean_rate, rate))
    assert total == 144
    assert len(misses) <= 0.05 * total, misses


# ----------------------------------------------------------- series mode


def test_series_network_alignment():
    sr = multilink_series(31, 300, 4)
    rd = multilink_series(32, 300, 4)
    net = SeriesNetwork(sr, rd, delay=3)
    assert net.start == 3 and net.num_frames == 297
    assert net.metric_lag == 3
    g_sr, g_rd, m_sr, m_rd = net.frames(297)
    # the buffered metric is the record three samples back
    assert np.array_equal(m_rd, rd[:297]) and np.array_equal(m_sr, sr[:297])
    # the gains are the actual record's |h|^2, formed as re^2 + im^2
    for g, h in ((g_sr, sr[3:]), (g_rd, rd[3:])):
        assert np.array_equal(g, h.real ** 2 + h.imag ** 2)
        assert np.allclose(g, np.abs(h) ** 2, rtol=1e-14, atol=0.0)
    # without a predictor the network holds views, never copies
    assert all(np.shares_memory(part, whole) for part, whole in
               ((m_sr, sr), (m_rd, rd)))
    with pytest.raises(ValueError):
        net.frames(298)
    with pytest.raises(ValueError):
        simulate_frames(["df"], net, [10.0], 298)
    with pytest.raises(ValueError):
        SeriesNetwork(sr, rd, delay=0)
    with pytest.raises(ValueError):
        SeriesNetwork(sr, rd[:100], delay=3)
    with pytest.raises(ValueError, match="too short"):
        SeriesNetwork(sr[:4], rd[:4], delay=5)


def test_series_network_reads_the_predictor_layout():
    from prsim.predictor import LayerSpec, RecurrentNet, predict_series

    sr = multilink_series(33, 200, 2)
    rd = multilink_series(34, 200, 2)
    layout = {"tau": 2, "horizon": 3, "features": "magnitude",
              "scale": 0.5, "links": 2}
    pred = RecurrentNet(6, (LayerSpec("gru", 4),), 2, seed=1, layout=layout)
    net = SeriesNetwork(sr, rd, 3, predictor=pred)
    # the first prediction targets tau + horizon, from taps up to tau
    assert net.start == 5 and net.num_frames == 195
    _, _, m_sr, m_rd = net.frames(195)
    assert np.array_equal(m_sr, predict_series(pred, sr)[0])
    assert np.array_equal(m_rd, predict_series(pred, rd)[0])
    with pytest.raises(ValueError, match="horizon"):
        SeriesNetwork(sr, rd, 2, predictor=pred)


def test_series_delayed_metric_matches_closed_form():
    # a record delayed by 3 samples at f_d = 100 Hz decorrelates to
    # J0(0.6 pi); frames overlap in time, so allow a loose absolute gap
    sr = multilink_series(31, 60_000)
    rd = multilink_series(32, 60_000)
    ((est,),) = simulate_frames(["df"], SeriesNetwork(sr, rd, delay=3),
                                [10.0], 59_997)
    rho_o = jakes_correlation(100.0, 0.003)
    exact = outage_df(SelectionParams(8, 5.0, 5.0, rho_o, GO))
    assert est.trials == 59_996
    assert abs(est.outage_prob - exact) < 0.015


def test_series_mode_validation():
    sr = multilink_series(33, 200, 2)
    rd = multilink_series(34, 200, 2)
    with pytest.raises(ValueError):
        simulate_frames(["dt"], SeriesNetwork(sr, rd, delay=3), [10.0], 100)
