import math

import numpy as np
import pytest

from prsim.analytics import SelectionParams, outage_af, outage_df
from prsim.analytics import capacity_exponential_exact
from prsim import simulator
from prsim.channel import (FadingProcessConfig, generate_series,
                           jakes_correlation, snr_from_gain)
from prsim.rng import stream
from prsim.selection import RateConfig, decoding_subset, select
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
    csi_sr, csi_rd, m_sr, m_rd = (a[1:] for a in net.frames(n))
    return (snr_from_gain(csi_sr, hop), snr_from_gain(csi_rd, hop),
            m_sr, m_rd)


def block_estimate(sel):
    return simulator._mc_estimate(sel.outage, sel.rate,
                                  int(sel.collision.sum()))


def test_synthetic_network_frames():
    net = SyntheticRhoNetwork(4, rho=0.8, seed=5)
    assert net.metric_lag == 1
    csi_sr, csi_rd, m_sr, m_rd = net.frames(3)
    assert all(a.shape == (3, 4) for a in (csi_sr, csi_rd, m_sr, m_rd))
    # the block consumes the stream as frame-by-frame pair draws would:
    # source hop, then relay hop
    rng = stream(5, 41)
    for t in range(3):
        for metric, actual in ((m_sr[t], csi_sr[t]), (m_rd[t], csi_rd[t])):
            want_m, want_a = complex_planes(pair_planes(rng, 0.8, 4))
            assert np.array_equal(metric, want_m)
            assert np.array_equal(actual, want_a)
    # metric-actual correlation approaches rho over many frames
    _, a, _, m = SyntheticRhoNetwork(4, rho=0.8, seed=6).frames(4000)
    m, a = np.ravel(m), np.ravel(a)
    corr = np.abs(np.vdot(m, a)) / (np.linalg.norm(m) * np.linalg.norm(a))
    assert abs(corr - 0.8) < 0.02


def test_synthetic_network_replays_its_frames():
    # a network is a CSI source: every call hands out the same first
    # frames, so each scheme and grid point sees common random numbers
    net = SyntheticRhoNetwork(4, rho=0.8, seed=5)
    first = net.frames(50)
    again = net.frames(50)
    shorter = net.frames(20)
    longer = net.frames(80)  # a longer block extends the same stream
    for a, b, c, d in zip(first, again, shorter, longer):
        assert np.array_equal(a, b)
        assert np.array_equal(a[:20], c)
        assert np.array_equal(a, d[:50])


def test_one_network_serves_every_grid_point():
    # a shared network gives each (scheme, SNR) point the frames a
    # fresh network of the same seed would give it
    shared = SyntheticRhoNetwork(8, rho=0.8, seed=3)
    for scheme in ("df", "af", "df-central"):
        for snr_db in (0.0, 10.0, 20.0):
            fresh = SyntheticRhoNetwork(8, rho=0.8, seed=3)
            assert (simulate_frames(scheme, shared, snr_db, 500)
                    == simulate_frames(scheme, fresh, snr_db, 500))


def test_causality_assert_trips():
    for scheme in ("df", "af", "df-central"):
        net = SyntheticRhoNetwork(4, rho=1.0, seed=1)
        net.metric_lag = 0  # forge a metric read at its own frame
        with pytest.raises(RuntimeError):
            simulate_frames(scheme, net, 10.0, 100)


def test_zero_window_never_collides():
    net = SyntheticRhoNetwork(8, rho=0.5, seed=7)
    est = simulate_frames("df", net, 10.0, 3000)
    assert est.collision_rate == 0.0


def test_collision_rate_monotone_in_window():
    rates = []
    for delta in (0.0, 0.02, 0.2, 2.0):
        net = SyntheticRhoNetwork(8, rho=0.5, seed=8)
        protocol = ProtocolSettings(uncertainty_window=delta)
        rates.append(simulate_frames("df", net, 10.0, 3000,
                                     protocol=protocol).collision_rate)
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
    assert simulate_frames("df", SyntheticRhoNetwork(8, rho=0.7, seed=9),
                           10.0, 400) == block_estimate(sel)


def test_af_winner_is_min_metric_argmax():
    timer = ProtocolSettings()
    g_sr, g_rd, m_sr, m_rd = frame_block(
        SyntheticRhoNetwork(8, rho=0.7, seed=10), 400, 10.0)
    mags = np.minimum(np.abs(m_sr), np.abs(m_rd))
    sel = select(np.minimum(g_sr, g_rd), -timer.duration(mags), RATE,
                 window=timer.uncertainty_window)
    assert np.array_equal(sel.chosen, np.argmax(mags, axis=1))
    assert simulate_frames("af", SyntheticRhoNetwork(8, rho=0.7, seed=10),
                           10.0, 400) == block_estimate(sel)


def test_df_frames_match_closed_form_at_perfect_foresight():
    net = SyntheticRhoNetwork(8, rho=1.0, seed=11)
    est = simulate_frames("df", net, 10.0, 100_000)
    exact = outage_df(SelectionParams(8, 5.0, 5.0, 1.0, GO))
    assert se_vs(exact, est) <= 3.0


def test_af_frames_k1_matches_single_link_bound():
    # with one relay selection is moot; outage is P(min(sr, rd) < go)
    net = SyntheticRhoNetwork(1, rho=0.6, seed=12)
    est = simulate_frames("af", net, 10.0, 100_000)
    gamma_e = 5.0 * 5.0 / (5.0 + 5.0)
    exact = 1.0 - math.exp(-GO / gamma_e)
    assert se_vs(exact, est) <= 3.0


def test_af_frames_perfect_buffers_match_closed_form():
    net = SyntheticRhoNetwork(8, rho=1.0, seed=13)
    est = simulate_frames("af", net, 12.0, 100_000)
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
    a = simulate_frames("df", net, 10.0, 2000)
    b = simulate_frames("df-central", net, 10.0, 2000)
    assert a == b


def test_termination_never_beats_reselection():
    net = SyntheticRhoNetwork(8, rho=0.8, seed=15)
    terminate = ProtocolSettings(policy="terminate")
    for snr_db in (6.0, 10.0, 14.0):
        p_r = simulate_frames("df-central", net, snr_db, 20_000).outage_prob
        p_t = simulate_frames("df-central", net, snr_db, 20_000,
                              protocol=terminate).outage_prob
        # the top-ranked relay often failed to decode at these SNRs
        assert p_t > p_r


def test_frame_driver_validation():
    net = SyntheticRhoNetwork(2, rho=1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_frames("df", net, 10.0, 1)
    with pytest.raises(ValueError):
        simulate_frames("mrc", net, 10.0, 100)
    with pytest.raises(ValueError, match="reselect or terminate"):
        ProtocolSettings(policy="retry")


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
        return simulate_frames("af", SyntheticRhoNetwork(8, rho, seed=seed),
                               10.0, n + 1)

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


def estimate_peak(schemes, grid):
    """tracemalloc peak of one estimate call at 1e5 trials."""
    import tracemalloc

    tracemalloc.start()
    try:
        estimate(schemes, grid, 100_000, rho=0.9, seed=1)
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


def test_shared_call_reuses_one_set_of_planes():
    # every draw family refills the same planes (af ranks in df's metric
    # plane, dt draws into its rates row), so adding af and dt to the df
    # family's call costs about their result rows
    family = estimate_peak(["df", "ostc"], [10.0])
    four = estimate_peak(["df", "af", "ostc", "dt"], [10.0])
    assert four <= 1.1 * family, (family, four)


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
], ids=["rho-5", "rho-negative", "rho-nan", "no-relays", "snr-nan",
        "snr-inf"])
def test_estimate_refuses_bad_inputs_before_drawing(monkeypatch, bad):
    def no_draws(*key):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(simulator, "stream", no_draws)
    kw = dict(num_relays=bad.get("num_relays", 8), rho=bad.get("rho", 0.9))
    for schemes in (["dt"], ["df", "af", "ostc", "dt"]):
        with pytest.raises(ValueError):
            estimate(schemes, [0.0, bad.get("snr", 10.0)], 10_000, **kw)


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
    csi_sr, csi_rd, m_sr, m_rd = net.frames(297)
    # the buffered metric is the record three samples back
    assert np.array_equal(m_rd, rd[:297]) and np.array_equal(m_sr, sr[:297])
    assert np.array_equal(csi_rd, rd[3:]) and np.array_equal(csi_sr, sr[3:])
    # without a predictor the network holds views, never copies
    assert all(np.shares_memory(part, whole) for part, whole in
               ((csi_sr, sr), (csi_rd, rd), (m_sr, sr), (m_rd, rd)))
    with pytest.raises(ValueError):
        net.frames(298)
    with pytest.raises(ValueError):
        simulate_frames("df", net, 10.0, 298)
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
    est = simulate_frames("df", SeriesNetwork(sr, rd, delay=3), 10.0, 59_997)
    rho_o = jakes_correlation(100.0, 0.003)
    exact = outage_df(SelectionParams(8, 5.0, 5.0, rho_o, GO))
    assert est.trials == 59_996
    assert abs(est.outage_prob - exact) < 0.015


def test_series_mode_validation():
    sr = multilink_series(33, 200, 2)
    rd = multilink_series(34, 200, 2)
    with pytest.raises(ValueError):
        simulate_frames("dt", SeriesNetwork(sr, rd, delay=3), 10.0, 100)
