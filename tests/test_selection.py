import math

import numpy as np
import pytest

from prsim.rng import stream
from prsim import simulator
from prsim.selection import RateConfig, decoding_subset, select
from prsim.simulator import ProtocolSettings, estimate, simulate_frames

from pair_oracle import complex_pair

RATE1 = RateConfig(target_rate=1.0)


def rows(*values):
    return np.array(values, dtype=float)


def half_rate(g):
    return 0.5 * np.log2(1.0 + np.asarray(g, dtype=float))


# the grid SNR at which each relay hop has unit mean SNR
UNIT_HOP_DB = 10.0 * math.log10(2.0)


class OneFrameNetwork:
    """Single-relay network repeating one frame of fixed hop gains."""

    metric_lag = 1

    def __init__(self, sr, rd):
        self.gains = (sr, rd)

    def frames(self, n):
        sr, rd = (np.full((n, 1), g) for g in self.gains)
        return sr, rd, np.sqrt(sr), np.sqrt(rd)


def first_k(k, K=8):
    """Eligibility mask of the first k[i] relays of each row."""
    return np.arange(K) < np.asarray(k)[:, None]


def test_rate_thresholds():
    assert RATE1.gamma_o == 3.0
    assert RATE1.direct_threshold == 1.0
    with pytest.raises(ValueError):
        RateConfig(target_rate=0.0)


def test_decoding_subset_threshold():
    ds = decoding_subset(rows([4.0, 2.0, 5.0], [1.0, 0.5, 2.9], [3.0, 0.0, 0.0]),
                         RATE1)
    assert ds.tolist() == [[True, False, True],
                           [False, False, False],
                           [True, False, False]]  # boundary decodes


def test_threshold_boundary_is_not_outage():
    sel = select(rows([3.0], [np.nextafter(3.0, 0.0)]), rows([1.0], [1.0]),
                 RATE1)
    assert sel.outage.tolist() == [False, True]
    assert sel.rate[0] == 1.0  # exactly the target rate


def test_decoding_subset_size_distribution():
    rng = stream(8)
    n, K, gbar = 200_000, 8, 10.0
    draws = rng.exponential(gbar, size=(n, K))
    sizes = decoding_subset(draws[:20_000], RATE1).sum(axis=1)
    p_decode = math.exp(-3.0 / gbar)
    for M in range(K + 1):
        want = math.comb(K, M) * p_decode ** M * (1 - p_decode) ** (K - M)
        got = np.mean(sizes == M)
        se = math.sqrt(max(want * (1 - want), 1e-12) / len(sizes))
        assert abs(got - want) <= 3 * se + 1e-9


def test_select_best_df():
    g = rows([10.0, 10.0, 10.0])
    assert select(g, rows([0.5, 2.0, 1.1]), RATE1).chosen.tolist() == [1]
    assert select(g, rows([2.0, 2.0, 1.0]), RATE1).chosen.tolist() == [0]
    assert select(g, rows([1.0, 2.0, 2.0]), RATE1,
                  np.array([[True, False, True]])).chosen.tolist() == [2]


def test_select_best_df_perfect_metric_is_max():
    rng = stream(9)
    n = 10_000
    g = rng.exponential(5.0, size=(n, 8))
    eligible = first_k(rng.integers(1, 9, size=n))
    sel = select(g, g, RATE1, eligible)
    best = np.where(eligible, g, -np.inf).max(axis=1)
    assert np.array_equal(g[np.arange(n), sel.chosen], best)


def test_df_outcome_uses_actual_for_outage():
    # the score would pick relay 1, whose actual hop is dead: outage is
    # decided by the actual SNR even though selection saw a good score
    sel = select(rows([10.0, 0.5]), rows([0.1, 9.0]), RATE1,
                 np.array([[True, True]]))
    assert sel.chosen.tolist() == [1]
    assert sel.outage.tolist() == [True]
    assert sel.rate[0] == half_rate(0.5)


def test_df_outcome_empty_subset_is_outage():
    ds = decoding_subset(rows([1.0, 2.0]), RATE1)
    sel = select(rows([50.0, 50.0]), rows([1.0, 2.0]), RATE1, ds,
                 window=1.0, pair=True)
    assert sel.chosen.tolist() == [-1]
    assert sel.outage.tolist() == [True]
    assert sel.rate.tolist() == [0.0]
    assert sel.collision.tolist() == [False]


def test_select_ostc_pair():
    all3 = np.ones((1, 3), dtype=bool)
    sel = select(rows([0.5, 2.0, 1.1]), rows([0.5, 2.0, 1.1]), RATE1, all3,
                 pair=True)
    assert sel.chosen.tolist() == [1]
    assert sel.rate[0] == pytest.approx(half_rate(1.55))  # relays 1 and 2
    # only relay 1 decoded: it forwards alone
    sel = select(rows([1.0, 7.0]), rows([5.0, 1.0]), RATE1,
                 np.array([[False, True]]), pair=True)
    assert sel.chosen.tolist() == [1]
    assert sel.rate[0] == half_rate(7.0)
    sel = select(rows([1.0, 7.0]), rows([5.0, 1.0]), RATE1,
                 np.zeros((1, 2), dtype=bool), pair=True)
    assert sel.chosen.tolist() == [-1] and sel.outage.tolist() == [True]


def test_select_ostc_pair_matches_sort_oracle():
    rng = stream(10)
    n = 10_000
    g = rng.exponential(5.0, size=(n, 8))
    eligible = first_k(rng.integers(2, 9, size=n))
    sel = select(g, g, RATE1, eligible, pair=True)
    order = np.argsort(-np.where(eligible, g, -np.inf), axis=1, kind="stable")
    r = np.arange(n)
    want = 0.5 * (g[r, order[:, 0]] + g[r, order[:, 1]])
    assert np.array_equal(sel.chosen, order[:, 0])
    assert np.array_equal(sel.rate, half_rate(want))


def test_af_effective_snr():
    # the amplified end-to-end SNR is the min(sr, rd) bound the closed
    # forms assume
    net = OneFrameNetwork(sr=1e8, rd=4.0)
    ((est,),) = simulate_frames(["af"], net, [UNIT_HOP_DB], 2, rate=RATE1)
    assert est.mean_rate == half_rate(4.0)
    net = OneFrameNetwork(sr=1.0, rd=1.0)
    ((est,),) = simulate_frames(["af"], net, [UNIT_HOP_DB], 2, rate=RATE1)
    assert est.mean_rate == half_rate(1.0)


def test_select_best_af():
    sr, rd = rows([3.0]), rows([1.0])
    assert select(np.minimum(sr, rd), np.minimum(sr, rd),
                  RATE1).chosen.tolist() == [0]
    sr, rd = rows([3.0, 2.0]), rows([1.0, 2.0])
    assert select(np.minimum(sr, rd), np.minimum(sr, rd),
                  RATE1).chosen.tolist() == [1]
    with pytest.raises(ValueError):
        select(np.empty((1, 0)), np.empty((1, 0)), RATE1)


def test_select_best_af_perfect_metric_max_min():
    rng = stream(12)
    n = 10_000
    sr = rng.exponential(4.0, size=(n, 8))
    rd = rng.exponential(4.0, size=(n, 8))
    g = np.minimum(sr, rd)
    sel = select(g, g, RATE1)
    r = np.arange(n)
    assert np.array_equal(np.minimum(sr, rd)[r, sel.chosen], g.max(axis=1))


def test_selection_metric_scaling_invariance():
    rng = stream(14)
    n = 2_000
    g = rng.exponential(5.0, size=(n, 8))
    eligible = first_k(rng.integers(2, 9, size=n))
    scale = rng.uniform(0.01, 100.0, size=(n, 1))
    for pair in (False, True):
        a = select(g, g, RATE1, eligible, pair=pair)
        b = select(g, scale * g, RATE1, eligible, pair=pair)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.rate, b.rate)


def test_ostc_effective_snr():
    # the pair's combiner output is the half-sum of the two relay SNRs
    sel = select(rows([4.0, 0.0]), rows([2.0, 1.0]), RATE1, pair=True)
    assert sel.rate[0] == half_rate(2.0)
    sel = select(rows([7.0, 7.0]), rows([2.0, 1.0]), RATE1, pair=True)
    assert sel.rate[0] == half_rate(7.0)


def test_direct_transmission_outcome(monkeypatch):
    # a direct link exactly at 2^R - 1 carries R: no outage
    class Fixed:
        def __init__(self, g):
            self.g = g

        def standard_exponential(self, out):
            out[...] = self.g

    # at 0 dB the direct link's mean SNR is 1, so g is the SNR itself
    for g, outage in ((RATE1.direct_threshold, 0.0),
                      (np.nextafter(RATE1.direct_threshold, 0.0), 1.0),
                      (0.0, 1.0)):
        monkeypatch.setattr(simulator, "stream", lambda *key: Fixed(g))
        assert estimate(["dt"], [0.0], 10_000)[0][0].outage_prob == outage


def test_direct_transmission_matches_closed_form():
    rng = stream(13)
    n, gbar = 500_000, 8.0
    g = rng.exponential(gbar, n)
    phat = np.mean([g < RATE1.direct_threshold])
    want = 1.0 - math.exp(-RATE1.direct_threshold / gbar)
    se = math.sqrt(want * (1 - want) / n)
    assert abs(phat - want) <= 3 * se


def test_ostc_outcome_pair_and_fallback():
    g = rows([5.0, 3.0, 4.0])
    sel = select(g, g, RATE1, np.ones((1, 3), dtype=bool), pair=True)
    assert sel.chosen.tolist() == [0]
    assert sel.rate[0] == half_rate(4.5)  # relays 0 and 2
    sel = select(rows([9.0, 9.0]), rows([9.0, 9.0]), RATE1,
                 decoding_subset(rows([10.0, 1.0]), RATE1), pair=True)
    assert sel.chosen.tolist() == [0]
    assert sel.rate[0] == half_rate(9.0)
    # one relay in the network
    sel = select(rows([9.0]), rows([1.0]), RATE1, pair=True)
    assert sel.rate[0] == half_rate(9.0)


def test_af_outcome_bound():
    sr, rd = rows([8.0, 5.0]), rows([2.0, 4.0])
    sel = select(np.minimum(sr, rd), np.minimum(sr, rd), RATE1)
    assert sel.chosen.tolist() == [1]
    assert sel.rate[0] == half_rate(4.0)


def test_perfect_metric_weakly_dominates_outdated():
    rng = stream(15)
    n, K = 300_000, 4
    gbar = 10 ** 1.4
    gsr = rng.exponential(0.5 * gbar, size=(n, K))
    met, act = complex_pair(rng, 0.3, (n, K))
    g_met = 0.5 * gbar * np.abs(met) ** 2
    g_act = 0.5 * gbar * np.abs(act) ** 2
    ds = decoding_subset(gsr, RATE1)
    p1 = select(g_act, g_act, RATE1, ds).outage.mean()
    p2 = select(g_act, g_met, RATE1, ds).outage.mean()
    se = math.sqrt(p2 * (1 - p2) / n)
    assert p1 <= p2 + 3 * se


def test_ostc_diversity_order_two_under_outdated_metric():
    # log-log slope of the MC outage curve in the 1e-3..1e-5 window
    snrs_db = np.arange(24.0, 33.0, 2.0)
    pts = np.array([est.outage_prob for est in estimate(
        ["ostc"], snrs_db, 4_000_000, num_relays=8, rho=0.2906, seed=16)[0]])
    keep = (pts > 1e-5) & (pts < 1e-3)
    assert keep.sum() >= 3
    slope = np.polyfit(snrs_db[keep] / 10.0, np.log10(pts[keep]), 1)[0]
    assert 1.7 <= -slope <= 2.3


# ------------------------------------------------------------ timer race


def test_capped_timers_tie_to_the_lowest_eligible_id():
    timer = ProtocolSettings(timer_max=50.0)
    score = -timer.duration(rows([1e-6, 1e-5, 0.0, 1e-4]))
    assert np.all(score == -50.0)  # every timer is capped
    sel = select(rows([9.0, 9.0, 9.0, 9.0]), score, RATE1,
                 np.array([[False, True, True, True]]),
                 window=timer.uncertainty_window)
    assert sel.chosen.tolist() == [1]
    assert sel.collision.tolist() == [False]


def test_collision_needs_two_eligible_timers_inside_the_window():
    durations = rows([1.0, 1.01, 5.0])
    g = rows([9.0, 9.0, 9.0])
    everyone = select(g, -durations, RATE1, np.ones((1, 3), dtype=bool),
                      window=0.02)
    assert everyone.collision.tolist() == [True]
    assert everyone.outage.tolist() == [True]
    assert everyone.rate.tolist() == [0.0]
    assert everyone.chosen.tolist() == [-1]
    # relay 1 did not decode, so its timer never runs
    silent = select(g, -durations, RATE1, np.array([[True, False, True]]),
                    window=0.02)
    assert silent.collision.tolist() == [False]
    assert silent.chosen.tolist() == [0]
    assert silent.outage.tolist() == [False]


def test_collision_iff_two_fastest_eligible_within_window():
    rng = stream(17)
    n, K, window = 2_000, 5, 0.05
    durations = rng.uniform(0.0, 1.0, size=(n, K))
    eligible = rng.uniform(size=(n, K)) < 0.6
    sel = select(np.full((n, K), 9.0), -durations, RATE1, eligible,
                 window=window)
    for i in range(n):
        d = np.sort(durations[i][eligible[i]])
        assert sel.collision[i] == (d.size >= 2 and d[1] - d[0] < window)
    assert 0 < sel.collision.sum() < n


def test_single_relay_never_collides():
    rng = stream(18)
    g = rng.exponential(5.0, size=(1_000, 1))
    for eligible in (None, decoding_subset(g, RATE1)):
        sel = select(g, -g, RATE1, eligible, window=1e9)
        assert not sel.collision.any()
