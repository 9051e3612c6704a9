"""The Monte-Carlo numbers README.md quotes, recomputed at their seed.

Each value is asserted to the digits README prints, and each sentence
that prints them is looked up in README.md, so the text and the code
cannot drift apart unnoticed.
"""

from pathlib import Path

from prsim.analytics import SelectionParams, outage_af
from prsim.selection import RateConfig
from prsim.simulator import (SyntheticRhoNetwork, _hop_snr, estimate,
                             simulate_frames)

# README wraps its lines; sentences are compared with single spaces
README = " ".join((Path(__file__).resolve().parents[1] / "README.md")
                  .read_text(encoding="utf-8").split())


def af_outages(rho, trials):
    """(end-to-end model, per-hop ranking) at K = 8, 10 dB and seed 0,
    both at estimate's and simulate_frames' default rate of 1."""
    (end_to_end,), = estimate(["af"], [10.0], trials, num_relays=8, rho=rho,
                              seed=0)
    per_hop = simulate_frames("af", SyntheticRhoNetwork(8, rho, seed=0),
                              10.0, trials + 1)  # + the bootstrap frame
    assert end_to_end.trials == per_hop.trials == trials
    return end_to_end, per_hop


def test_af_models_part_at_rho_0_2906():
    end_to_end, per_hop = af_outages(0.2906, 200000)
    gap = per_hop.outage_prob - end_to_end.outage_prob
    assert ["%.4f" % x for x in (end_to_end.outage_prob, end_to_end.std_error,
                                 per_hop.outage_prob, gap)] == [
        "0.6455", "0.0011", "0.6707", "0.0252"]
    assert round(gap / end_to_end.std_error) == 24
    assert ("rho = 0.2906 and seed 0 the end-to-end model reads outage "
            "0.6455 (2e5 trials, standard error 0.0011) and the per-hop "
            "ranking 0.6707 (2e5 frames, no collision window): the gap, "
            "0.0252, is 24 standard errors.") in README


def test_af_models_meet_the_closed_form_at_rho_1():
    end_to_end, per_hop = af_outages(1.0, 100000)
    hop = _hop_snr(10.0)
    law = outage_af(SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop, rho=1.0,
                                    gamma_o=RateConfig(1.0).gamma_o))
    assert ["%.4f" % x for x in (end_to_end.outage_prob, per_hop.outage_prob,
                                 law)] == ["0.0574", "0.0563", "0.0569"]
    assert ("At rho = 1 and seed 0 both match the closed form (0.0574 and "
            "0.0563 against 0.0569, 1e5 each).") in README
