"""Experiment file parsing, defaults, validation and hashing."""

import math

import pytest

from prsim import cli
from prsim.config import (ConfigError, ExperimentConfig, FadingSettings,
                          NetworkSettings, PredictorSettings,
                          ProtocolSettings, parse_config, to_text)
from prsim.selection import RateConfig


def test_empty_text_is_the_baseline_setup():
    cfg = parse_config("")
    assert cfg.network.relays == 8
    assert cfg.network.rate == 1.0
    assert cfg.fading.sample_rate_hz == 1000.0
    assert cfg.fading.doppler_hz == 100.0
    assert cfg.fading.k_factor == 0.0
    assert cfg.predictor.tau == 4
    assert cfg.predictor.layers == 2
    assert cfg.predictor.neurons == 25
    assert cfg.predictor.kind == "lstm"
    assert cfg.dataset.length == 1_000_000
    assert cfg.snr_grid_db == tuple(float(x) for x in range(0, 31, 2))
    assert cfg.schemes == ("df",)
    assert cfg == ExperimentConfig()


SWEEP = """
[experiment]
name = sweep-7
seed = 11
trials = 50000

[network]
relays = 4
rate = 2.0

[csi]
mode = synthetic
rho = 0.6425

[schemes]
list = af, dt

[grid]
snr_db = 4, 8, 12

[protocol]
pilot_snr_db = 25
"""


def test_round_trip_through_canonical_text():
    cfg = parse_config(SWEEP)
    assert parse_config(to_text(cfg)) == cfg
    assert cfg.protocol.pilot_snr_db == 25.0
    assert cfg.protocol.max_phase_error_deg is None


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_presets_round_trip_through_canonical_text(name):
    # presets build their config without the parser
    cfg = cli.PRESETS[name]()[0]
    assert parse_config(to_text(cfg)) == cfg


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("""
# top note
; alt comment style

[network]
relays = 5
""")
    assert cfg.network.relays == 5


def test_grid_range_is_inclusive():
    cfg = parse_config("[grid]\nsnr_db = 0:30:2\n")
    assert cfg.snr_grid_db[0] == 0.0
    assert cfg.snr_grid_db[-1] == 30.0
    assert len(cfg.snr_grid_db) == 16
    single = parse_config("[grid]\nsnr_db = 12\n")
    assert single.snr_grid_db == (12.0,)


def test_grid_range_points_are_start_plus_i_step():
    # a running sum drifted to 99.799999999999 ... 99.999999999999,
    # digits that reached the snr_db column and the config hash
    cfg = parse_config("[grid]\nsnr_db = 0:100:0.1\n")
    assert cfg.snr_grid_db == tuple(i / 10 for i in range(1001))
    # exactly the most points a range may hold
    cfg = parse_config("[grid]\nsnr_db = 0:99.99:0.01\n")
    assert cfg.snr_grid_db[-2:] == (99.98, 99.99)
    assert len(cfg.snr_grid_db) == 10_000


@pytest.mark.parametrize("rate", [512.0, 600.0])
def test_rates_whose_threshold_overflows_are_refused(rate):
    # gamma_o = 2^(2R) - 1 leaves the float range from R = 512 on
    with pytest.raises(ValueError, match="below 512"):
        RateConfig(rate)
    with pytest.raises(ValueError, match="below 512"):
        NetworkSettings(rate=rate)
    assert math.isfinite(RateConfig(511.0).gamma_o)


@pytest.mark.parametrize("text,fragment", [
    ("[warp]\nx = 1\n", "unknown section"),
    ("[network]\nrelay = 8\n", "unknown key"),
    # the grid is an SNR: no result depends on an absolute power scale
    ("[network]\ntotal_power = 2\n", "unknown key"),
    ("[network]\nnoise_var = 2\n", "unknown key"),
    # the hops split the power evenly in the Monte-Carlo and the closed forms
    ("[network]\nsource_power_fraction = 0.8\n", "unknown key"),
    # k_factor = 0 is Rayleigh; mean power only relabels the SNR axis
    ("[fading]\ndistribution = rician\n", "unknown key"),
    ("[fading]\nmean_power = 2\n", "unknown key"),
    # rows depend on the timer only through T_m / c and window / c
    ("[protocol]\ntimer_c = 2\n", "unknown key"),
    # the flops widths and rate follow from relays, tau and f_s
    ("[flops]\nn_input = 40\n", "unknown section"),
    ("[network]\nrelays = 8\nrelays = 9\n", "duplicate key"),
    ("[network]\nrelays = eight\n", "expected an integer"),
    ("[network]\nrelays = 0\n", "at least one relay"),
    ("relays = 8\n", "outside any"),
    ("[network]\nrelays\n", "expected key = value"),
    ("[csi]\nmode = psychic\n", "unknown csi mode"),
    ("[csi]\nmode = predicted\ndelay = 0\n", "delay must be"),
    ("[csi]\nrho = 1.5\n", "rho must be"),
    ("[grid]\nsnr_db = 5:1:2\n", "stop must be"),
    ("[grid]\nsnr_db = 0:10:0\n", "step must be positive"),
    ("[grid]\nsnr_db = 0:10\n", "start:stop:step"),
    ("[schemes]\nlist = warp\n", "unknown scheme"),
    # the union of the engines' scheme tuples, in declaration order
    ("[schemes]\nlist = warp\n", "choose from df, af, ostc, dt, df-central"),
    ("[schemes]\nlist =\n", "scheme list is empty"),
    ("[predictor]\nkind = transformer\n", "must be rnn, lstm or gru"),
    ("[predictor]\nfeatures = phase\n", "magnitude or complex"),
    # the recipe raises ValueError; parsing names its section
    ("[predictor]\nepochs = 0\n", r"\[predictor\] epochs and batch size"),
    ("[fading]\ndoppler_hz = 600\n", "doppler < sample_rate/2"),
    ("[protocol]\npolicy = retry\n", "reselect or terminate"),
    ("[protocol]\nmax_phase_error_deg = -5\n", r"\[protocol\] phase error bound"),
    ("[experiment]\ntrials = 0\n", "trials must be"),
    # a nan rate compares false everywhere and reads outage 0 at every SNR
    ("[network]\nrate = nan\n", r"line 2: \[network\] rate: expected a finite"),
    ("[predictor]\nlr = inf\n", "line 2: .*expected a finite"),
    ("[predictor]\nscale = -inf\n", "expected a finite"),
    ("[fading]\nk_factor = nan\n", "expected a finite"),
    ("[protocol]\n\ntimer_max = inf\n", "line 3: .*expected a finite"),
    ("[protocol]\nuncertainty_window = nan\n", "expected a finite"),
    ("[protocol]\npilot_snr_db = inf\n", "expected a finite"),
    ("[grid]\nsnr_db = 0, nan\n", "expected a finite"),
    ("[grid]\nsnr_db = 0:inf:5\n", "expected a finite"),
    # finite points whose hop SNR lies past [1e-300, 1e300]
    ("[grid]\nsnr_db = 0, 3500\n", r"line 2: \[grid\] snr_db: .*3500 dB"),
    ("[grid]\n\nsnr_db = -4000:0:5\n", r"line 3: .*-4000 dB"),
    # 1 000 001 points, each a full Monte-Carlo, were built without a word
    ("[grid]\n\nsnr_db = 0:1000:0.001\n",
     r"line 3: \[grid\] .*more than 10000 points"),
    # gamma_o = 2^(2R) - 1 overflowed into an OverflowError traceback
    ("[network]\nrate = 600\n", r"\[network\] .*below 512"),
])
def test_malformed_text_raises(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("build", [
    lambda: ProtocolSettings(max_phase_error_deg=math.nan),
    lambda: ProtocolSettings(timer_max=math.nan),
    lambda: ProtocolSettings(timer_max=math.inf),
    lambda: ProtocolSettings(uncertainty_window=math.nan),
    lambda: ProtocolSettings(frames=math.nan),
    lambda: ProtocolSettings(pilot_snr_db=math.nan),
    lambda: FadingSettings(k_factor=math.nan),
    lambda: FadingSettings(sample_rate_hz=math.inf),
    lambda: RateConfig(math.nan),
    lambda: NetworkSettings(rate=math.nan),
    lambda: PredictorSettings(lr=math.nan),
    lambda: PredictorSettings(scale=math.inf),
], ids=["phase-nan", "timer-nan", "timer-inf", "window-nan", "frames-nan",
        "pilot-nan", "k-nan", "fs-inf", "rate-nan", "network-rate-nan",
        "lr-nan", "scale-inf"])
def test_settings_types_refuse_non_finite_values(build):
    # library callers build these directly, past the reader's finite
    # check; a nan passed every `< 0` test and ran as garbage
    with pytest.raises(ValueError):
        build()


def test_vocabulary_settings_fold_case_and_text_keeps_it():
    cfg = parse_config("""
[experiment]
name = Sweep-A
output = Runs/Rows.CSV

[schemes]
list = DF, AF

[dataset]
path = Data/DS.csv

[csi]
mode = Predicted
model = Models/M.npz

[predictor]
kind = GRU
features = Complex

[protocol]
policy = Terminate
""")
    assert (cfg.csi.mode, cfg.predictor.kind, cfg.predictor.features,
            cfg.protocol.policy) == ("predicted", "gru", "complex", "terminate")
    assert cfg.schemes == ("df", "af")
    assert (cfg.name, cfg.output, cfg.dataset.path, cfg.csi.model) == (
        "Sweep-A", "Runs/Rows.CSV", "Data/DS.csv", "Models/M.npz")


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[network]\nrelays = 8\nbogus = 1\n")


def test_hash_ignores_layout_but_not_values():
    a = parse_config("[network]\nrelays = 6\n\n[experiment]\nseed = 2\n")
    b = parse_config("[experiment]\nseed = 2\n[network]\nrelays = 6\n")
    assert a.config_hash() == b.config_hash()
    c = parse_config("[experiment]\nseed = 3\n[network]\nrelays = 6\n")
    assert c.config_hash() != a.config_hash()


def test_hash_excludes_output_path():
    a = parse_config("[experiment]\noutput = here.csv\n")
    b = parse_config("[experiment]\noutput = there.csv\n")
    assert a.config_hash() == b.config_hash()
    assert a.output != b.output
