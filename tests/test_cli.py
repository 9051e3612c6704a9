"""Command-line runner: subcommands, presets, CSV contracts."""

import csv
import functools
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from prsim import cli, predictor, simulator
from prsim.analytics import SelectionParams, outage_df
from prsim.config import (ConfigError, FadingSettings, PredictorSettings,
                          parse_config)
from prsim.numerics import bessel_j0
from prsim.predictor import LayerSpec, RecurrentNet, load_model, save_model
from prsim.selection import RateConfig


def run_main(args):
    return cli.main(list(args))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


TINY_PREDICTOR = """
[predictor]
layers = 1
neurons = 6
train_len = 300
epochs = 1
batch_size = 16
"""


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_requested_length(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "ds.csv"
    conf.write_text("[dataset]\nlength = 10\npath = %s\n" % out)
    assert run_main(["gen-data", "--config", str(conf)]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)
    assert rows.shape == (10, 16)


def test_gen_data_same_seed_is_byte_identical(tmp_path):
    conf = tmp_path / "e.conf"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    conf.write_text("[dataset]\nlength = 25\n")
    assert run_main(["gen-data", "--config", str(conf), "--out", str(a)]) == 0
    assert run_main(["gen-data", "--config", str(conf), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert "hash=" in header and "seed=" in header


# ---------------------------------------------------------------------------
# train


def _write_tiny_dataset(tmp_path, length=400):
    conf = tmp_path / "t.conf"
    ds = tmp_path / "ds.csv"
    conf.write_text(
        "[dataset]\nlength = %d\npath = %s\n%s" % (length, ds, TINY_PREDICTOR))
    assert run_main(["gen-data", "--config", str(conf)]) == 0
    return conf, ds


def test_train_smoke_one_epoch(tmp_path, capsys):
    conf, _ = _write_tiny_dataset(tmp_path)
    model = tmp_path / "m.npz"
    assert run_main(["train", "--config", str(conf), "--out", str(model)]) == 0
    shown = capsys.readouterr().out
    assert "final val mse" in shown
    assert "achieved rho" in shown
    assert model.exists()


def test_train_without_dataset_fails_with_diagnostic(tmp_path, capsys):
    conf = tmp_path / "e.conf"
    conf.write_text("[dataset]\npath = %s\n" % (tmp_path / "missing.csv"))
    assert run_main(["train", "--config", str(conf)]) == 2
    assert "gen-data" in capsys.readouterr().err


def test_train_rejects_link_count_mismatch(tmp_path, capsys):
    conf, ds = _write_tiny_dataset(tmp_path)
    bad = tmp_path / "bad.conf"
    bad.write_text("[network]\nrelays = 4\n\n[dataset]\npath = %s\n%s"
                   % (ds, TINY_PREDICTOR))
    assert run_main(["train", "--config", str(bad)]) == 2
    assert "columns" in capsys.readouterr().err


def test_shorter_training_reports_worse_mse(tmp_path):
    ds = tmp_path / "ds.csv"
    base = ("[experiment]\nseed = 0\n\n[dataset]\nlength = 5200\npath = %s\n"
            "\n[predictor]\nepochs = 4\ntrain_len = %%d\n" % ds)
    conf = tmp_path / "gen.conf"
    conf.write_text(base % 5000)
    assert run_main(["gen-data", "--config", str(conf)]) == 0
    results = {}
    for train_len in (2500, 5000):
        c = tmp_path / ("t%d.conf" % train_len)
        c.write_text(base % train_len)
        results[train_len] = cli.cmd_train(
            cli.load_config(str(c)), out=str(tmp_path / "m.npz"))
    assert results[2500]["val_mse"] > results[5000]["val_mse"]


@pytest.mark.slow
def test_train_defaults_reach_the_correlation_gate(tmp_path):
    # stock predictor settings, 5000-sample series, 3-step horizon
    ds = tmp_path / "ds.csv"
    conf = tmp_path / "e.conf"
    conf.write_text("[dataset]\nlength = 5000\npath = %s\n" % ds)
    assert run_main(["gen-data", "--config", str(conf)]) == 0
    result = cli.cmd_train(cli.load_config(str(conf)),
                           out=str(tmp_path / "m.npz"))
    assert result["rho"] >= 0.9
    rho_outdated = bessel_j0(2 * np.pi * 100.0 * 3e-3)
    assert result["rho"] > 2 * rho_outdated


# ---------------------------------------------------------------------------
# outage / capacity


def test_outage_smoke_grid_is_fast_and_deterministic(tmp_path):
    conf = tmp_path / "e.conf"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    conf.write_text("""
[experiment]
trials = 1000

[grid]
snr_db = 0:30:5

[schemes]
list = df, af, ostc, dt

[csi]
mode = synthetic
rho = 0.9
""")
    start = time.time()
    assert run_main(["outage", "--config", str(conf), "--out", str(out_a)]) == 0
    assert time.time() - start < 5.0
    assert run_main(["outage", "--config", str(conf), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = read_rows(out_a)
    assert len(rows) == 4 * 7
    assert set(r["rho_mode"] for r in rows) == {"synthetic(0.9)", "direct"}


def test_outage_analytic_column_rules(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[experiment]
trials = 10000

[grid]
snr_db = 10

[schemes]
list = df, af, ostc, dt

[csi]
mode = synthetic
rho = 0.8
""")
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    rows = {r["scheme"]: r for r in read_rows(out)}
    hop = 0.5 * 10.0
    want = outage_df(SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop,
                                     rho=0.8, gamma_o=3.0))
    assert float(rows["df"]["analytic"]) == pytest.approx(want, rel=1e-12)
    assert rows["ostc"]["analytic"] == ""
    assert float(rows["af"]["analytic"]) > 0
    assert float(rows["dt"]["analytic"]) == pytest.approx(
        1.0 - np.exp(-1.0 / 10.0), rel=1e-12)
    for r in rows.values():
        assert r["config_hash"] and r["seed"] == "0"


@pytest.mark.parametrize("command", ["outage", "capacity"])
def test_relay_count_past_the_closed_forms_fails_before_drawing(
        tmp_path, capsys, monkeypatch, command):
    # the config and estimate take 2000 relays, but no float holds the
    # closed forms' weights there: refuse before the Monte-Carlo
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the analytic column")

    monkeypatch.setattr(cli, "estimate", no_draws)
    monkeypatch.setattr(cli, "simulate_frames", no_draws)
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[network]
relays = 2000

[grid]
snr_db = 10

[schemes]
list = df, af

[csi]
mode = synthetic
rho = 0.9
""")
    assert run_main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert "K = 2000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, schemes", [("outage", "df, dt"),
                                              ("protocol-sim", "df, af")])
@pytest.mark.parametrize("snr_db", ["3500", "-4000", "3079"])
def test_grid_points_past_the_float_range_fail_before_any_work(
        tmp_path, capsys, monkeypatch, command, schemes, snr_db):
    # 10^(snr/10) overflows at 3500 dB and underflows to 0 at -4000 dB;
    # the run ended in an OverflowError or ZeroDivisionError traceback.
    # At 3079 dB outage wrote rate = inf on every row.
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a point no engine can hold")

    for name in ("estimate", "simulate_frames", "generate_series"):
        monkeypatch.setattr(cli, name, no_work)
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("[grid]\nsnr_db = 0, %s\n\n[schemes]\nlist = %s\n\n"
                    "[csi]\nmode = synthetic\nrho = 0.9\n" % (snr_db, schemes))
    assert run_main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 2: [grid] snr_db: SNR grid point %s dB" % snr_db)
    assert not out.exists()


def test_rate_past_the_threshold_float_range_fails_cleanly(tmp_path, capsys):
    # 2^(2R) overflowed at rate = 600: an OverflowError traceback, exit 1
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("[network]\nrate = 600\n")
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 2
    assert "below 512" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db, extra", [
    ("-1700", ""), ("1700", "[network]\nrate = 511\n")])
def test_af_mean_snr_past_the_float_range_fails_before_any_draw(
        tmp_path, capsys, monkeypatch, snr_db, extra):
    # gamma_e = sr rd / (sr + rd) was 0 at -1700 dB (a ZeroDivisionError
    # traceback, exit 1) and inf at 1700 dB (an analytic outage of 0
    # beside a Monte-Carlo 1.0 at rate 511)
    def no_work(*args, **kwargs):
        raise AssertionError("drew before the closed forms refused")

    monkeypatch.setattr(cli, "estimate", no_work)
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("[grid]\nsnr_db = %s\n[schemes]\nlist = af\n[csi]\n"
                    "mode = synthetic\nrho = 0.9\n%s" % (snr_db, extra))
    for command in ("outage", "capacity"):
        assert run_main([command, "--config", str(conf),
                         "--out", str(out)]) == 2
        assert "gamma_e" in capsys.readouterr().err
        assert not out.exists()


def test_closed_form_cells_refuse_points_past_the_float_range():
    cfg = parse_config("")
    for scheme in ("df", "af", "dt"):
        spec = cli.RunSpec(scheme, 8, "perfect", rho=1.0)
        for command in ("outage", "capacity"):
            for snr_db in (3500.0, -4000.0):
                with pytest.raises(ValueError, match="float range"):
                    cli._analytic(command, spec, cfg, snr_db, 1.0)


def test_capacity_runs_in_the_deep_tail(tmp_path):
    # the single-link capacity overflowed its asymptotic series below
    # a mean SNR of 1e-38, and capacity_df reaches it at -390 dB
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("[experiment]\ntrials = 10000\n\n[grid]\n"
                    "snr_db = -400, -390\n\n[csi]\nmode = synthetic\n"
                    "rho = 0.9\n")
    assert run_main(["capacity", "--config", str(conf), "--out", str(out)]) == 0
    for row in read_rows(out):
        assert float(row["rate"]) == 0.0
        assert 0.0 <= float(row["analytic"]) <= 1e-200


def test_direct_outage_is_exact_in_the_deep_tail():
    # 1 - exp(-x) keeps no digit of x once x nears the float spacing
    # of 1; at these SNRs x - x^2/2 is exact to double precision
    cfg = parse_config("")
    spec = cli.RunSpec("dt", 8, "direct", rho=1.0)
    threshold = RateConfig(cfg.network.rate).direct_threshold
    for snr_db in (150.0, 155.0, 160.0, 165.0, 170.0):
        x = threshold / 10.0 ** (snr_db / 10.0)
        got = cli._analytic("outage", spec, cfg, snr_db, 1.0)
        assert got == pytest.approx(x - x * x / 2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("command", ["outage", "capacity"])
def test_impaired_direct_rows_carry_the_closed_form(tmp_path, command):
    # dt has no metric and its draw models no phase error, so an
    # impaired config's dt rows are the clean run's, closed form included
    conf = tmp_path / "e.conf"
    text = """
[experiment]
trials = 10000

[grid]
snr_db = 0:20:10

[schemes]
list = df, dt

[csi]
mode = synthetic
rho = 0.9
"""
    rows = {}
    for name, extra in (("clean", ""), ("impaired", "[protocol]\n"
                        "pilot_snr_db = 20\nmax_phase_error_deg = 10\n")):
        conf.write_text(text + extra)
        out = tmp_path / (name + ".csv")
        assert run_main([command, "--config", str(conf),
                         "--out", str(out)]) == 0
        rows[name] = read_rows(out)
    for clean, impaired in zip(rows["clean"], rows["impaired"]):
        if clean["scheme"] == "dt":
            assert impaired["analytic"] != ""
            for key in ("outage", "rate", "analytic"):
                assert impaired[key] == clean[key], key
        else:
            assert impaired["analytic"] == ""


def test_zero_phase_bound_without_pilot_noise_is_unimpaired(tmp_path):
    # estimate draws no phase error for a zero bound, so the key changes no
    # draw: the rows are the key-free run's, closed form included, and
    # protocol-sim accepts the config
    text = """
[experiment]
trials = 10000

[network]
relays = 8

[grid]
snr_db = 10

[csi]
mode = synthetic
rho = 0.9

[protocol]
frames = 2000
"""
    conf = tmp_path / "e.conf"
    for command, schemes in (("outage", "df, af, dt"),
                             ("protocol-sim", "df, af, df-central")):
        rows = {}
        for name, extra in (("clean", ""), ("zero", "max_phase_error_deg = 0\n")):
            conf.write_text(text + extra + "[schemes]\nlist = %s\n" % schemes)
            out = tmp_path / ("%s-%s.csv" % (command, name))
            assert run_main([command, "--config", str(conf),
                             "--out", str(out)]) == 0
            rows[name] = read_rows(out)
        assert len(rows["zero"]) == 3
        for clean, zero in zip(rows["clean"], rows["zero"]):
            clean.pop("config_hash")
            zero.pop("config_hash")
            assert zero == clean
            if command == "outage":
                assert zero["analytic"] != ""


@pytest.mark.parametrize("delay", [3, 5])
def test_outdated_mode_rows_carry_the_closed_form(tmp_path, delay):
    # at 100 Hz and 1 kHz, J0 is 0.29 at delay 3 and -0.30 at delay 5;
    # the pair law and the ranking depend on rho^2 only, so both run
    # and fill the analytic column at |J0|
    j0 = bessel_j0(2 * np.pi * 100.0 * delay * 1e-3)
    assert (j0 < 0) == (delay == 5)
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[experiment]
trials = 10000

[grid]
snr_db = 10

[schemes]
list = df, af

[csi]
mode = outdated
delay = %d
""" % delay)
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    rows = {r["scheme"]: r for r in read_rows(out)}
    assert rows["df"]["rho_mode"] == "outdated(%d)" % delay
    hop = 0.5 * 10.0
    want = outage_df(SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop,
                                     rho=abs(j0), gamma_o=3.0))
    assert float(rows["df"]["analytic"]) == pytest.approx(want, rel=1e-12)
    assert 0.0 < float(rows["af"]["analytic"]) < 1.0


def test_predicted_mode_trains_on_the_fly(tmp_path, capsys):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[experiment]
trials = 10000

[grid]
snr_db = 10

[csi]
mode = predicted
delay = 3
%s""" % TINY_PREDICTOR)
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    assert "resolved predicted(3)" in capsys.readouterr().out
    (row,) = read_rows(out)
    assert row["rho_mode"] == "predicted(3)"
    assert row["analytic"] != ""


def test_predicted_run_reports_each_predictor_once(tmp_path, capsys):
    # df and af share one predictor, so one "resolved" line per step
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[experiment]
trials = 10000

[grid]
snr_db = 10

[csi]
mode = predicted
delay = 3

[schemes]
list = df, af
%s""" % TINY_PREDICTOR)
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if re.match(r"^resolved \S+: rho=", ln)]
    assert len(lines) == 1
    assert lines[0].startswith("resolved predicted(3): rho=")
    assert {r["scheme"] for r in read_rows(out)} == {"df", "af"}


def test_predicted_mode_requires_named_model_to_exist(tmp_path, capsys):
    conf = tmp_path / "e.conf"
    conf.write_text("""
[csi]
mode = predicted
delay = 3
model = %s
""" % (tmp_path / "missing.npz"))
    assert run_main(["outage", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert "not found" in capsys.readouterr().err


def test_capacity_rows_include_closed_forms(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[experiment]
trials = 200000

[grid]
snr_db = 10

[schemes]
list = df, dt

[csi]
mode = perfect
""")
    assert run_main(["capacity", "--config", str(conf), "--out", str(out)]) == 0
    rows = {r["scheme"]: r for r in read_rows(out)}
    for scheme in ("df", "dt"):
        mc = float(rows[scheme]["rate"])
        exact = float(rows[scheme]["analytic"])
        assert mc == pytest.approx(exact, rel=0.03)


# ---------------------------------------------------------------------------
# flops


MAGNITUDE = "[predictor]\nfeatures = magnitude\n"


def test_flops_reference_architecture(tmp_path):
    # the reference predictor regresses the K = 8 magnitudes: 40 inputs
    result = cli.cmd_flops(parse_config(MAGNITUDE))
    assert result["exact"] == 25_400
    assert result["simplified"] == 22_500
    assert result["flops"] == pytest.approx(25.4e6)


def test_flops_rnn_is_cheaper_and_gru_table_value(tmp_path):
    rnn = cli.cmd_flops(parse_config("[predictor]\nkind = rnn\n"))
    lstm = cli.cmd_flops(parse_config(""))
    gru = cli.cmd_flops(parse_config("[predictor]\nkind = gru\n"))
    assert rnn["exact"] < lstm["exact"]
    assert gru["simplified"] == 4 * (1 + 3 * 2) * 25 * 25


def test_flops_csv_row_is_self_describing(tmp_path):
    # the default complex features: 2K(tau+1) = 80 in, 2K = 16 out
    out = tmp_path / "f.csv"
    assert run_main(["flops", "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert (row["n_input"], row["n_output"], row["exact"]) == ("80", "16",
                                                               "35800")
    assert row["config_hash"]


def flops_row(tmp_path, features):
    # K = 4, tau = 2, f_s = 500 Hz
    conf = tmp_path / "e.conf"
    out = tmp_path / "f.csv"
    conf.write_text("[network]\nrelays = 4\n[predictor]\ntau = 2\n"
                    "features = %s\n[fading]\nsample_rate_hz = 500\n"
                    % features)
    assert run_main(["flops", "--config", str(conf), "--out", str(out)]) == 0
    (row,) = read_rows(out)
    return row


def test_flops_widths_and_rate_follow_the_network(tmp_path):
    # complex features: 2K re/im parts per instant, tau+1 instants in,
    # 2K out, one prediction per sample
    row = flops_row(tmp_path, "complex")
    assert (row["n_input"], row["n_output"], row["exact"]) == ("24", "8", "21400")
    assert float(row["flops"]) == 21400 * 500


def test_flops_magnitude_features_halve_the_widths(tmp_path):
    row = flops_row(tmp_path, "magnitude")
    assert (row["n_input"], row["n_output"], row["exact"]) == ("12", "4", "18200")
    assert float(row["flops"]) == 18200 * 500


# ---------------------------------------------------------------------------
# protocol-sim


def test_protocol_sim_synthetic_smoke(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[grid]
snr_db = 10, 16

[schemes]
list = df, df-central, af

[csi]
mode = synthetic
rho = 0.9

[protocol]
frames = 3000
uncertainty_window = 0.01
""")
    assert run_main(["protocol-sim", "--config", str(conf),
                     "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 6
    by_scheme = {}
    for r in rows:
        by_scheme.setdefault(r["scheme"], []).append(r)
    assert set(by_scheme) == {"df", "df-central", "af"}
    # the timer race with a nonzero window must report some collisions
    assert any(float(r["collision_rate"]) > 0 for r in by_scheme["df"])
    assert all(float(r["collision_rate"]) == 0 for r in by_scheme["df-central"])


def test_protocol_sim_outdated_records(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[grid]
snr_db = 12

[schemes]
list = df

[csi]
mode = outdated
delay = 3

[protocol]
frames = 2000
""")
    assert run_main(["protocol-sim", "--config", str(conf),
                     "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert row["rho_mode"] == "outdated(3)"
    assert 0.0 <= float(row["outage"]) <= 1.0


def test_each_protocol_key_reaches_the_rows(tmp_path):
    # frames sets the trial count, a low timer cap ties most timers to
    # the lowest id, and terminate forgoes the decoders the
    # destination's pick leaves behind
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    text = """
[csi]
mode = synthetic
rho = 0.9

[schemes]
list = df, df-central

[grid]
snr_db = 10

[protocol]
frames = 3000
"""

    def outage(extra=""):
        conf.write_text(text + extra)
        assert run_main(["protocol-sim", "--config", str(conf),
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["trials"] for r in rows] == ["2999", "2999"]
        return {r["scheme"]: float(r["outage"]) for r in rows}

    default = outage()
    assert outage("timer_max = 0.5\n")["df"] > default["df"] + 0.1
    assert (outage("policy = terminate\n")["df-central"]
            > default["df-central"] + 0.1)


def test_protocol_sim_needs_a_frame_scheme(tmp_path, capsys):
    conf = tmp_path / "e.conf"
    conf.write_text("[schemes]\nlist = dt\n")
    assert run_main(["protocol-sim", "--config", str(conf)]) == 2
    assert "protocol-sim" in capsys.readouterr().err


def _count_record_series(monkeypatch, seed):
    """Links of the hop records cli.generate_series synthesizes."""
    calls = []
    real = cli.generate_series
    hops = {cli._sub_seed(seed, tag) for tag in (cli._SR_TAG, cli._RD_TAG)}

    def counting(cfg, length, link=0):
        if cfg.seed in hops:  # not the training record
            calls.append(link)
        return real(cfg, length, link)

    monkeypatch.setattr(cli, "generate_series", counting)
    return calls


def test_protocol_sim_synthesizes_each_record_once(tmp_path, monkeypatch):
    # the hop records depend on neither the scheme nor the SNR, so a run
    # builds its network once: one series per relay and hop
    calls = _count_record_series(monkeypatch, seed=0)
    conf = tmp_path / "e.conf"
    conf.write_text("""
[network]
relays = 3

[grid]
snr_db = 10, 20

[schemes]
list = df, af

[csi]
mode = outdated
delay = 3

[protocol]
frames = 500
""")
    assert run_main(["protocol-sim", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert len(read_rows(tmp_path / "r.csv")) == 4
    assert len(calls) == 2 * 3


def test_protocol_sim_draws_the_synthetic_block_once(tmp_path, monkeypatch):
    # every scheme and grid point replays one block of synthetic frames
    keys = []
    real = simulator.stream

    def counting(seed, *key):
        keys.append((seed,) + key)
        return real(seed, *key)

    monkeypatch.setattr(simulator, "stream", counting)
    conf = tmp_path / "e.conf"
    conf.write_text("""
[experiment]
seed = 4

[csi]
mode = synthetic
rho = 0.9

[schemes]
list = df, af, df-central

[grid]
snr_db = 0:30:10

[protocol]
frames = 500
""")
    assert run_main(["protocol-sim", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert len(read_rows(tmp_path / "r.csv")) == 12
    assert keys == [(4, 41)]


def test_protocol_and_curve_rows_share_rho_mode_labels(tmp_path):
    # both subcommands write one row layout: header, label, grid point
    # and the estimate's own outage and trial count
    for csi, label in (("mode = perfect", "perfect"),
                       ("mode = synthetic\nrho = 0.9", "synthetic(0.9)"),
                       ("mode = outdated\ndelay = 2", "outdated(2)")):
        conf = tmp_path / "e.conf"
        conf.write_text("[csi]\n%s\n\n[grid]\nsnr_db = 10\n\n"
                        "[experiment]\ntrials = 10000\n\n"
                        "[protocol]\nframes = 200\n" % csi)
        labels = set()
        for command, trials in (("outage", "10000"), ("protocol-sim", "199")):
            out = tmp_path / (command + ".csv")
            assert run_main([command, "--config", str(conf),
                             "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                assert tuple(next(csv.reader(fh))) == cli.RESULT_FIELDS
            (row,) = read_rows(out)
            assert (row["snr_db"], row["trials"]) == ("10.0", trials)
            labels.add(row["rho_mode"])
        assert labels == {label}
    cfg = parse_config(conf.read_text())
    (est,), = cli.estimate(["df"], [10.0], 10000,
                           num_relays=cfg.network.relays,
                           rho=cli._csi_rho(cfg),
                           rate=RateConfig(cfg.network.rate), seed=cfg.seed)
    assert read_rows(tmp_path / "outage.csv")[0]["outage"] == repr(
        est.outage_prob)


@pytest.mark.parametrize("key", ["pilot_snr_db = 20",
                                 "max_phase_error_deg = 5"])
def test_protocol_sim_rejects_impairments_it_ignores(tmp_path, key):
    cfg = parse_config("[csi]\nmode = synthetic\n\n[protocol]\n%s\n" % key)
    with pytest.raises(ConfigError, match=key.split()[0]):
        cli.cmd_protocol_sim(cfg, out=str(tmp_path / "r.csv"))


def test_protocol_sim_rejects_schemes_it_does_not_run(tmp_path):
    out = tmp_path / "r.csv"
    cfg = parse_config("[csi]\nmode = synthetic\n\n"
                       "[schemes]\nlist = df, ostc, dt\n")
    with pytest.raises(ConfigError, match="ostc, dt"):
        cli.cmd_protocol_sim(cfg, out=str(out))
    assert not out.exists()


# ---------------------------------------------------------------------------
# predict-eval


def test_predict_eval_uses_saved_model(tmp_path):
    conf, _ = _write_tiny_dataset(tmp_path)
    model = tmp_path / "m.npz"
    assert run_main(["train", "--config", str(conf), "--out", str(model)]) == 0
    econf = tmp_path / "pe.conf"
    econf.write_text("""
[csi]
mode = predicted
delay = 3
model = %s
%s""" % (model, TINY_PREDICTOR))
    out = tmp_path / "pe.csv"
    assert run_main(["predict-eval", "--config", str(econf),
                     "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert float(row["rho_outdated"]) == pytest.approx(
        bessel_j0(2 * np.pi * 100.0 * 3e-3), abs=1e-9)
    assert 0.0 <= float(row["rho_predicted"]) <= 1.0
    assert float(row["error_power"]) > 0


def test_model_path_without_npz_suffix_is_kept(tmp_path, capsys):
    # numpy's savez appends .npz to a bare path; train must write the
    # file the config names, so that outage finds it
    _, ds = _write_tiny_dataset(tmp_path)
    model = tmp_path / "m.bin"
    conf = tmp_path / "e.conf"
    conf.write_text("""
[experiment]
trials = 10000

[dataset]
path = %s

[csi]
mode = predicted
delay = 3
model = %s

[grid]
snr_db = 10
%s""" % (ds, model, TINY_PREDICTOR))
    assert run_main(["train", "--config", str(conf)]) == 0
    assert "model saved to %s" % model in capsys.readouterr().out
    assert model.exists() and not (tmp_path / "m.bin.npz").exists()
    assert run_main(["outage", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 0


def test_predict_eval_reports_the_correlation_selection_sees(tmp_path):
    # J0(2 pi 100 Hz 4 ms) = -0.05496: the row carries |J0|, as the
    # outdated runs select at, beside the magnitude rho_predicted
    conf = tmp_path / "e.conf"
    conf.write_text("[csi]\nmode = predicted\ndelay = 4\n%s" % TINY_PREDICTOR)
    out = tmp_path / "pe.csv"
    assert run_main(["predict-eval", "--config", str(conf),
                     "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert float(row["doppler_hz"]) == 100.0 and row["horizon"] == "4"
    assert float(row["rho_outdated"]) == pytest.approx(0.05496, abs=5e-6)
    assert float(row["rho_outdated"]) == pytest.approx(
        abs(bessel_j0(2 * np.pi * 100.0 * 4e-3)), abs=1e-12)


@pytest.fixture(scope="module")
def horizon3_model(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("model")
    conf, _ = _write_tiny_dataset(tmp_path)
    model = tmp_path / "m.npz"
    assert run_main(["train", "--config", str(conf), "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize("command, delay, extra, setting", [
    ("outage", 1, "", "horizon"),
    ("predict-eval", 3, "scale = 1.0", "scale"),
    ("outage", 3, "tau = 2", "tau"),
    ("outage", 3, "[network]\nrelays = 4", "links"),
])
def test_model_file_must_fit_the_config(tmp_path, capsys, horizon3_model,
                                        command, delay, extra, setting):
    # the model was fit at horizon 3 on 8 links, default tau and scale
    conf = tmp_path / "e.conf"
    conf.write_text("[csi]\nmode = predicted\ndelay = %d\nmodel = %s\n%s%s\n"
                    % (delay, horizon3_model, TINY_PREDICTOR, extra))
    capsys.readouterr()
    assert run_main([command, "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: model file") and setting in err
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# model cache


PREDICTED = """
[experiment]
trials = 10000

[grid]
snr_db = 10

[csi]
mode = predicted
delay = 3
%s""" % TINY_PREDICTOR


@pytest.fixture
def fits(monkeypatch):
    """Horizons of the trainings the CLI runs, in order."""
    seen = []
    real = cli.train_link_predictor

    def counting(*args, **kwargs):
        seen.append(kwargs["horizon"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train_link_predictor", counting)
    return seen


def test_warm_run_trains_nothing(tmp_path, fits):
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED)
    for name in ("cold.csv", "warm.csv"):
        assert run_main(["outage", "--config", str(conf),
                         "--out", str(tmp_path / name)]) == 0
    assert fits == [3]
    assert (tmp_path / "cold.csv").read_bytes() == \
        (tmp_path / "warm.csv").read_bytes()
    (entry,) = (tmp_path / ".prsim-cache").glob("*.npz")


def test_damaged_cache_entry_is_retrained_and_replaced(tmp_path, fits):
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED)
    out = tmp_path / "r.csv"
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    first = out.read_bytes()
    cache = tmp_path / ".prsim-cache"
    (entry,) = cache.glob("*.npz")
    whole = entry.read_bytes()
    entry.write_bytes(whole[:len(whole) // 2])
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    assert fits == [3, 3]
    assert out.read_bytes() == first
    assert [p.name for p in cache.glob("*.npz")] == [entry.name]
    assert not list(cache.glob("*.tmp"))
    assert entry.read_bytes() == whole
    load_model(entry)


def test_predict_eval_and_protocol_sim_share_the_cache(tmp_path, fits):
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED + "[protocol]\nframes = 200\n")
    runs = tmp_path / "runs"
    runs.mkdir()
    for command in ("predict-eval", "protocol-sim", "outage"):
        assert run_main([command, "--config", str(conf),
                         "--out", str(runs / (command + ".csv"))]) == 0
    assert fits == [3]
    assert len(list((runs / ".prsim-cache").glob("*.npz"))) == 1


def test_magnitude_predictors_stay_off_synthetic_pair_rows(tmp_path, capsys,
                                                          fits):
    # a magnitude predictor resolves the envelope correlation (0.79 at a
    # complex 0.9 on Gaussian pairs), and the pair law takes the complex
    # one: its synthetic-pair rows ran at the wrong rho, unannounced
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED + "features = magnitude\n[protocol]\n"
                    "frames = 200\n")
    for command in ("outage", "capacity"):
        out = tmp_path / (command + ".csv")
        assert run_main([command, "--config", str(conf),
                         "--out", str(out)]) == 2
        assert "features = complex" in capsys.readouterr().err
        assert not out.exists()
    assert fits == []  # refused before any training
    # record-driven rows and predict-eval keep magnitude predictors
    for command in ("protocol-sim", "predict-eval"):
        assert run_main([command, "--config", str(conf),
                         "--out", str(tmp_path / (command + ".csv"))]) == 0
    assert fits == [3]


def test_storing_an_entry_deletes_other_code_versions(tmp_path, monkeypatch,
                                                      fits):
    conf = tmp_path / "e.conf"
    cache = tmp_path / ".prsim-cache"

    def entries_after_run(digest, delay=3):
        monkeypatch.setattr(cli, "_code_digest", lambda: digest)
        conf.write_text(PREDICTED.replace("delay = 3", "delay = %d" % delay))
        assert run_main(["predict-eval", "--config", str(conf),
                         "--out", str(tmp_path / "r.csv")]) == 0
        return sorted(p.name for p in cache.iterdir())

    old, new = "a" * 64, "b" * 64
    (first,) = entries_after_run(old)
    assert first.startswith(old + "-") and first.endswith(".npz")
    (second,) = entries_after_run(new)  # a code edit retrains ...
    assert second.startswith(new + "-")  # ... and drops the stale entry
    both = entries_after_run(new, delay=2)  # same code: entries coexist
    assert len(both) == 2 and all(n.startswith(new + "-") for n in both)
    assert entries_after_run(new) == both  # a hit writes nothing
    assert fits == [3, 3, 2]


def _store_and_load(directory, rounds):
    # spawned worker: rewrite a model and a JSON entry, read both back
    layout = {"tau": 1, "horizon": 1, "features": "magnitude",
              "scale": 1.0, "links": 2}
    net = RecurrentNet(4, (LayerSpec("lstm", 3),), 2, seed=0, layout=layout)
    model = cli._entry(directory, "model", ".npz")
    entry = cli._entry(directory, "curve", ".json")
    points = [[10000, 0.5 + i / 7e3, 0.005, 1.25, 0.0] for i in range(2000)]
    for _ in range(rounds):
        cli._store(model, functools.partial(save_model, net))
        cli._load_fitting(model, layout)  # raises on a partial archive
        cli._store(entry, functools.partial(cli._write_json, points))
        if cli._load_json(entry) != points:  # raises on a partial entry
            raise AssertionError("JSON entry changed in the round trip")


def test_concurrent_writers_never_expose_a_partial_entry(tmp_path):
    directory = str(tmp_path / ".prsim-cache")
    ctx = multiprocessing.get_context("spawn")
    workers = [ctx.Process(target=_store_and_load, args=(directory, 40))
               for _ in range(3)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert [w.exitcode for w in workers] == [0, 0, 0]
    finally:
        for w in workers:
            if w.is_alive():
                w.kill()
    assert sorted(os.listdir(directory)) == [
        os.path.basename(cli._entry(directory, "curve", ".json")),
        os.path.basename(cli._entry(directory, "model", ".npz"))]


SYNTHETIC = """
[experiment]
trials = 10000

[grid]
snr_db = 0, 10

[schemes]
list = df, af, ostc, dt

[csi]
mode = synthetic
rho = 0.9
"""


@pytest.fixture
def draws(monkeypatch):
    """Scheme lists of the estimate calls the CLI makes, in order."""
    seen = []
    real = cli.estimate

    def recording(schemes, *args, **kwargs):
        seen.append(list(schemes))
        return real(schemes, *args, **kwargs)

    monkeypatch.setattr(cli, "estimate", recording)
    return seen


@pytest.mark.parametrize("first, second", [("outage", "capacity"),
                                           ("capacity", "outage")])
@pytest.mark.parametrize("text", [SYNTHETIC,
                                  PREDICTED + "[schemes]\nlist = df, af\n"],
                         ids=["synthetic", "predicted"])
def test_second_subcommand_on_one_config_draws_nothing(
        tmp_path, monkeypatch, capsys, first, second, text):
    def no_work(*args, **kwargs):
        raise AssertionError("a warm run drew or evaluated")

    conf = tmp_path / "e.conf"
    conf.write_text(text)
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    assert run_main([second, "--config", str(conf),
                     "--out", str(cold / "r.csv")]) == 0
    cold_log = capsys.readouterr().out
    assert run_main([first, "--config", str(conf),
                     "--out", str(warm / "first.csv")]) == 0
    capsys.readouterr()
    with monkeypatch.context() as patch:
        for name in ("estimate", "generate_series", "predict_series"):
            patch.setattr(cli, name, no_work)
        assert run_main([second, "--config", str(conf),
                         "--out", str(warm / "r.csv")]) == 0
    assert (warm / "r.csv").read_bytes() == (cold / "r.csv").read_bytes()
    # the resolved rho line, when there is one, prints as on a miss
    assert capsys.readouterr().out.replace(str(warm), str(cold)) == cold_log


def test_truncated_curve_entry_is_redrawn_and_replaced(tmp_path, draws):
    conf = tmp_path / "e.conf"
    conf.write_text(SYNTHETIC)
    out = tmp_path / "r.csv"
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    assert sorted(sum(draws, [])) == ["af", "df", "dt", "ostc"]
    del draws[:]
    first = out.read_bytes()
    cache = tmp_path / ".prsim-cache"
    entries = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert len(entries) == 4 and all(n.endswith(".json") for n in entries)
    victim = cache / sorted(entries)[0]
    victim.write_bytes(entries[victim.name][:len(entries[victim.name]) // 2])
    assert run_main(["capacity", "--config", str(conf),
                     "--out", str(tmp_path / "c.csv")]) == 0
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    assert len(sum(draws, [])) == 1  # the damaged scheme, drawn once
    assert out.read_bytes() == first
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == entries


def test_impaired_curves_are_keyed_by_what_estimate_reads(tmp_path, draws):
    # estimate reads [protocol]'s acquisition impairments only, so a run
    # that differs in the frame count and the timer race draws nothing
    impaired = (SYNTHETIC.replace("df, af, ostc, dt", "df, af")
                + "\n[protocol]\npilot_snr_db = 20\n")
    conf, out = tmp_path / "e.conf", tmp_path / "r.csv"
    outages = []
    for extra in ("", "frames = 5000\nuncertainty_window = 0.01\n"):
        conf.write_text(impaired + extra)
        assert run_main(["outage", "--config", str(conf),
                         "--out", str(out)]) == 0
        outages.append([row["outage"] for row in read_rows(out)])
    assert draws == [["df", "af"]]
    assert outages[0] == outages[1]


def test_truncated_rho_entry_is_reevaluated_and_replaced(tmp_path,
                                                         monkeypatch, fits):
    evals = []
    real = cli.predict_series

    def counting(*args, **kwargs):
        evals.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_series", counting)
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED)
    out = tmp_path / "r.csv"
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    first = out.read_bytes()
    cache = tmp_path / ".prsim-cache"
    (rho,) = [p for p in cache.glob("*.json") if "rho" in p.read_text()]
    whole = rho.read_bytes()
    rho.write_bytes(whole[:-1])
    assert run_main(["outage", "--config", str(conf), "--out", str(out)]) == 0
    assert fits == [3] and len(evals) == 2
    assert out.read_bytes() == first and rho.read_bytes() == whole
    assert not list(cache.glob("*.tmp"))


@pytest.fixture
def evals(monkeypatch):
    """One entry per predictor evaluation the CLI runs."""
    seen = []
    real = cli.predict_series

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_series", counting)
    return seen


def _resolved(log):
    (line,) = [s for s in log.splitlines() if s.startswith("resolved")]
    return line


def test_rho_entry_belongs_to_the_weights_it_was_evaluated_on(
        tmp_path, capsys, fits, evals):
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED)
    other, cold = tmp_path / "other", tmp_path / "cold"
    other.mkdir()
    cold.mkdir()
    assert run_main(["outage", "--config", str(conf), "--seed", "1",
                     "--out", str(other / "r.csv")]) == 0
    (theirs,) = (other / ".prsim-cache").glob("*.npz")
    capsys.readouterr()
    assert run_main(["outage", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 0
    own = _resolved(capsys.readouterr().out)
    # a net of the same layout, trained under another seed, takes the
    # place of the cached model
    (ours,) = (tmp_path / ".prsim-cache").glob("*.npz")
    ours.write_bytes(theirs.read_bytes())
    del evals[:]
    assert run_main(["outage", "--config", str(conf),
                     "--out", str(tmp_path / "r.csv")]) == 0
    swapped = _resolved(capsys.readouterr().out)
    assert len(evals) == 1 and fits == [3, 3]
    # what a cold run of that net prints
    conf.write_text(PREDICTED.replace("delay = 3",
                                      "delay = 3\nmodel = %s" % theirs))
    assert run_main(["outage", "--config", str(conf),
                     "--out", str(cold / "r.csv")]) == 0
    assert _resolved(capsys.readouterr().out) == swapped != own


def test_model_file_rho_is_cached_until_the_file_changes(tmp_path, evals):
    train, _ = _write_tiny_dataset(tmp_path)
    model = tmp_path / "m.npz"
    assert run_main(["train", "--config", str(train),
                     "--out", str(model)]) == 0
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED.replace("delay = 3",
                                      "delay = 3\nmodel = %s" % model))
    out = tmp_path / "r.csv"

    def outage():
        del evals[:]
        assert run_main(["outage", "--config", str(conf),
                         "--out", str(out)]) == 0
        return len(evals)

    assert [outage(), outage()] == [1, 0]
    assert run_main(["train", "--config", str(train), "--seed", "1",
                     "--out", str(model)]) == 0
    assert [outage(), outage()] == [1, 0]


def test_cache_keys_name_the_blas_kernel(tmp_path, monkeypatch, fits):
    conf = tmp_path / "e.conf"
    conf.write_text(PREDICTED + "[schemes]\nlist = df\n")
    cache = tmp_path / ".prsim-cache"
    names = []
    for core in ("SkylakeX", "Haswell"):
        monkeypatch.setattr(cli, "_blas_core", lambda core=core: core)
        assert run_main(["outage", "--config", str(conf),
                         "--out", str(tmp_path / "r.csv")]) == 0
        names.append({p.name for p in cache.iterdir()})
    # the model, its rho and the df curve, each stored again
    assert sorted(Path(n).suffix for n in names[0]) == [".json", ".json",
                                                        ".npz"]
    assert len(names[1]) == 6 and names[0] < names[1]
    assert fits == [3, 3]


def test_blas_kernel_probe_reads_a_forced_kernel():
    if cli._blas_core() == "unknown":
        pytest.skip("numpy's BLAS does not name its kernel")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    shown = subprocess.run(
        [sys.executable, "-c", "from prsim import cli; print(cli._blas_core())"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert shown.stdout.strip() == "Haswell"


def test_storing_purges_other_code_versions_but_no_temp_file(tmp_path):
    cache = tmp_path / ".prsim-cache"
    cache.mkdir()
    old = "a" * 64 + "-"
    stale = [old + "curve.json", old + "model.npz", old + "model.json"]
    kept = ["tmpq3x_z1.tmp", old + "x.tmp",
            os.path.basename(cli._entry(str(cache), "other", ".npz"))]
    for name in stale + kept:
        (cache / name).write_text("{}")
    path = cli._entry(str(cache), "new", ".json")
    cli._store(path, functools.partial(cli._write_json, [0.25]))
    assert sorted(os.listdir(cache)) == sorted(
        kept + [os.path.basename(path)])
    assert cli._load_json(path) == [0.25]


def test_preset_curves_are_drawn_once_per_directory(tmp_path, monkeypatch,
                                                    draws):
    # fig6a's seven curves all appear in fig4a or fig4b; fig6b shares
    # its unimpaired predicted and outdated df curves with fig4a and
    # draws its five impaired ones.  Each horizon resolves a fixed rho.
    rhos = {1: 0.97, 2: 0.95, 3: 0.93}
    monkeypatch.setattr(cli, "_predictor_rho",
                        lambda cfg, cache, fading, horizon, links: rhos[horizon])
    counts = {}
    for name in ("fig4a", "fig4b", "fig6a", "fig6b"):
        cfg, command, runs = cli.PRESETS[name]()
        cfg = replace(cfg, trials=10000, snr_grid_db=(10.0,))
        before = len(draws)
        cli._curves(cfg, str(tmp_path / (name + ".csv")), runs, command)
        counts[name] = sum(len(schemes) for schemes in draws[before:])
    assert counts == {"fig4a": 7, "fig4b": 7, "fig6a": 0, "fig6b": 5}
    assert draws[-5:] == [["df"]] * 5


KEY_BASE = parse_config("[csi]\nmode = predicted\n")
OTHER_FADING = {"doppler_hz": 50.0, "sample_rate_hz": 2000.0,
                "k_factor": 3.0, "num_sinusoids": 32}
OTHER_PREDICTOR = {"kind": "gru", "layers": 1, "neurons": 10, "tau": 2,
                   "features": "magnitude", "scale": 0.5, "train_len": 4000,
                   "epochs": 5, "batch_size": 16, "lr": 1e-3}


def model_key(cfg, fading=None, horizon=3, links=8):
    return cli._model_key(cfg, fading or cfg.fading, horizon, links)


def test_model_key_holds_every_training_input():
    assert set(OTHER_FADING) == {f.name for f in fields(FadingSettings)}
    assert set(OTHER_PREDICTOR) == {f.name for f in fields(PredictorSettings)}
    cfg = KEY_BASE
    keys = [model_key(cfg)]
    for name, value in OTHER_FADING.items():
        # the fading the model trains on, not cfg.fading, enters the key
        keys.append(model_key(cfg, replace(cfg.fading, **{name: value})))
    for name, value in OTHER_PREDICTOR.items():
        keys.append(model_key(replace(
            cfg, predictor=replace(cfg.predictor, **{name: value}))))
    keys += [model_key(cfg, horizon=2), model_key(cfg, links=4),
             model_key(replace(cfg, seed=1))]
    assert len(set(keys)) == len(keys) == 1 + 4 + 10 + 3


def test_model_key_ignores_what_training_does_not_read():
    cfg = KEY_BASE
    for other in (replace(cfg, output="elsewhere/r.csv"),
                  replace(cfg, trials=1234),
                  replace(cfg, snr_grid_db=(5.0,)),
                  replace(cfg, schemes=("af", "dt")),
                  replace(cfg, csi=replace(cfg.csi, mode="outdated")),
                  replace(cfg, fading=replace(cfg.fading, doppler_hz=50.0))):
        assert model_key(other, fading=cfg.fading) == model_key(cfg)


def test_presets_share_the_horizon3_model_key():
    # fig4a, fig4b, fig6a and fig6b all resolve a horizon-3, K = 8
    # predictor; fig7b trains at K = 1, 2 and 6 under keys of its own
    keys = set()
    for name in ("fig4a", "fig4b", "fig6a", "fig6b"):
        cfg, _, runs = cli.PRESETS[name]()
        assert any(r.rho is None and r.horizon == 3 and r.relays == 8
                   for r in runs)
        keys.add(model_key(cfg))
    assert len(keys) == 1
    cfg, _, runs = cli.PRESETS["fig7b"]()
    fig7b = {model_key(cfg, links=r.relays) for r in runs if r.rho is None}
    assert len(fig7b) == 3 and not fig7b & keys


def test_model_cache_sits_beside_the_output(tmp_path):
    cfg = replace(KEY_BASE, output="runs/r.csv")
    assert cli._cache_dir(cfg, None) == str(
        Path("runs").resolve() / ".prsim-cache")
    assert cli._cache_dir(cfg, str(tmp_path / "o.csv")) == str(
        tmp_path / ".prsim-cache")


# ---------------------------------------------------------------------------
# presets and argument handling


def test_every_preset_builds_a_plan():
    for name, build in cli.PRESETS.items():
        cfg, command, plan = build()
        assert cfg.name == name
        assert command in ("outage", "capacity", "predict-eval")
        assert plan


def test_fig4a_plan_covers_stale_pair_and_predicted_selection():
    cfg, command, runs = cli.PRESETS["fig4a"]()
    assert command == "outage"
    modes = [(r.scheme, r.rho_mode) for r in runs]
    assert ("df", "perfect") in modes
    for delay in (2, 3):
        assert ("df", "outdated(%d)" % delay) in modes
        assert ("ostc", "outdated(%d)" % delay) in modes
        assert ("df", "predicted(%d)" % delay) in modes
    stale = [r for r in runs if r.rho_mode == "outdated(3)"][0]
    assert stale.rho == pytest.approx(0.2906, abs=5e-4)


def test_fig4a_outdated_rows_carry_the_closed_form(tmp_path):
    # the outdated df rows draw Gaussian pairs at |J0|, which is what
    # outage_df assumes; the pair-coded rows have no closed form
    cfg, _, runs = cli.PRESETS["fig4a"]()
    cfg = replace(cfg, trials=10_000)
    out = tmp_path / "r.csv"
    cli.cmd_outage(cfg, out=str(out),
                   plan=[r for r in runs if r.rho is not None])
    gamma_o = RateConfig(cfg.network.rate).gamma_o
    checked = 0
    for row in read_rows(out):
        if row["scheme"] == "ostc":
            assert row["analytic"] == ""
        elif row["rho_mode"].startswith("outdated"):
            delay = int(row["rho_mode"][len("outdated("):-1])
            rho = abs(bessel_j0(2 * np.pi * 100.0 * delay / 1000.0))
            hop = 0.5 * 10.0 ** (float(row["snr_db"]) / 10.0)
            want = outage_df(SelectionParams(K=8, gamma_sr=hop, gamma_rd=hop,
                                             rho=rho, gamma_o=gamma_o))
            assert float(row["analytic"]) == pytest.approx(want, rel=1e-12)
            checked += 1
    assert checked == 2 * len(cfg.snr_grid_db)


def test_fig7b_plan_scales_the_network():
    cfg, command, runs = cli.PRESETS["fig7b"]()
    assert command == "outage"
    assert {r.relays for r in runs if r.scheme == "df"} == {1, 2, 6}
    assert any(r.scheme == "dt" for r in runs)


def test_fig7a_plan_is_record_driven_rician():
    cfg, command, runs = cli.PRESETS["fig7a"]()
    assert cfg.fading.k_factor == 3.0
    assert all(r.fading is not None for r in runs)
    assert {r.fading.doppler_hz for r in runs} == {25.0, 50.0, 100.0}


# |J0(2 pi f_d d / f_s)| at f_s = 1 kHz: (Doppler, delay)
_J1, _J2, _J3 = 0.9037126420924664, 0.6425118365775732, 0.29056421408912414
_J3_25, _J3_50 = 0.9452492598675889, 0.7899622341253822
_PILOT = [((p, None), "+pilot%gdB" % p) for p in (30.0, 25.0, 20.0)]
_PHASE = [((None, d), "+phase%gdeg" % d) for d in (5.0, 20.0)]

# Each preset's config hash and, for the curve presets, every run:
# scheme, relays, rho_mode, rho (None: from the predictor), impairments
# (pilot SNR, phase bound), fading (Doppler, K factor) and the horizon
# of predicted and record runs (None: no reader sees it).
PRESET_PLANS = {
    "fig3b": ("010c0553291f", None),
    "fig4a": ("790647b5e564", [
        ("df", 8, "perfect", 1.0, None, None, None),
        ("df", 8, "outdated(2)", _J2, None, None, None),
        ("ostc", 8, "outdated(2)", _J2, None, None, None),
        ("df", 8, "predicted(2)", None, None, None, 2),
        ("df", 8, "outdated(3)", _J3, None, None, None),
        ("ostc", 8, "outdated(3)", _J3, None, None, None),
        ("df", 8, "predicted(3)", None, None, None, 3)]),
    "fig4b": ("b77d08053c81", [("af", 8, "perfect", 1.0, None, None, None)] + [
        run for delay, rho in ((1, _J1), (2, _J2), (3, _J3))
        for run in (("af", 8, "outdated(%d)" % delay, rho, None, None, None),
                    ("af", 8, "predicted(%d)" % delay, None, None, None,
                     delay))]),
    "fig6a": ("af1503d8753e", [
        ("df", 8, "perfect", 1.0, None, None, None),
        ("df", 8, "outdated(3)", _J3, None, None, None),
        ("ostc", 8, "outdated(3)", _J3, None, None, None),
        ("df", 8, "predicted(3)", None, None, None, 3),
        ("af", 8, "perfect", 1.0, None, None, None),
        ("af", 8, "outdated(3)", _J3, None, None, None),
        ("af", 8, "predicted(3)", None, None, None, 3)]),
    "fig6b": ("6d4e0a1be08a", [
        ("df", 8, "predicted(3)", None, None, None, 3),
        ("df", 8, "outdated(3)", _J3, None, None, None)] + [
        ("df", 8, "predicted(3)" + tag, None, imp, None, 3)
        for imp, tag in _PILOT + _PHASE]),
    "fig7a": ("f1caad11635e", [
        run for doppler, rho in ((25.0, _J3_25), (50.0, _J3_50), (100.0, _J3))
        for run in (
            ("df", 8, "outdated(3)/fd=%g" % doppler, rho, None,
             (doppler, 3.0), 3),
            ("df", 8, "predicted(3)/fd=%g" % doppler, None, None,
             (doppler, 3.0), 3))]),
    "fig7b": ("8fdd36891976", [("dt", 8, "direct", 1.0, None, None, None)] + [
        run for relays in (1, 2, 6)
        for run in (("df", relays, "outdated(3)", _J3, None, None, None),
                    ("df", relays, "predicted(3)", None, None, None, 3))]),
}


@pytest.mark.parametrize("name", sorted(PRESET_PLANS))
def test_preset_plans_are_pinned(name):
    cfg, _, runs = cli.PRESETS[name]()
    config_hash, pinned = PRESET_PLANS[name]
    assert cfg.config_hash() == config_hash
    if pinned is None:  # fig3b plans (fading, horizon) pairs
        return
    assert len(runs) == len(pinned)
    for run, (scheme, relays, mode, rho, imp, fading, horizon) in zip(
            runs, pinned):
        assert (run.scheme, run.relays, run.rho_mode) == (scheme, relays, mode)
        if rho is None:
            assert run.rho is None
        else:
            assert run.rho == pytest.approx(rho, rel=0, abs=1e-12)
        assert run.impairments == (imp and simulator.ProtocolSettings(
            pilot_snr_db=imp[0], max_phase_error_deg=imp[1]))
        assert run.fading == (fading and FadingSettings(
            doppler_hz=fading[0], k_factor=fading[1]))
        if horizon is not None:
            assert run.horizon == horizon


def test_record_rows_score_exactly_the_configured_trials(tmp_path,
                                                          monkeypatch):
    # outdated and predicted record rows drop different record heads
    # (delay against taps plus delay), yet both score `trials` frames,
    # and both read the one record pair of their fading
    cfg = parse_config("[experiment]\ntrials = 10000\n\n[grid]\nsnr_db = 10\n"
                       + TINY_PREDICTOR)
    calls = _count_record_series(monkeypatch, cfg.seed)
    fading = replace(cfg.fading, doppler_hz=50.0)
    runs = [cli.RunSpec("df", 3, "outdated(3)", horizon=3, fading=fading,
                        rho=cli._rho_outdated(fading, 3)),
            cli.RunSpec("df", 3, "predicted(3)", horizon=3, fading=fading)]
    out = tmp_path / "r.csv"
    cli.cmd_outage(cfg, out=str(out), plan=runs)
    rows = read_rows(out)
    assert [r["trials"] for r in rows] == ["10000", "10000"]
    assert [r["analytic"] for r in rows] == ["", ""]
    assert len(calls) == 2 * 3  # two hops of three links


def test_record_schemes_of_one_group_share_one_network(tmp_path,
                                                       monkeypatch):
    # df and af predicted rows of one fading ride one SeriesNetwork,
    # whose predictor runs once per hop record
    predictions, networks = [], []
    real_predict = predictor.predict_series
    real_init = simulator.SeriesNetwork.__init__

    def predict(*args, **kwargs):
        predictions.append(1)
        return real_predict(*args, **kwargs)

    def init(self, *args, **kwargs):
        networks.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(predictor, "predict_series", predict)
    monkeypatch.setattr(simulator.SeriesNetwork, "__init__", init)
    cfg = parse_config("[experiment]\ntrials = 10000\n\n[grid]\nsnr_db = 10\n"
                       + TINY_PREDICTOR)
    fading = replace(cfg.fading, doppler_hz=50.0)
    runs = [cli.RunSpec(scheme, 2, "predicted(3)", horizon=3, fading=fading)
            for scheme in ("df", "af")]
    cli.cmd_outage(cfg, out=str(tmp_path / "r.csv"), plan=runs)
    assert [r["scheme"] for r in read_rows(tmp_path / "r.csv")] == ["df", "af"]
    assert (len(networks), len(predictions)) == (1, 2)


# each refusal: the command, config text added to PREDICTED, the
# fields a record run overrides (None: the config's own plan) and the
# message fragment
REFUSALS = [
    ("outage", "[schemes]\nlist = df, df-central\n", None, "df-central"),
    ("capacity", "[schemes]\nlist = df-central\n", None, "df-central"),
    ("protocol-sim", "[schemes]\nlist = df, ostc, dt\n", None, "ostc, dt"),
    ("protocol-sim", "[protocol]\npilot_snr_db = 0\n", None, "pilot_snr_db"),
    ("protocol-sim", "[protocol]\nmax_phase_error_deg = 80\n", None,
     "max_phase_error_deg"),
    # records model no impairments, so the run would score them unimpaired
    ("outage", "",
     {"impairments": simulator.ProtocolSettings(pilot_snr_db=0.0,
                                                max_phase_error_deg=80.0)},
     "no acquisition impairments"),
    ("outage", "", {"scheme": "ostc"}, "remove ostc"),
]


@pytest.mark.parametrize("command, extra, record, match", REFUSALS)
def test_refusals_come_before_any_work(tmp_path, monkeypatch, fits, command,
                                       extra, record, match):
    series = []
    real = cli.generate_series

    def counting(*args, **kwargs):
        series.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_series", counting)
    cfg = parse_config(PREDICTED + extra)
    out = tmp_path / "r.csv"
    entry = getattr(cli, "cmd_" + command.replace("-", "_"))
    with pytest.raises(ConfigError, match=match):
        if record is None:
            entry(cfg, out=str(out))
        else:
            spec = dict(scheme="df", relays=2, rho_mode="predicted(3)",
                        horizon=3, fading=cfg.fading)
            entry(cfg, out=str(out), plan=[cli.RunSpec(**{**spec, **record})])
    assert not out.exists()
    assert (series, fits) == ([], [])


def test_preset_and_config_are_mutually_exclusive(tmp_path, capsys):
    conf = tmp_path / "e.conf"
    conf.write_text("")
    assert run_main(["outage", "--preset", "fig4a",
                     "--config", str(conf)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_preset_bound_to_wrong_subcommand_fails(capsys):
    assert run_main(["outage", "--preset", "fig3b"]) == 2
    assert "predict-eval" in capsys.readouterr().err


def test_cli_overrides_reach_the_rows(tmp_path):
    conf = tmp_path / "e.conf"
    out = tmp_path / "r.csv"
    conf.write_text("""
[grid]
snr_db = 10

[csi]
mode = synthetic
rho = 0.9
""")
    assert run_main(["outage", "--config", str(conf), "--out", str(out),
                     "--seed", "5", "--trials", "12000"]) == 0
    (row,) = read_rows(out)
    assert row["seed"] == "5"
    assert row["trials"] == "12000"


def test_trials_is_offered_only_where_it_counts(capsys):
    # protocol-sim scores [protocol] frames; trials would move only the hash
    with pytest.raises(SystemExit) as exit_:
        run_main(["protocol-sim", "--trials", "5"])
    assert exit_.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_unreadable_config_is_a_one_line_error(tmp_path, capsys):
    assert run_main(["outage", "--config",
                     str(tmp_path / "missing.conf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_cli_imports_numpy_alone():
    # scipy and mpmath are test oracles, never runtime dependencies
    code = ("import sys, prsim.cli; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'scipy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    shown = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert shown.stdout.strip() == "[]"


def test_tests_leave_no_model_cache_in_the_checkout():
    # every run above writes beside a tmp_path output; this test sorts
    # after the acceptance, analytics, channel and cli modules
    root = Path(__file__).resolve().parents[1]
    if shutil.which("git") is None or not (root / ".git").exists():
        pytest.skip("not a git checkout")
    shown = subprocess.run(["git", "status", "--porcelain", "--ignored"],
                           cwd=root, capture_output=True, text=True,
                           check=True).stdout
    assert ".prsim-cache" not in shown
    assert ".prsim-models" not in shown  # the cache's former name
