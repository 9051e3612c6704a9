"""Tests of the benchmark itself: tracer arithmetic, checker, metric names.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import configparser
import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from check import CheckResult, check_step, load_workload  # noqa: E402
from run import (END_TO_END, layer_metrics, metric_better,  # noqa: E402
                 metric_unit)
from tracer import Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------- tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 2.0, 3.5, 1),   # grandchild: counts against a, not root
        ("a", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.5, 1.5, 1.0]


def test_tracer_nests_wrapped_calls_on_a_fake_clock():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda n: n, work=lambda b, r: r,
                        key=lambda b: str(b.arguments["n"]))

    def body():
        return inner(3) + inner(3)

    outer = tracer.wrap("outer", body)
    assert outer() == 6
    s = tracer.summary()
    assert s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(7.5)
    assert s["inner"]["calls"] == 2
    assert s["inner"]["self_s"] == pytest.approx(2.5)
    assert s["inner"]["work"] == 6
    assert s["inner"]["keys"] == ["3", "3"]
    assert [p for *_, p in tracer.spans] == [-1, 0, 0]


def test_tracer_closes_span_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [("boom", 0.0, 2.0, -1)]
    assert tracer._stack == []


def test_repeat_ratio_and_coverage():
    s = {
        "cli.main": {"calls": 1, "self_s": 0.5, "work": 0.0, "keys": [],
                     "values": []},
        "channel.generate_series": {"calls": 4, "self_s": 2.0, "work": 40.0,
                                    "keys": ["a", "b", "a", "a"],
                                    "values": []},
    }
    m = layer_metrics(s, wall=10.0)
    assert m["channel.generate_series.repeat_ratio"] == 0.5
    assert m["channel.generate_series.samples_per_s"] == 20.0
    assert m["trace.coverage"] == 0.95
    assert m["simulator.estimate.calls"] == 0


# ----------------------------------------------------- metric definitions


def test_benchmark_json_matches_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == END_TO_END
    printed = set(layer_metrics({}, wall=1.0))
    printed |= {"trace.overhead_s", "check.analytic_mismatch_rows"}
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert set(layers) == printed
    for name, m in layers.items():
        assert m["unit"] == metric_unit(name), name
        assert m["better"] == metric_better(name), name
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]


# ---------------------------------------------------------------- checker


def _small_workload(tmp_path, name, changes):
    """A cheaper copy of a workload's config with some keys changed."""
    ini = configparser.ConfigParser()
    ini.read(os.path.join(HERE, "workloads", name + ".ini"))
    for (section, key), value in changes.items():
        if not ini.has_section(section):
            ini.add_section(section)
        ini[section][key] = value
    path = tmp_path / (name + ".ini")
    with open(path, "w", encoding="utf-8") as fh:
        ini.write(fh)
    return str(path)


def _run_cli(tmp_path, config, command, seed):
    from prsim.cli import main

    out = str(tmp_path / (command + ".csv"))
    assert main([command, "--config", config, "--seed", str(seed),
                 "--out", out]) == 0
    return out


def _check(config, command, seed, csv_path, stdout="", ok=True):
    result = CheckResult()
    check_step(result, load_workload(config), command, seed, csv_path,
               stdout, ok)
    return result


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("protocol")
    config = _small_workload(tmp, "protocol", {("protocol", "frames"): "3000"})
    return config, _run_cli(tmp, config, "protocol-sim", seed=5)


def test_checker_accepts_curves_outputs(tmp_path):
    config = _small_workload(tmp_path, "curves",
                             {("experiment", "trials"): "10000",
                              ("grid", "snr_db"): "0:24:8"})
    for command in ("outage", "capacity"):
        result = _check(config, command, 3,
                        _run_cli(tmp_path, config, command, seed=3))
        assert result.failed == 0, result.messages
        assert result.attempted > 0


def test_checker_accepts_protocol_outputs(protocol_run):
    config, path = protocol_run
    result = _check(config, "protocol-sim", 5, path)
    assert result.failed == 0, result.messages
    assert result.mismatch_rows == 0


def _rewrite(src, dst, edit):
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return str(dst)


def _set_outage(rows, value):
    rows[5]["outage"] = value
    return rows


def _swap_df_and_central(rows):
    swap = {"df": "df-central", "df-central": "df"}
    for row in rows:
        row["scheme"] = swap.get(row["scheme"], row["scheme"])
    return rows


@pytest.mark.parametrize("edit", [
    lambda rows: rows[:-1],
    lambda rows: _set_outage(rows, "1.5"),
    lambda rows: _set_outage(rows, "nan"),
    _swap_df_and_central,
], ids=["dropped-row", "outage-above-1", "nan", "swapped-df-central"])
def test_checker_rejects_corrupted_protocol_csv(protocol_run, tmp_path, edit):
    config, path = protocol_run
    bad = _rewrite(path, tmp_path / "bad.csv", edit)
    assert _check(config, "protocol-sim", 5, bad).failed > 0


def test_failed_step_fails_all_its_checks(protocol_run):
    config, path = protocol_run
    result = _check(config, "protocol-sim", 5, path, ok=False)
    assert result.attempted > 0
    assert result.failed == result.attempted


def test_predicted_rho_check_against_floor_and_baseline(tmp_path):
    config = os.path.join(HERE, "workloads", "predicted.ini")
    missing = str(tmp_path / "missing.csv")
    good = _check(config, "outage", 0, missing,
                  "resolved predicted(3): rho=0.9355\n")
    low = _check(config, "outage", 0, missing,
                 "resolved predicted(3): rho=0.8600\n")
    # the missing CSV fails the same row checks in both; only rho differs
    assert low.failed == good.failed + 1
    assert _check(config, "outage", 0, missing, "").failed == low.failed
