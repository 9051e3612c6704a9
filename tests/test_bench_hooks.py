"""The benchmark's tracer reaches prsim through names and signatures.

perfbench/tracer.py wraps prsim's layer functions where the CLI looks
them up and binds their arguments by name, so a renamed function or
parameter breaks `perfbench/run.py --trace 1` and nothing else.  These
tests run the benchmark's step script traced on tiny predicted configs
and check that every predictor and record span shows up, that the
Monte-Carlo estimator and its conditional pair draw report their work,
and that the frame protocol's span counts the frames it scores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STEP = ROOT / "perfbench" / "step.py"

TINY_PREDICTED = """
[experiment]
trials = 10000

[network]
relays = 2

[csi]
mode = predicted
delay = 2

[predictor]
layers = 1
neurons = 6
train_len = 300
epochs = 1
batch_size = 16

[schemes]
list = df

[grid]
snr_db = 10

[protocol]
frames = 200
"""

TRAINING = ("predictor.train_link_predictor", "predictor.loss_window",
            "predictor.adam_step", "predictor.predict_series")


def traced_step(tmp_path, command):
    conf = tmp_path / "e.conf"
    conf.write_text(TINY_PREDICTED)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PERFBENCH_TRACE="1",
               PERFBENCH_SETUP_ONLY="0", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(STEP), str(report), command, "--config",
         str(conf), "--out", str(tmp_path / "r.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(report.read_text())


@pytest.mark.parametrize("command,spans", [
    ("outage", TRAINING),
    ("protocol-sim", TRAINING + ("simulator.SeriesNetwork",)),
])
def test_traced_step_reports_every_predictor_span(tmp_path, command, spans):
    report = traced_step(tmp_path, command)
    assert report["exit"] == 0
    trace = report["trace"]
    for name in spans:
        assert trace.get(name, {}).get("calls", 0) >= 1, name
    rhos = trace["predictor.predict_series"]["values"]
    assert rhos and all(0.0 <= rho <= 1.0 for rho in rhos)
    if command == "outage":
        # estimate draws each df trial's pick through correlated_pair,
        # whose size argument the tracer counts as draws
        est = trace["simulator.estimate"]
        pair = trace["channel.correlated_pair"]
        assert est["calls"] >= 1 and est["work"] == 10_000
        assert pair["calls"] >= 1 and pair["work"] == est["work"]
        assert est["self_s"] > 0.0 and pair["self_s"] > 0.0
    if command == "protocol-sim":
        # the sr and rd records differ only in the seed, so a key that
        # lost it would read their second synthesis as a repeat
        keys = trace["channel.generate_series"]["keys"]
        assert len(keys) >= 4 and len(set(keys)) == len(keys)
        # the tracer counts the frames scored by the num_frames argument
        frames = trace["simulator.simulate_frames"]
        assert frames["calls"] >= 1
        assert frames["work"] == 200 * frames["calls"]
