"""Golden bytes: the Monte-Carlo columns of `outage`, `capacity` and
`protocol-sim`, every column of predicted-CSI `outage` and `capacity`,
and the data rows of `gen-data`.

The synthetic-pair files under tests/data hold every CSV column except
`analytic` and `config_hash`; the predicted files drop only
`config_hash`, since their closed form sits at the correlation the
trained predictor resolves.  Both predicted runs write into one
directory, so the first trains the model and the second loads it from
the cache.  The clean, impaired and predicted outage and capacity files
were recorded when `estimate` began drawing from the conditional law
(every relay's metric exponential, then the picks' actual SNRs alone);
their dt rows kept the bytes of the earlier four-normal sampler, whose
draw of dt did not change.  The synthetic protocol-sim file was
recorded before the synthetic network began holding its frame block.
The outdated protocol-sim file runs the frame protocol on Jakes records
(K = 8, delay 3, 20 000 frames, 0:30:10 dB), whose 20 009 samples
reach phases omega t of about 1.2e4 rad.  It and the gen-data files
(two links of 50 samples, Rayleigh and Rician k = 3; their header lines
carry the config hash and are not compared) were recorded when
`generate_series` became one complex matrix product per link, and so
were the records the predicted files train on, on OpenBLAS 0.3.31 with
its SkylakeX kernels; another BLAS build may round a record
differently in the last bit.  Any change to how
`estimate`, `simulate_frames` or `generate_series` consumes its
streams, or to the arithmetic that turns draws into SNRs, shows up
here as a byte difference.  Regenerate a file only for a change that
is meant to move the Monte-Carlo output, and say so where the change
is recorded.
"""

import csv
import io
from pathlib import Path

import pytest

from prsim import cli

DATA = Path(__file__).parent / "data"

BASE = """
[experiment]
trials = 10000

[network]
relays = 8

[csi]
mode = synthetic
rho = 0.9

[schemes]
list = df, af, ostc, dt

[grid]
snr_db = 0:20:10
"""

IMPAIRED = BASE + """
[protocol]
pilot_snr_db = 20
max_phase_error_deg = 10
"""

PROTOCOL = """
[network]
relays = 8

[csi]
mode = synthetic
rho = 0.9

[schemes]
list = df, af, df-central

[grid]
snr_db = 0:20:10

[protocol]
frames = 20000
uncertainty_window = 0.001
"""

# perfbench's protocol workload: the frame protocol on Jakes records
OUTDATED = """
[network]
relays = 8

[csi]
mode = outdated
delay = 3

[schemes]
list = df, af, df-central

[grid]
snr_db = 0:30:10

[protocol]
frames = 20000
uncertainty_window = 0.001
"""

CONFIGS = {"clean": BASE, "impaired": IMPAIRED, "synthetic": PROTOCOL,
           "outdated": OUTDATED}


def mc_columns(csv_path, drop=("analytic", "config_hash")):
    """CSV text of a result file without the columns in drop."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = [f for f in rows[0] if f not in drop]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run_columns(tmp_path, command, name):
    conf = tmp_path / ("%s.conf" % name)
    out = tmp_path / ("%s-%s.csv" % (name, command))
    conf.write_text(CONFIGS[name])
    assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 0
    return mc_columns(out)


@pytest.mark.parametrize("command", ["outage", "capacity"])
@pytest.mark.parametrize("name", ["clean", "impaired"])
def test_monte_carlo_columns_match_golden_bytes(tmp_path, command, name):
    want = (DATA / ("%s-%s.csv" % (name, command))).read_text()
    assert run_columns(tmp_path, command, name) == want


GEN_DATA = "[network]\nrelays = 2\n[dataset]\nlength = 50\n"
FADING = {"rayleigh": "", "rician": "[fading]\nk_factor = 3.0\n"}


def data_rows(path):
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")]


@pytest.mark.parametrize("name", sorted(FADING))
def test_gen_data_rows_match_golden_bytes(tmp_path, name):
    conf = tmp_path / "e.conf"
    out = tmp_path / "ds.csv"
    conf.write_text(GEN_DATA + FADING[name])
    assert cli.main(["gen-data", "--config", str(conf), "--out", str(out)]) == 0
    want = data_rows(DATA / ("%s-gen-data.csv" % name))
    assert len(want) == 50
    assert data_rows(out) == want


def test_protocol_sim_columns_match_golden_bytes(tmp_path):
    want = (DATA / "synthetic-protocol-sim.csv").read_text()
    assert run_columns(tmp_path, "protocol-sim", "synthetic") == want


def test_outdated_protocol_sim_columns_match_golden_bytes(tmp_path):
    want = (DATA / "outdated-protocol-sim.csv").read_text()
    assert run_columns(tmp_path, "protocol-sim", "outdated") == want


PREDICTED = """
[experiment]
trials = 10000

[network]
relays = 2

[csi]
mode = predicted
delay = 2

[predictor]
train_len = 1500
epochs = 2

[schemes]
list = df, af

[grid]
snr_db = 0:20:10
"""


def test_predicted_columns_match_golden_bytes_cold_and_warm(tmp_path,
                                                            monkeypatch):
    fits = []
    real = cli.train_link_predictor

    def counting(*args, **kwargs):
        fits.append(kwargs["horizon"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train_link_predictor", counting)
    conf = tmp_path / "predicted.conf"
    conf.write_text(PREDICTED)
    for command in ("outage", "capacity"):
        out = tmp_path / ("predicted-%s.csv" % command)
        assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 0
        want = (DATA / ("predicted-%s.csv" % command)).read_text()
        assert mc_columns(out, drop=("config_hash",)) == want
    assert fits == [2]  # capacity loaded the model outage trained
