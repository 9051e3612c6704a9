"""Output checker for the CSVs a workload step writes.

Every expectation comes from the workload's config file and the seed,
read here with configparser rather than prsim's own parser, so no
check depends on outputs stored for one seed.  Two kinds of result:

- checks, counted in `attempted` and `failed`: the expected row set,
  finite values in range, row metadata, the analytic column filled
  exactly where a closed form applies, the protocol collision
  identity, and the predictor's resolved correlation;
- analytic mismatches, counted in `mismatch_rows`: rows whose filled
  closed-form column disagrees with the row's Monte-Carlo value.
  These measure known defects of the closed forms, so they are
  reported, not failed.

A step that exits non-zero or writes no CSV fails all of its checks.
"""

import configparser
import csv
import math
import re
from dataclasses import dataclass, field

# An outage row mismatches when |MC - p| exceeds K_SE binomial standard
# errors of the closed-form p, plus one event's worth (1/n) so that a
# single event at a tiny p does not count.  The row's own std_err is
# not used: it reads 0 whenever no outage was seen.
K_SE = 4.0
# Capacity rows: criterion 6's 2% relative tolerance, plus 0.01 b/s/Hz
# absolute for rates near zero at low SNR, where MC noise dominates.
# The std_err column of a capacity CSV is the outage standard error,
# not the rate's, so it cannot size this tolerance.
CAPACITY_REL_TOL = 0.02
CAPACITY_ABS_TOL = 0.01
# Predicted CSI must reach criterion 8's correlation.
RHO_FLOOR = 0.9
# The protocol identity compares differences of floats read from the CSV.
IDENTITY_EPS = 1e-12

_ANALYTIC_MODES = ("perfect", "synthetic", "predicted")
_RESOLVED = re.compile(r"^resolved \S+: rho=([0-9.eE+-]+)$", re.M)
_VALUE_FIELDS = ("outage", "std_err", "rate", "collision_rate")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    mismatch_rows: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    """What a workload's config file says its steps must write."""

    schemes: tuple
    grid: tuple
    relays: int
    trials: int
    frames: int
    csi_mode: str
    csi_delay: int
    doppler_hz: float
    sample_rate_hz: float


def _grid(raw):
    start, stop, step = (float(p) for p in raw.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 9) for i in range(count))


def load_workload(path):
    ini = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        ini.read_file(fh)
    # keys a step does not use may be absent from its workload's file
    return Workload(
        schemes=tuple(s.strip() for s in ini["schemes"]["list"].split(",")),
        grid=_grid(ini["grid"]["snr_db"]),
        relays=ini.getint("network", "relays"),
        trials=ini.getint("experiment", "trials", fallback=None),
        frames=ini.getint("protocol", "frames", fallback=None),
        csi_mode=ini["csi"]["mode"],
        csi_delay=ini.getint("csi", "delay", fallback=None),
        doppler_hz=ini.getfloat("fading", "doppler_hz", fallback=None),
        sample_rate_hz=ini.getfloat("fading", "sample_rate_hz", fallback=None),
    )


def bessel_j0(x):
    """J0 by its power series; ample for the |x| < 10 used here."""
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-17:
        k += 1
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def _read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            return reader.fieldnames or [], list(reader)
    except (OSError, csv.Error):
        return None, []


def _floats(row):
    try:
        return {k: float(row[k]) for k in _VALUE_FIELDS}
    except (KeyError, TypeError, ValueError):
        return None


def _analytic_mismatch(command, vals, analytic, trials):
    if command == "outage":
        p = analytic
        tol = K_SE * math.sqrt(max(p * (1.0 - p), 0.0) / trials) + 1.0 / trials
        return abs(vals["outage"] - p) > tol
    tol = CAPACITY_REL_TOL * abs(analytic) + CAPACITY_ABS_TOL
    return abs(vals["rate"] - analytic) > tol


def check_step(result, wl, command, seed, csv_path, stdout, exit_ok):
    """Check one step's CSV (and stdout), adding to `result`."""
    fields, rows = _read_rows(csv_path) if exit_ok else (None, [])
    tag = "%s:" % command
    result.check(fields is not None and "analytic" in fields
                 and all(f in fields for f in _VALUE_FIELDS),
                 "%s no CSV with the result header" % tag)

    protocol = command == "protocol-sim"
    trials = wl.frames - 1 if protocol else max(wl.trials, 10_000)
    expected = [(s, snr) for s in wl.schemes for snr in wl.grid]
    by_key = {}
    for row in rows:
        try:
            key = (row["scheme"], round(float(row["snr_db"]), 9))
        except (KeyError, TypeError, ValueError):
            key = None
        by_key.setdefault(key, []).append(row)
    result.check(sorted(by_key, key=repr) == sorted(expected, key=repr)
                 and len(rows) == len(expected),
                 "%s row set differs from %d expected rows"
                 % (tag, len(expected)))

    values = {}
    for scheme, snr in expected:
        where = "%s %s at %g dB" % (tag, scheme, snr)
        found = by_key.get((scheme, snr), [])
        row = found[0] if len(found) == 1 else None
        vals = _floats(row) if row else None
        result.check(row is not None, where + " missing or repeated")
        finite = vals is not None and all(map(math.isfinite, vals.values()))
        result.check(finite, where + " has a non-finite value")
        in_range = finite and (0.0 <= vals["outage"] <= 1.0
                               and 0.0 <= vals["collision_rate"] <= 1.0
                               and vals["std_err"] >= 0.0
                               and vals["rate"] >= 0.0)
        result.check(in_range, where + " has a value out of range")
        wants_analytic = (not protocol and scheme in ("df", "af", "dt")
                          and wl.csi_mode in _ANALYTIC_MODES)
        meta_ok = row is not None and _meta_ok(row, wl.relays, trials, seed,
                                               wants_analytic)
        result.check(meta_ok, where + " has wrong K/trials/seed/analytic")
        if in_range:
            values[scheme, snr] = vals
            if meta_ok and wants_analytic:
                result.mismatch_rows += _analytic_mismatch(
                    command, vals, float(row["analytic"]), trials)

    if protocol and "df" in wl.schemes and "df-central" in wl.schemes:
        for snr in wl.grid:
            d, c = values.get(("df", snr)), values.get(("df-central", snr))
            where = "%s at %g dB" % (tag, snr)
            gap = d["outage"] - c["outage"] if d and c else None
            # without a collision both variants pick the same relay from
            # identical records, so only collisions separate them
            result.check(gap is not None and -IDENTITY_EPS <= gap
                         <= d["collision_rate"] + IDENTITY_EPS,
                         where + " outage(df) - outage(df-central) outside "
                         "[0, collision_rate(df)]")
            result.check(c is not None and c["collision_rate"] == 0.0,
                         where + " df-central reports collisions")

    if wl.csi_mode == "predicted" and not protocol:
        rhos = [float(r) for r in _RESOLVED.findall(stdout if exit_ok else "")]
        baseline = bessel_j0(2.0 * math.pi * wl.doppler_hz * wl.csi_delay
                             / wl.sample_rate_hz)
        result.check(bool(rhos) and all(r >= RHO_FLOOR and r > baseline
                                        for r in rhos),
                     "%s resolved rho %s not >= %g and above J0 baseline %.4f"
                     % (tag, rhos, RHO_FLOOR, baseline))
    return result


def _meta_ok(row, relays, trials, seed, wants_analytic):
    try:
        ok = (int(row["K"]) == relays and int(row["trials"]) == trials
              and int(row["seed"]) == seed)
        filled = row["analytic"] != ""
        if filled:
            ok = ok and math.isfinite(float(row["analytic"]))
    except (KeyError, TypeError, ValueError):
        return False
    return ok and filled == wants_analytic
