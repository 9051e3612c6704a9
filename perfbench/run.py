"""prsim benchmark: three CLI workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 40 --trace 0

A run works in a fresh directory under .bench_work/ and removes it on
exit.  It first samples each step's set-up time a few times, then runs
the workload's steps one after another, each in its own process
(perfbench/step.py calling prsim.cli.main), and repeats the whole
workload while one more iteration fits in --seconds; there is always at
least one.  Metrics are medians over iterations.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics; the
tracer wraps prsim's layer functions from the benchmark's own files
(see tracer.py).  Every iteration's CSVs go through check.py.  The
last line of stdout is the JSON result.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from check import CheckResult, check_step, load_workload  # noqa: E402
from tracer import merge, new_entry  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
STEP = os.path.join(HERE, "step.py")

# workload -> CLI subcommands, run in order on perfbench/workloads/<name>.ini
WORKLOADS = {
    "curves": ("outage", "capacity"),
    "predicted": ("outage", "capacity"),
    "protocol": ("protocol-sim",),
}
# Set-up is short and noisy; sample it at least this often per step and run.
SETUP_SAMPLES = 5
# A run must end within 180 s; children still alive past this are killed.
RUN_LIMIT_S = 170.0
# Today's loads are single-threaded; pin BLAS so a busy core cannot
# change that, and record the setting with the result.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Step:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    csv: str
    log: str
    trace: dict


class Run:
    """One benchmark run: workload, seed, working directory, deadline."""

    def __init__(self, root, workload, seed, workdir):
        self.root = root
        self.steps = WORKLOADS[workload]
        self.config = os.path.join(HERE, "workloads", workload + ".ini")
        self.spec = load_workload(self.config)
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setups = {c: [] for c in self.steps}
        self.first_csv = {}

    def step(self, cwd, command, trace=False, setup_only=False):
        base = os.path.join(cwd, command)
        out = base + ".csv"
        argv = [command, "--config", self.config, "--seed", str(self.seed),
                "--out", out]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   PYTHONDONTWRITEBYTECODE="1",
                   PERFBENCH_TRACE="1" if trace else "0",
                   PERFBENCH_SETUP_ONLY="1" if setup_only else "0",
                   **THREAD_ENV)
        with open(base + ".log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, STEP, base + ".json"] + argv, cwd=cwd,
                env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                usage = _reap(proc, self.deadline)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
        try:
            with open(base + ".json", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {}
        with open(base + ".log", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        ok = proc.returncode == 0 and report.get("exit") == 0
        if ok and not os.path.realpath(report["prsim"]).startswith(
                os.path.realpath(os.path.join(self.root, "src")) + os.sep):
            raise SystemExit("prsim was imported from %s, not this checkout"
                             % report["prsim"])
        if "ready" in report:
            self.setups[command].append(report["ready"] - spawned)
        return Step(ok, report.get("wall_s", 0.0),
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    out, text, report.get("trace"))

    def iteration(self, trace):
        """All steps of the workload in a fresh directory, checked."""
        cwd = tempfile.mkdtemp(prefix="iter-", dir=self.workdir)
        checks = CheckResult()
        steps = []
        for command in self.steps:
            st = self.step(cwd, command, trace=trace)
            steps.append(st)
            check_step(checks, self.spec, command, self.seed, st.csv, st.log,
                       st.ok)
            data = _read_bytes(st.csv) if st.ok else None
            first = self.first_csv.setdefault(command, data)
            if first is not data:
                checks.check(data is not None and data == first,
                             "%s: rerun with the same seed wrote other bytes"
                             % command)
        return steps, checks


def _reap(proc, deadline):
    """Wait for proc and return its own rusage; kill it past deadline.

    os.wait4 gives this child's peak RSS; RUSAGE_CHILDREN would give
    the maximum over every child so far.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


# ------------------------------------------------------------ per layer

# traced layer -> the name of its work count, if it has one
LAYERS = {
    "channel.generate_series": "samples",
    "channel.correlated_pair": "draws",
    "simulator.estimate": "trials",
    "simulator.simulate_frames": "frames",
    "simulator.SeriesNetwork": None,
    "selection.decoding_subset": None,
    "analytics.outage": None,
    "analytics.capacity": None,
    "numerics.phi": None,
    "predictor.train_link_predictor": None,
    "predictor.loss_window": "steps",
    "predictor.adam_step": None,
    "predictor.predict_series": "steps",
    "cli.write_rows": None,
}
# layers whose calls are keyed by their inputs, for repeat ratios
REPEATED = ("channel.generate_series", "predictor.train_link_predictor")


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(s, wall):
    """Per-layer metrics of one traced iteration; `wall` is its wall_s.

    `s` is the merged tracer summary of the iteration's steps.
    """
    def get(name):
        return s.get(name) or new_entry()

    m = {}
    for name, work in LAYERS.items():
        e = get(name)
        m[name + ".calls"] = e["calls"]
        m[name + ".self_s"] = e["self_s"]
        if work:
            m["%s.%s" % (name, work)] = e["work"]
            m["%s.%s_per_s" % (name, work)] = _rate(e["work"], e["self_s"])
    for name in REPEATED:
        # share of calls whose inputs an earlier call of the run had
        keys = get(name)["keys"]
        m[name + ".repeat_ratio"] = (1.0 - len(set(keys)) / len(keys)
                                     if keys else 0.0)
    capacity = get("analytics.capacity")
    m["analytics.capacity.calls_per_s"] = _rate(capacity["calls"],
                                                capacity["self_s"])
    rhos = get("predictor.predict_series")["values"]
    m["predictor.predict_series.rho"] = statistics.fmean(rhos) if rhos else 0.0
    m["config.load_config.self_s"] = get("config.load_config")["self_s"]
    # share of traced wall time inside a named layer span rather than
    # in cli.main's own code
    m["trace.coverage"] = (1.0 - get("cli.main")["self_s"] / wall
                           if wall > 0 else 0.0)
    return m


def metric_unit(name):
    """Unit of a per-layer metric, from its last name component."""
    q = name.rsplit(".", 1)[1]
    if q.endswith("_per_s"):
        return "1/s"
    if q.endswith("_s"):
        return "s"
    if q in ("repeat_ratio", "rho", "coverage"):
        return "ratio"
    return "count"


def metric_better(name):
    q = name.rsplit(".", 1)[1]
    return "higher" if q.endswith("_per_s") or q in ("rho", "coverage") \
        else "lower"


# ------------------------------------------------------------ metadata


def _git_revision(root):
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git": _git_revision(root),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ------------------------------------------------------------ main


def _median(values):
    return statistics.median(values) if values else 0.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def measure(run, seconds, trace):
    """Iterate the workload; returns (untraced, traced, checks).

    Set-up probes run before each iteration and, to reach
    SETUP_SAMPLES per step, after the last one, so that they sample the
    machine at several points of the run rather than in one burst.
    """
    start = time.monotonic()
    probe_dir = tempfile.mkdtemp(prefix="setup-", dir=run.workdir)
    untraced, traced, checks, durations = [], [], [], []
    stop = min(start + seconds, run.deadline - 20.0)
    while True:
        began = time.monotonic()
        for command in run.steps:
            run.step(probe_dir, command, setup_only=True)
        for traced_now in ((False, True) if trace else (False,)):
            steps, result = run.iteration(traced_now)
            (traced if traced_now else untraced).append(steps)
            checks.append(result)
        durations.append(time.monotonic() - began)
        if time.monotonic() + _median(durations) > stop:
            break
    for command in run.steps:
        while len(run.setups[command]) < SETUP_SAMPLES:
            run.step(probe_dir, command, setup_only=True)
    return untraced, traced, checks


def _wall(iteration):
    return sum(st.wall_s for st in iteration)


def end_to_end(run, untraced):
    return {
        "wall_s": _median([_wall(it) for it in untraced]),
        "setup_s": sum(_median(v) for v in run.setups.values()),
        "cpu_s": _median([sum(st.cpu_s for st in it) for it in untraced]),
        "peak_rss_mb": _median([max(st.rss_mb for st in it)
                                for it in untraced]),
    }


def per_layer(untraced, traced, checks):
    per_iter = [layer_metrics(merge(st.trace for st in it), _wall(it))
                for it in traced]
    values = {k: _median([m[k] for m in per_iter]) for k in per_iter[0]}
    values["trace.overhead_s"] = (_median([_wall(it) for it in traced])
                                  - _median([_wall(it) for it in untraced]))
    values["check.analytic_mismatch_rows"] = _median(
        [c.mismatch_rows for c in checks])
    return values


def main(argv=None):
    args = _parse_args(argv)
    # turn SIGTERM into an exception so the running step is killed and
    # reaped and the working directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prsim", "cli.py")):
        print("error: run from the root of a prsim checkout "
              "(src/prsim/cli.py not found)", file=sys.stderr)
        return 2
    print("meta: " + json.dumps(dict(metadata(root), workload=args.workload,
                                     seed=args.seed, seconds=args.seconds,
                                     trace=args.trace)))
    parent = os.path.join(root, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        run = Run(root, args.workload, args.seed, workdir)
        untraced, traced, checks = measure(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values = per_layer(untraced, traced, checks)
        units = {k: metric_unit(k) for k in values}
    else:
        values = end_to_end(run, untraced)
        units = END_TO_END
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    mismatch = [c.mismatch_rows for c in checks]
    print("checks: %d attempted, %d failed; analytic mismatch rows per "
          "iteration %s; %d untraced and %d traced iterations"
          % (attempted, failed, mismatch, len(untraced), len(traced)))
    print("wall_s per untraced iteration: %s" % [_wall(it) for it in untraced])
    for c in checks:
        for message in c.messages[:20]:
            print("check failed: " + message, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
