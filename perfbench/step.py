"""One workload step in its own process: `python3 step.py REPORT ARGV...`.

ARGV is passed to `prsim.cli.main` unchanged.  The step writes a JSON
report to REPORT with:

- `ready`: time.monotonic() once prsim.cli is imported and the
  config file is resolved; the parent subtracts its own spawn time to
  get the step's set-up time (CLOCK_MONOTONIC is system wide);
- `wall_s`: seconds inside cli.main, and `exit`, its return code;
- `trace`: the tracer summary, when PERFBENCH_TRACE=1.

With PERFBENCH_SETUP_ONLY=1 the step stops after set-up, so the parent
can sample set-up time cheaply.
"""

import json
import os
import sys
import time


def _config_path(argv):
    return argv[argv.index("--config") + 1]


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    from prsim import cli
    from prsim.config import load_config
    load_config(_config_path(argv))
    report = {"ready": time.monotonic(), "prsim": cli.__file__}
    if os.environ.get("PERFBENCH_SETUP_ONLY") == "1":
        report.update(wall_s=0.0, exit=0)
    else:
        tracer = None
        entry = cli.main
        if os.environ.get("PERFBENCH_TRACE") == "1":
            from tracer import Tracer, install
            tracer = Tracer()
            entry = install(tracer)
        start = time.perf_counter()
        code = entry(argv)
        report.update(wall_s=time.perf_counter() - start, exit=code)
        if tracer is not None:
            report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
