#!/usr/bin/env python3
"""End-to-end benchmark of the permlab command line, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's seeded ``permlab`` commands run as child
processes, one at a time with ``--workers 1``, repeated until ``--seconds``
is used up; every output is checked and the end-to-end metrics are the
medians over the repetitions, with times in ref_s (wall seconds rescaled
by a calibration loop, see ``workloads.py``). With ``--trace 1`` the same
workload is driven through the library's public functions in this process
and each call is timed (see ``layers.py``). The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every check passed; it is 2 when the checkout holds
no permlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, SRC, WORK_ROOT, WORKLOADS, Checks, Runner, end_to_end


def environment() -> dict:
    """Versions and machine facts printed with every result."""
    import numpy as np

    import permlab

    env = {
        "permlab": getattr(permlab, "__version__", "unknown"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc": "unknown",
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        top = max(caches.glob("index*"), key=lambda p: int((p / "level").read_text()))
        env["llc"] = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "permlab" / "__init__.py").is_file():
        print(f"error: no permlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn a termination request into an exception, so children are killed
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from reference import self_test

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        print("environment: " + json.dumps(environment(), sort_keys=True))
        failures = self_test()
        checks.check(not failures, "reference self-test: " + "; ".join(failures))
        runner = Runner(work)
        if args.trace:
            from layers import traced

            metrics = traced(args.workload, args.seed, args.seconds, runner, checks)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, runner, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
