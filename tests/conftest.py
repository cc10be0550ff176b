"""Puts ``src`` on the path of the ``python -m permlab`` children, and
collects acceptance-criterion outcomes to print one line per criterion at
the end of the run."""

import os
import re
from pathlib import Path

import pytest

_CRITERION_PATTERN = re.compile(r"test_acceptance\.py.*criterion_(\d+)")
_results: dict[int, bool] = {}


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    # pytest's pythonpath setting reaches this process only, not the CLI
    # subprocesses, so a checkout without the install needs it exported
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION_PATTERN.search(report.nodeid)
    if not m:
        return
    k = int(m.group(1))
    ok = report.outcome == "passed"
    _results[k] = _results.get(k, True) and ok


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_results):
        status = "PASS" if _results[k] else "FAIL"
        terminalreporter.write_line(f"criterion {k}: {status}")
