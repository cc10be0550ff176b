"""Workloads, child-process runner and correctness checks of the permlab
benchmark, and the untraced end-to-end measurement.

Every workload runs its seeded ``permlab`` command as a child, with
``--workers 1``, repeating it while the time window lasts. After the window
the benchmark checks the command's CSV against its own reference, then runs
``per`` on a fixed 0-1 panel, ``moments`` and ``verify`` once each and
checks them too.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# Copy of the documented CSV contract; the benchmark checks it byte for byte.
CSV_HEADER = (
    "n,r_low,r_up,dist,trials,seed,mean_ratio,se_mean,var_ratio,se_var,"
    "p_dev,epsilon,a_n,c_n,exact_ratio,bound_low,bound_up"
)
ALWAYS_NUMERIC = ("mean_ratio", "se_mean", "var_ratio", "se_var", "p_dev", "epsilon", "a_n", "c_n")
OPTIONAL_NUMERIC = ("exact_ratio", "bound_low", "bound_up")
DEFAULT_EPSILON = 0.1

# Fixed tolerance for correctness checks, kept apart from the accuracy metric
# so that a kernel with an explicit error budget up to this size still passes.
CHECK_RTOL = 1e-6
# Set-up time is sampled after every repetition, so its samples spread over
# the whole window instead of sharing one stretch of machine speed.
SETUP_PER_REP = 3
VERIFY_CHECKS = 52

# Timings in ref_s are wall times rescaled to a machine on which the
# calibration loop takes CAL_REF_S seconds. On a shared host the speed of a
# core drifts by up to 2x over tens of seconds; the loop runs after every
# timed command, and dividing the command's wall time by the mean of the two
# loops around it cancels most of that drift.
CAL_LOOPS = 1_000_000
CAL_REF_S = 0.07

# The command each repetition runs, and how many of the first trials of every
# row are also run in-process through run_trial and compared one by one.
MC_WORKLOADS = {
    "mc-small": dict(cmd="mc", n=6, r=3, dist="exp:1", trials=20000, check_trials=20),
    "sweep-dense": dict(cmd="sweep", ns=(16, 18, 20), rule="power:0.75", dist="exp:1",
                        trials=20, check_trials=3),
}
WORKLOADS = tuple(MC_WORKLOADS)

# Fixed 0-1 matrices, so the accuracy figure compares the same inputs on every
# run and every commit. The traced run adds n = 22, whose reference takes
# seconds.
PANEL = tuple((n, r) for n in (16, 18, 20) for r in (3, n // 2))
TRACED_PANEL = PANEL + ((22, 3), (22, 11))
MOMENTS = (12, 8, "exp:1")
MOMENTS_ARGS = ("--n", str(MOMENTS[0]), "--r", str(MOMENTS[1]), "--dist", MOMENTS[2])


def panel_matrix(n: int, r: int) -> list[list[int]]:
    """Row i holds column i plus r-1 columns drawn from a fixed stream, so the
    permanent is at least 1 and the matrix never depends on the run seed."""
    import random

    rng = random.Random(f"permlab-panel-{n}-{r}")
    rows = []
    for i in range(n):
        cols = {i, *rng.sample([j for j in range(n) if j != i], r - 1)}
        rows.append([1 if j in cols else 0 for j in range(n)])
    return rows


@dataclass
class Checks:
    """Correctness checks; each counts once into ``attempted``."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Proc:
    argv: list[str]
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str
    ref_s: float = math.nan


def calibrate() -> float:
    """Seconds for a fixed interpreter loop, the yardstick of machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i & 7
    return time.perf_counter() - t0


def permlab_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "permlab", *args]


START_ARGV = [sys.executable, "-c", "import permlab.cli"]


class Runner:
    """Runs one child at a time and records its wall time and peak RSS."""

    def __init__(self, work: Path) -> None:
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.last_cal = calibrate()

    def run(self, argv: list[str]) -> Proc:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        return Proc(argv, child.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_text(), err_path.read_text())

    def permlab(self, *args: str) -> Proc:
        return self.run(permlab_argv(*args))

    def recalibrate(self) -> None:
        self.last_cal = calibrate()

    def timed(self, argv: list[str]) -> Proc:
        """``run`` with the wall time also in ref_s, against the calibration
        loops just before and just after the child."""
        proc = self.run(argv)
        before, self.last_cal = self.last_cal, calibrate()
        proc.ref_s = proc.wall_s * CAL_REF_S / ((before + self.last_cal) / 2)
        return proc


def row_master_seed(seed: int, n: int) -> int:
    """The documented per-row stream of a sweep: SeedSequence(seed, spawn_key=(n,))."""
    return int(np.random.SeedSequence(seed, spawn_key=(n,)).generate_state(1, np.uint64)[0])


def mc_rows(spec: dict, seed: int):
    """(ModelSpec, row master seed) for every CSV row the command prints."""
    from permlab import DistributionSpec, ModelSpec

    dist = DistributionSpec.from_string(spec["dist"])
    if spec["cmd"] == "mc":
        return [(ModelSpec.homogeneous(spec["n"], spec["r"], dist), seed)]
    head, _, tail = spec["rule"].partition(":")
    rows = []
    for n in spec["ns"]:
        r = int(tail) if head == "const" else math.ceil(n ** float(tail))
        rows.append((ModelSpec.homogeneous(n, r, dist), row_master_seed(seed, n)))
    return rows


def mc_argv(spec: dict, seed: int, trials: int) -> list[str]:
    if spec["cmd"] == "mc":
        shape = ["--n", str(spec["n"]), "--r", str(spec["r"])]
    else:
        shape = ["--n", ",".join(map(str, spec["ns"])), "--r-rule", spec["rule"]]
    return permlab_argv(spec["cmd"], *shape, "--dist", spec["dist"], "--trials", str(trials),
                        "--seed", str(seed), "--workers", "1")


def log_mu(spec) -> float:
    """log of the expected permanent, prod_i r_i nu^n n!/n^n."""
    n = spec.n
    return (math.fsum(math.log(r) for r in spec.r) + n * math.log(spec.dist.nu)
            + math.lgamma(n + 1) - n * math.log(n))


def reference_ratios(spec, row_seed: int, trials: int) -> np.ndarray:
    """T/mu of trials 0..trials-1 of a row: the library's sampled matrices,
    their permanents from the cancellation-free reference."""
    from permlab import TrialSeed, sample_constrained_matrix

    from reference import per_float

    ys = np.stack([sample_constrained_matrix(spec, TrialSeed(row_seed, i))[1].entries
                   for i in range(trials)])
    per = per_float(ys)
    with np.errstate(divide="ignore"):
        return np.where(per > 0, np.exp(np.log(per) - log_mu(spec)), 0.0)


def reference_summary(ratios: np.ndarray, epsilon: float) -> dict:
    """The CSV's statistics of the reference ratios, computed independently:
    sample mean and variance, their standard errors (the variance's by the
    leave-one-out jackknife, in closed form from centred values) and the
    range of p_dev that trials within CHECK_RTOL of the threshold allow."""
    m = len(ratios)
    mean = math.fsum(ratios) / m
    d = ratios - mean
    q = math.fsum(d * d)
    var = q / (m - 1)
    loo = (q - d * d * m / (m - 1)) / (m - 2)
    loo_c = loo - math.fsum(loo) / m
    dev = np.abs(ratios - 1.0) - epsilon
    slack = CHECK_RTOL * np.maximum(ratios, 1.0)
    return {
        "mean_ratio": mean,
        "var_ratio": var,
        "se_mean": math.sqrt(var / m),
        "se_var": math.sqrt((m - 1) / m * math.fsum(loo_c * loo_c)),
        "p_dev": (int(np.sum(dev > slack)), int(np.sum(dev > -slack))),
    }


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= CHECK_RTOL * abs(ref)


def check_csv(checks: Checks, text: str, rows, refs, trials: int, label: str) -> None:
    """Header, one row per n, identity columns, seeds, exact ratios,
    finiteness, and every statistic against the reference ratios."""
    from permlab import moment_report

    lines = text.split("\n")
    checks.check(lines[0] == CSV_HEADER, f"{label}: CSV header")
    data = [line for line in lines[1:] if line]
    if not checks.check(len(data) == len(rows), f"{label}: {len(data)} rows for {len(rows)} n"):
        return
    cols = CSV_HEADER.split(",")
    for line, (spec, row_seed), ref in zip(data, rows, refs):
        cells = line.split(",")
        tag = f"{label} n={spec.n}"
        if not checks.check(len(cells) == len(cols), f"{tag}: {len(cells)} cells"):
            continue
        row = dict(zip(cols, cells))
        ident = (row["n"], row["r_low"], row["r_up"], row["dist"], row["trials"])
        want = (str(spec.n), str(spec.r_low), str(spec.r_up), spec.dist.spec_string(), str(trials))
        checks.check(ident == want, f"{tag}: identity columns {ident} != {want}")
        checks.check(row["seed"] == str(row_seed), f"{tag}: seed {row['seed']} != {row_seed}")
        exact = moment_report(spec).exact_ratio
        checks.check(
            row["exact_ratio"] == "" if exact is None else _float(row["exact_ratio"]) == exact,
            f"{tag}: exact_ratio {row['exact_ratio']} != {exact}",
        )
        values = [_float(row[k]) for k in ALWAYS_NUMERIC]
        values += [_float(row[k]) for k in OPTIONAL_NUMERIC if row[k]]
        checks.check(all(math.isfinite(v) for v in values), f"{tag}: non-finite value")
        checks.check(_float(row["epsilon"]) == DEFAULT_EPSILON, f"{tag}: epsilon {row['epsilon']}")
        want_stats = reference_summary(ref, DEFAULT_EPSILON)
        low, high = want_stats.pop("p_dev")
        for key, value in want_stats.items():
            checks.check(close(_float(row[key]), value), f"{tag}: {key} {row[key]} vs reference {value!r}")
        count = _float(row["p_dev"]) * trials
        checks.check(low <= round(count) <= high and abs(count - round(count)) < 1e-6,
                     f"{tag}: p_dev {row['p_dev']} vs reference {low}..{high} of {trials}")


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def ratio_matches(ratio: float, ref: float) -> bool:
    if ref == 0.0:
        return abs(ratio) <= CHECK_RTOL
    return close(ratio, ref)


def check_trials(checks: Checks, rows, refs, count: int, label: str) -> None:
    """The first ``count`` run_trial ratios of each row against the reference."""
    from permlab import TrialSeed, run_trial

    for (spec, row_seed), ref in zip(rows, refs):
        for i in range(count):
            ratio = run_trial(spec, TrialSeed(row_seed, i))
            checks.check(ratio_matches(ratio, ref[i]),
                         f"{label} n={spec.n} trial {i}: ratio {ratio!r} vs reference {ref[i]!r}")


def per_value(out: str) -> float:
    """The decimal permanent from ``permlab per`` output."""
    head = out.split()
    return float(head[2]) if len(head) >= 3 and head[:2] == ["per", "="] else math.nan


def rel_err(value: float, exact: int) -> float:
    if not math.isfinite(value):
        return math.inf
    return float(abs(Fraction(value) - exact) / exact)


def correct_digits(errors: list[float]) -> float:
    """-log10 of the worst relative error, floored at one unit roundoff (the
    output is a double, so smaller errors are not resolved) and at 0 digits."""
    return max(0.0, -math.log10(max(max(errors), 2.0**-53)))


class Panel:
    """The fixed 0-1 matrices as files, with their exact permanents."""

    def __init__(self, work: Path, shapes) -> None:
        from reference import exact_per01

        self.items = []
        for n, r in shapes:
            rows = panel_matrix(n, r)
            path = work / f"panel-n{n}-r{r}.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
            self.items.append((n, r, str(path), exact_per01(np.array(rows))))

    def check(self, checks: Checks, values: list[float], label: str) -> float:
        """Checks every permanent and returns the panel's correct digits."""
        errors = []
        for (n, r, _, exact), value in zip(self.items, values):
            err = rel_err(value, exact)
            checks.check(err <= CHECK_RTOL, f"{label} n={n} r={r}: relative error {err:.3g}")
            errors.append(err)
        return correct_digits(errors)


def run_window(seconds: float, runner: Runner, rep):
    """Repeat ``rep`` while another repetition of mean length still fits."""
    start = time.perf_counter()
    runner.recalibrate()
    results = []
    while True:
        results.append(rep())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check_repeats(checks: Checks, procs: list[Proc]) -> None:
    """Every repetition exits 0 and prints exactly what the first printed."""
    for k, p in enumerate(procs):
        checks.check(p.code == 0, f"rep {k} exited {p.code}: {p.err.strip()[-300:]}")
        if k:
            checks.check(p.out == procs[0].out, f"rep {k} output differs from rep 0")


def check_moments(checks: Checks, proc: Proc) -> None:
    """``moments`` prints the library's exact ratio and the closed-form mu."""
    from permlab import DistributionSpec, ModelSpec, moment_report

    vals = dict(line.split(" = ", 1) for line in proc.out.splitlines() if " = " in line)
    n, r, dist = MOMENTS[0], MOMENTS[1], DistributionSpec.from_string(MOMENTS[2])
    spec = ModelSpec.homogeneous(n, r, dist)
    want = log_mu(spec)
    checks.check(proc.code == 0 and _float(vals.get("exact_ratio", "")) == moment_report(spec).exact_ratio,
                 f"moments: exact_ratio {vals.get('exact_ratio')} (exit {proc.code})")
    checks.check(abs(_float(vals.get("mu_log", "")) - want) <= 1e-12 * abs(want),
                 f"moments: mu_log {vals.get('mu_log')} vs {want!r}")


def check_verify(checks: Checks, proc: Proc) -> None:
    lines = proc.out.strip().splitlines()
    checks.check(proc.code == 0 and bool(lines)
                 and lines[-1] == f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed",
                 f"verify: {lines[-1] if lines else 'no output'}")


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner, checks: Checks) -> dict:
    spec = MC_WORKLOADS[workload]
    argv = mc_argv(spec, seed, spec["trials"])
    runner.run(START_ARGV)  # fills the bytecode cache
    starts = []

    def rep():
        proc = runner.timed(argv)
        starts.extend(runner.timed(START_ARGV) for _ in range(SETUP_PER_REP))
        return proc

    procs = run_window(seconds, runner, rep)
    print(f"repetitions: {len(procs)}, wall seconds: {[round(p.wall_s, 4) for p in procs]}, "
          f"ref seconds: {[round(p.ref_s, 4) for p in procs]}, "
          f"set-up ref seconds: {[round(p.ref_s, 4) for p in starts]}", file=sys.stderr)
    check_repeats(checks, procs)
    checks.check(all(p.code == 0 for p in starts), "`import permlab.cli` failed")
    rows = mc_rows(spec, seed)
    refs = [reference_ratios(row, row_seed, spec["trials"]) for row, row_seed in rows]
    check_csv(checks, procs[0].out, rows, refs, spec["trials"], workload)
    check_trials(checks, rows, refs, spec["check_trials"], workload)
    panel = Panel(runner.work, PANEL)
    pers = [runner.permlab("per", "--input", path) for _, _, path, _ in panel.items]
    for p in pers:
        checks.check(p.code == 0, f"`per {p.argv[-1]}` exited {p.code}")
    digits = panel.check(checks, [per_value(p.out) for p in pers], "per")
    check_moments(checks, runner.permlab("moments", *MOMENTS_ARGS))
    check_verify(checks, runner.permlab("verify"))
    trials = spec["trials"] * len(rows)
    return {
        "trials_per_ref_s": (statistics.median(trials / p.ref_s for p in procs), "1/ref_s"),
        "per_correct_digits": (digits, "digits"),
        "peak_rss_mb": (max(p.rss_mb for p in procs), "MB"),
        "setup_s": (statistics.median(p.ref_s for p in starts), "s"),
    }
