"""Traced run: the workload's trials driven through permlab's public functions
in this process, with every call timed from here (no spans inside the
package). Each metric is named ``<module>.<quantity>``.

The kernel grid at n in GRID reproduces the per-trial table (trial,
sampling, kernel) of the roadmap's measured baseline.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

from workloads import (
    MC_WORKLOADS,
    MOMENTS,
    TRACED_PANEL,
    VERIFY_CHECKS,
    Checks,
    Panel,
    Runner,
    mc_argv,
    mc_rows,
    ratio_matches,
    reference_ratios,
)

GRID = ((3, 2, 20), (8, 4, 20), (12, 7, 10), (16, 8, 4), (20, 10, 2), (24, 12, 1))
# The trial loop of the traced run stops after this many seconds at most.
PROFILE_MAX_S = 30.0
# Kernel time on the n of the other workloads, so every workload reports
# permanent.per_scaled_ms for every n any workload uses.
OTHER_N_S = 1.0
POOL_SERIAL_S = 0.4
# CLI overhead is measured on a command that does almost no work.
CLI_SPEC = dict(cmd="mc", n=6, r=3, dist="exp:1")
CLI_TRIALS = 2
CLI_REPEATS = 11
ENUMERATE_R = (1, 1, 1, 2, 2, 2)
PAIRS_R = (4,) * 7
REPEATS = 5


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def median_time(fn, *args, repeats: int = REPEATS) -> float:
    return statistics.median(timed(fn, *args)[1] for _ in range(repeats))


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def profile_trials(rows, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Trials 0, 1, ... of every row, each layer timed on its own, until
    ``seconds`` have passed. Trial 0 of every row is checked."""
    from permlab import DenseMatrix, TrialSeed, per_scaled, run_trial, sample_constrained_matrix, trial_rng

    t = {k: [] for k in ("rng", "sample", "dense", "weights", "kernel", "terms", "trial")}
    t["kernel_n"] = {spec.n: [] for spec, _ in rows}
    ratios = {i: [] for i in range(len(rows))}
    refs = [reference_ratios(spec, row_seed, 1)[0] for spec, row_seed in rows]
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        for k, (spec, row_seed) in enumerate(rows):
            n, seed = spec.n, TrialSeed(row_seed, i)
            t["rng"].append(timed(trial_rng, seed)[1])
            (x, y), dt = timed(sample_constrained_matrix, spec, seed)
            t["sample"].append(dt)
            t["dense"].append(timed(DenseMatrix, x.entries)[1])
            t["weights"].append(timed(spec.dist.sample_standard, trial_rng(seed), (n, n))[1])
            scales = [r * spec.dist.nu for r in spec.r]
            dt = timed(per_scaled, y, scales)[1]
            t["kernel"].append(dt)
            t["kernel_n"][n].append(dt)
            t["terms"].append(dt * 1e9 / (n * 2.0**n))
            ratio, dt = timed(run_trial, spec, seed)
            t["trial"].append(dt)
            ratios[k].append(ratio)
            if i == 0:
                checks.check(ratio_matches(ratio, refs[k]),
                             f"traced n={n} trial 0: ratio {ratio!r} vs reference {refs[k]!r}")
        i += 1
    return t, ratios


def layer_metrics(t: dict, ratios: dict) -> dict:
    all_ratios = [v for vals in ratios.values() for v in vals]
    return {
        "model.trial_rng_us": (1e6 * statistics.median(t["rng"]), "us"),
        "model.sample_us": (1e6 * statistics.median(t["sample"]), "us"),
        "core.densematrix_us": (1e6 * statistics.median(t["dense"]), "us"),
        "core.sample_standard_us": (1e6 * statistics.median(t["weights"]), "us"),
        "permanent.ns_per_term": (statistics.median(t["terms"]), "ns"),
        "permanent.zero_share": (sum(r == 0.0 for r in all_ratios) / len(all_ratios), "share"),
        "experiments.run_trial_us.p50": (1e6 * statistics.median(t["trial"]), "us"),
        "experiments.run_trial_us.p90": (1e6 * pct(t["trial"], 90), "us"),
        "experiments.run_trial.count": (len(t["trial"]), "count"),
        "experiments.layer_cover": ((sum(t["sample"]) + sum(t["kernel"])) / sum(t["trial"]), "ratio"),
    }


def kernel_metrics(kernel_n: dict) -> dict:
    metrics = {}
    for n, v in sorted(kernel_n.items()):
        metrics[f"permanent.per_scaled_ms.n{n}.p50"] = (1e3 * statistics.median(v), "ms")
        metrics[f"permanent.per_scaled_ms.n{n}.p90"] = (1e3 * pct(v, 90), "ms")
        metrics[f"permanent.per_scaled.n{n}.count"] = (len(v), "count")
    return metrics


def summary_and_csv(rows, ratios, work) -> dict:
    from permlab import TrialBatch, summary_row, write_csv
    from permlab.experiments import DEFAULT_EPSILON

    spec, row_seed = rows[0]
    batch = TrialBatch(spec, row_seed, len(ratios[0]), DEFAULT_EPSILON, np.array(ratios[0]))
    row = summary_row(batch)
    return {
        "experiments.summary_row_ms": (1e3 * median_time(summary_row, batch), "ms"),
        "experiments.csv_ms": (1e3 * median_time(write_csv, [row], str(work / "row.csv")), "ms"),
    }


def pool_overhead(rows, checks: Checks) -> dict:
    """estimate_moments on min(2, nproc) workers against the serial sum of
    the same run_trial calls, divided by the worker count."""
    from permlab import TrialSeed, estimate_moments, run_trial

    spec, row_seed = rows[0]
    workers = min(2, len(os.sched_getaffinity(0)))
    serial, ratios, trials = 0.0, [], 0
    while serial < POOL_SERIAL_S or trials < 4 * workers:
        ratio, dt = timed(run_trial, spec, TrialSeed(row_seed, trials))
        serial += dt
        ratios.append(ratio)
        trials += 1
    batch, wall = timed(lambda: estimate_moments(spec, trials, row_seed, workers=workers))
    checks.check(np.array_equal(batch.ratios, ratios), "pool: ratios differ from the serial run")
    return {"experiments.pool_overhead_s": (wall - serial / workers, "s")}


def cli_overhead(seed: int, runner: Runner, checks: Checks) -> dict:
    """Median over adjacent pairs of a near-empty ``mc`` command's wall time
    minus an interpreter start plus import, less the same work done
    in-process. Pairing cancels drift in machine speed slower than a pair."""
    from permlab import estimate_moments, summary_row
    from permlab.experiments import CSV_HEADER, csv_line

    spec = mc_rows(CLI_SPEC, seed)[0][0]
    cmd, start = mc_argv(CLI_SPEC, seed, CLI_TRIALS), [sys.executable, "-c", "import permlab.cli"]
    runner.run(cmd)
    diffs = []
    for k in range(CLI_REPEATS):
        first, second = (cmd, start) if k % 2 else (start, cmd)
        a, b = runner.run(first), runner.run(second)
        proc, base = (a, b) if first is cmd else (b, a)
        diffs.append(proc.wall_s - base.wall_s)

    def library():
        return [summary_row(estimate_moments(spec, CLI_TRIALS, seed, workers=1))]

    lib = median_time(library)
    text = "\n".join([CSV_HEADER] + [csv_line(row) for row in library()]) + "\n"
    checks.check(proc.code == 0 and proc.out == text, "cli output differs from the library's")
    return {"cli.overhead_ms": (1e3 * (statistics.median(diffs) - lib), "ms")}


def per_ryser_panel(runner: Runner, checks: Checks) -> dict:
    """per_ryser on the fixed panel up to n = 22, each value against the
    exact reference."""
    from permlab import DenseMatrix, per_ryser

    panel = Panel(runner.work, TRACED_PANEL)
    times: dict[int, list[float]] = {}
    values = []
    for n, _, path, _ in panel.items:
        value, dt = timed(per_ryser, DenseMatrix(np.loadtxt(path)))
        times.setdefault(n, []).append(dt)
        values.append(value.to_float())
    panel.check(checks, values, "traced per_ryser")
    return {f"permanent.per_ryser_ms.n{n}": (1e3 * statistics.median(v), "ms") for n, v in times.items()}


def moments_and_verify(checks: Checks) -> dict:
    """Closed forms and oracles. Enumeration and the verify suite memoise
    their class invariants, so each is timed on its first call."""
    from permlab import (
        DistributionSpec,
        ModelSpec,
        brute_second_moment_pairs,
        cross_check_suite,
        exact_moments_enumerate,
        moment_report,
    )

    n, r, law = MOMENTS
    dist = DistributionSpec.from_string(law)
    suite, suite_s = timed(cross_check_suite)
    bad = [c.label for c in suite if not c.ok]
    checks.check(len(suite) == VERIFY_CHECKS and not bad,
                 f"cross_check_suite: {len(suite)} checks, failing: {bad}")
    return {
        "moments.moment_report_ms": (
            1e3 * median_time(moment_report, ModelSpec.homogeneous(n, r, dist)), "ms"),
        "moments.brute_pairs_ms": (
            1e3 * median_time(brute_second_moment_pairs, ModelSpec(7, PAIRS_R, dist), repeats=3), "ms"),
        "moments.enumerate_ms": (
            1e3 * timed(exact_moments_enumerate, ModelSpec(6, ENUMERATE_R, dist))[1], "ms"),
        "verify.cross_check_suite_ms": (1e3 * suite_s, "ms"),
    }


def kernel_grid(seed: int) -> dict:
    """Per-trial time, sampling and kernel at each grid n, const:1 weights."""
    from permlab import DistributionSpec, ModelSpec, TrialSeed, per_scaled, run_trial
    from permlab import sample_constrained_matrix

    dist = DistributionSpec.from_string("const:1")
    metrics = {}
    for n, r, trials in GRID:
        spec = ModelSpec.homogeneous(n, r, dist)
        t = {"trial": [], "sample": [], "kernel": []}
        for i in range(trials):
            ts = TrialSeed(seed, i)
            t["trial"].append(timed(run_trial, spec, ts)[1])
            (_, y), dt = timed(sample_constrained_matrix, spec, ts)
            t["sample"].append(dt)
            t["kernel"].append(timed(per_scaled, y, [float(r)] * n)[1])
        for k, v in t.items():
            metrics[f"grid.n{n}.{k}_ms"] = (1e3 * statistics.median(v), "ms")
    return metrics


def traced(workload: str, seed: int, seconds: float, runner: Runner, checks: Checks) -> dict:
    rows = mc_rows(MC_WORKLOADS[workload], seed)
    t, ratios = profile_trials(rows, min(seconds, PROFILE_MAX_S), checks)
    metrics = layer_metrics(t, ratios)
    kernel_n = t["kernel_n"]
    for other in MC_WORKLOADS.values():
        other_rows = [row for row in mc_rows(other, seed) if row[0].n not in kernel_n]
        if other_rows:
            kernel_n.update(profile_trials(other_rows, OTHER_N_S, checks)[0]["kernel_n"])
    metrics.update(kernel_metrics(kernel_n))
    metrics.update(summary_and_csv(rows, ratios, runner.work))
    metrics.update(pool_overhead(rows, checks))
    metrics.update(cli_overhead(seed, runner, checks))
    metrics.update(per_ryser_panel(runner, checks))
    metrics.update(moments_and_verify(checks))
    metrics.update(kernel_grid(seed))
    return metrics
