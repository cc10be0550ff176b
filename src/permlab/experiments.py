"""Seeded Monte Carlo harness for the scaled permanent T/mu: single trials,
trial batches with summary statistics, sweeps over the dimension, and CSV
emission.

Trials are embarrassingly parallel: each ratio is a pure function of
(master_seed, trial_index), and batches assemble results in trial-index
order, so output is identical for any worker count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import DistributionSpec, ModelSpec, ParseError
from .model import TrialSeed, _sample_trial, _span_words, _StackSampler
from .moments import moment_report
from .permanent import _check_glynn_size, _glynn_logs, _pass_shape

__all__ = [
    "DEFAULT_EPSILON",
    "MAX_TRIALS",
    "CSV_HEADER",
    "TrialBatch",
    "SweepPlan",
    "SweepRow",
    "resolve_r_rule",
    "jackknife_se_of_variance",
    "run_trial",
    "estimate_moments",
    "summary_row",
    "concentration_sweep",
    "csv_line",
    "csv_text",
    "write_csv",
]

DEFAULT_EPSILON = 0.1
MAX_TRIALS = 10**7  # a run's memory grows with its trials (README's size guards)


def jackknife_se_of_variance(values: np.ndarray) -> float:
    """Nonparametric jackknife standard error of the sample variance.

    Leave-one-out variances are formed in closed form from the first two
    power sums, so the whole estimate is O(len(values)), in two scratch
    arrays whose in-place steps are the plain formula's operations in order.
    """
    x = np.asarray(values, dtype=float)
    m = x.size
    if m < 3:
        return float("nan")
    s1 = x.sum()
    a = x * x
    s2 = a.sum()
    b = np.subtract(s1, x)
    b /= m - 1  # leave-one-out means L
    np.multiply(np.multiply(b, m - 1, out=a), b, out=a)  # (m - 1) L^2
    np.subtract(s2, np.multiply(x, x, out=b), out=b)
    b -= a
    b /= m - 2  # leave-one-out variances
    b -= b.mean()
    return math.sqrt((m - 1) / m * float(b @ b))


def _trial_ratios(spec: ModelSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T/mu for a stack of trials, from their (X, W) stacks, evaluated in
    one Glynn pass.

    The pass divides row i of X*W by r_i * E[W], and the permanent is
    divided by the expected permanent in log space; log mu0 carries the
    same row scales, so they cancel up to rounding.
    """
    n = spec.n
    scales = np.array(spec.r) * spec.dist.standard_mean
    log_mu0 = math.fsum(map(math.log, scales)) + (math.log(math.factorial(n)) - n * math.log(n))
    # exp(-inf) is 0.0: a zero permanent gives a zero ratio
    return np.array([math.exp(lv - log_mu0) for lv in _glynn_logs(x * w, scales)])


def run_trial(spec: ModelSpec, seed: TrialSeed) -> float:
    """One realization of T/mu.

    Samples (X, W) with W the unit-scale weight matrix, evaluates the
    permanent of X*W through the row-rescaled kernel with row scales
    r_i * E[W], and divides by the expected permanent in log space. The
    family's scale factor multiplies T and mu by the same scale^n, so it is
    cancelled algebraically rather than numerically; ratios are therefore
    bit-identical across pure rescalings of the entry law. The ratio is
    exactly 0.0 when, and only when, the support has no perfect matching.
    The trial is a stack of one through the sampler and kernel pass that
    batches use, so a batch's ratios are bit-identical to these.
    """
    _check_glynn_size(spec.n)
    return float(_trial_ratios(spec, *_sample_trial(spec, seed))[0])


def _run_range(spec: ModelSpec, master_seed: int, start: int, stop: int) -> np.ndarray:
    """Ratios of trials start..stop-1, in stacks of ``_pass_shape(n)[0]`` cut
    within each seed piece (a ratio depends on neither), by one sampler and
    written into one array."""
    sample = _StackSampler(spec)
    step = _pass_shape(spec.n)[0]
    ratios, a = np.empty(stop - start), 0
    for piece in _span_words(master_seed, start, stop):
        out, a = ratios[a:a + len(piece)], a + len(piece)
        for i in range(0, len(piece), step):
            out[i:i + step] = _trial_ratios(spec, *sample(piece[i:i + step]))
    return ratios


@dataclass(frozen=True)
class TrialBatch:
    """Monte Carlo batch: per-trial ratios T/mu plus summary statistics.

    Ratios are stored per trial (index order), so every summary is
    recomputable from the batch contents alone.
    """

    spec: ModelSpec
    master_seed: int
    trials: int
    epsilon: float
    ratios: np.ndarray

    def __post_init__(self) -> None:
        _check_run(self.trials, self.master_seed, self.epsilon)
        arr = np.array(self.ratios, dtype=float)  # copy; the batch owns it
        if arr.shape != (self.trials,):
            raise ValueError(f"expected {self.trials} ratios, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("ratios must be finite and nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "ratios", arr)

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios))

    # Computed once per batch; equality stays on the fields. Identical
    # samples have zero sample variance and zero standard errors by
    # definition, which avoids reporting rounding dust for deterministic specs.
    @functools.cached_property
    def _all_equal(self) -> bool:
        return bool(np.all(self.ratios == self.ratios[0]))

    @functools.cached_property
    def var_ratio(self) -> float:
        return 0.0 if self._all_equal else float(np.var(self.ratios, ddof=1))

    @property
    def se_mean(self) -> float:
        return math.sqrt(self.var_ratio / self.trials)

    @property
    def se_var(self) -> float:
        """Jackknife standard error of the sample variance (nan if trials < 3
        and the ratios differ)."""
        return 0.0 if self._all_equal else jackknife_se_of_variance(self.ratios)

    @property
    def p_dev(self) -> float:
        """Empirical P(|T/mu - 1| > epsilon) at the batch's epsilon."""
        return float(np.mean(np.abs(self.ratios - 1.0) > self.epsilon))


def _resolve_workers(workers: int | None) -> int:
    """Worker count from the argument, else $PERMLAB_WORKERS, else 1.

    Counts <= 0 are rejected; larger ones are capped at the CPUs this
    process may run on, or at the host's CPUs where the OS cannot tell
    (no os.sched_getaffinity on macOS and Windows).
    """
    if workers is None:
        env = os.environ.get("PERMLAB_WORKERS")
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"bad PERMLAB_WORKERS value {env!r}") from None
    if workers <= 0:
        raise ValueError(f"worker count must be positive, got {workers}")
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, usable or 1)


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported on first use: it loads
    multiprocessing, which a single-process run never needs."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _check_run(trials: int, master_seed: int, epsilon: float) -> None:
    """A run's rules: 2 to MAX_TRIALS trials, a finite positive epsilon, and
    TrialSeed's rule for the seed and the last trial."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials, got {trials}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    TrialSeed(master_seed, trials - 1)


def estimate_moments(
    spec: ModelSpec,
    trials: int,
    master_seed: int,
    *,
    workers: int | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> TrialBatch:
    """Run trials 0..trials-1 and summarize.

    Ratios land in trial-index order regardless of worker count, so the
    batch (and everything derived from it) is independent of scheduling.
    The pool never starts more workers than there are spans of trials.
    The run's rules and the kernel's size guard hold before any span runs.
    """
    _check_run(trials, master_seed, epsilon)
    _check_glynn_size(spec.n)
    nworkers = _resolve_workers(workers)
    if nworkers == 1:
        ratios = _run_range(spec, master_seed, 0, trials)
    else:
        bounds = np.linspace(0, trials, 4 * nworkers + 1, dtype=int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=min(nworkers, len(spans))) as pool:
            futures = [pool.submit(_run_range, spec, master_seed, a, b) for a, b in spans]
            ratios = np.concatenate([fut.result() for fut in futures])
    return TrialBatch(
        spec=spec,
        master_seed=master_seed,
        trials=trials,
        epsilon=epsilon,
        ratios=ratios,
    )


@dataclass(frozen=True)
class SweepPlan:
    """Grid of dimensions with an r-rule, entry law, and trial budget.

    r rules: ``const:k`` (same count every row), ``sqrt-log``
    (ceil(sqrt(n) ln n)), ``power:p`` (ceil(n^p)), or ``fixed:a,b,...``
    (explicit vector, single-n plans only). Each dimension appears once.
    """

    ns: tuple[int, ...]
    r_rule: str
    dist: DistributionSpec
    trials: int
    master_seed: int
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(int(v) for v in self.ns))
        # the plan seed's rule, before any row's seed is derived from it
        _check_run(self.trials, self.master_seed, self.epsilon)
        if len(set(self.ns)) != len(self.ns):
            raise ValueError(f"dimensions must be distinct, got {self.ns}")
        for n in self.ns:
            # before any row runs; spec_for raises if the counts fall outside 1..n
            _check_glynn_size(n)
            self.spec_for(n)

    def spec_for(self, n: int) -> ModelSpec:
        return ModelSpec(n, resolve_r_rule(self.r_rule, n), self.dist)


def resolve_r_rule(rule: str, n: int) -> tuple[int, ...]:
    """Row counts induced by an r-rule string at dimension n; ``ParseError`` if none."""
    head, _, tail = rule.strip().partition(":")
    head = head.strip()
    try:
        if head == "const":
            return (int(tail),) * n
        if head == "sqrt-log":
            return (math.ceil(math.sqrt(n) * math.log(n)),) * n
        if head == "power":
            return (math.ceil(n ** float(tail)),) * n
        if head == "fixed":
            return tuple(int(tok) for tok in tail.split(","))
    except (ValueError, OverflowError, TypeError) as exc:
        raise ParseError(f"bad r-rule {rule!r} at n = {n}") from exc
    raise ParseError(f"unknown r-rule {rule!r}")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: model identity, batch summary, diagnostics, and the
    closed-form reference values where they apply. The field order is the
    CSV column order."""

    n: int
    r_low: int
    r_up: int
    dist: str
    trials: int
    seed: int
    mean_ratio: float
    se_mean: float
    var_ratio: float
    se_var: float
    p_dev: float
    epsilon: float
    a_n: float
    c_n: float
    exact_ratio: float | None
    bound_low: float | None
    bound_up: float | None


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def summary_row(batch: TrialBatch) -> SweepRow:
    """Collapse a batch to its CSV row.

    The reference columns are ``moment_report``'s: the exact ratio where the
    closed form applies, the sandwich bounds where its hypothesis holds.
    """
    spec = batch.spec
    rep = moment_report(spec)
    return SweepRow(
        n=spec.n,
        r_low=spec.r_low,
        r_up=spec.r_up,
        dist=spec.dist.spec_string(),
        trials=batch.trials,
        seed=batch.master_seed,
        mean_ratio=batch.mean_ratio,
        se_mean=batch.se_mean,
        var_ratio=batch.var_ratio,
        se_var=batch.se_var,
        p_dev=batch.p_dev,
        epsilon=batch.epsilon,
        a_n=rep.a_n,
        c_n=rep.c_n,
        exact_ratio=rep.exact_ratio,
        bound_low=rep.second_moment_lower,
        bound_up=rep.second_moment_upper,
    )


def _row_master_seed(master_seed: int, n: int) -> int:
    """Independent per-dimension master seed, derived (not consumed) from the
    plan seed so every row has its own documented stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(n,))
    return int(ss.generate_state(1, np.uint64)[0])


def concentration_sweep(plan: SweepPlan, *, workers: int | None = None) -> list[SweepRow]:
    """One batch per dimension in the plan, each from its own derived stream."""
    rows = []
    for n in plan.ns:
        spec = plan.spec_for(n)
        batch = estimate_moments(
            spec,
            plan.trials,
            _row_master_seed(plan.master_seed, n),
            workers=workers,
            epsilon=plan.epsilon,
        )
        rows.append(summary_row(batch))
    return rows


def _csv_cell(value) -> str:
    """A cell's text; one holding a comma, quote or line break is quoted,
    its quotes doubled (RFC 4180), e.g. the dist cell ``"lognormal:0,1"``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(row: SweepRow) -> str:
    """One CSV data line, column order matching CSV_HEADER."""
    return ",".join(_csv_cell(v) for v in astuple(row))


def csv_text(rows) -> str:
    """The header and one line per row, 17 significant digits, LF newlines;
    identical input produces byte-identical text."""
    return "\n".join([CSV_HEADER, *map(csv_line, rows)]) + "\n"


def write_csv(rows, path: str) -> None:
    """Write sweep rows as CSV, ``csv_text``'s bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(rows))
