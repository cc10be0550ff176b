import csv
import inspect
import io
import math
import os
import sys
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from permlab import experiments
from permlab.cli import build_parser, main
from permlab.core import DistributionSpec, ModelSpec, SizeLimitError
from permlab.experiments import (
    CSV_HEADER,
    MAX_TRIALS,
    _resolve_workers,
    SweepPlan,
    TrialBatch,
    concentration_sweep,
    csv_text,
    estimate_moments,
    jackknife_se_of_variance,
    resolve_r_rule,
    run_trial,
    summary_row,
    write_csv,
)
from permlab.model import _SEED_PIECE, TrialSeed, sample_constrained_matrix, trial_rng
from permlab.moments import moment_report
from permlab.permanent import _BLOCK_BITS, _CHUNK_ENTRIES, _pass_shape
from permanent_reference import exact_per01
from sampler_reference import _span_states, enumerate_constraint_matrices

CONST1 = DistributionSpec("const", (1,))
SPEC3 = ModelSpec(3, (2, 2, 2), CONST1)


class TestRunTrial:
    def test_deterministic_2x2_is_exactly_one(self):
        spec = ModelSpec(2, (2, 2), CONST1)
        for seed in (0, 7, 12345):
            assert run_trial(spec, TrialSeed(seed, 0)) == 1.0

    def test_two_point_support(self):
        # per is 0 or 2 on this class; mu = 16/9, so T/mu is 0 or 9/8
        values = {run_trial(SPEC3, TrialSeed(3, i)) for i in range(300)}
        assert len(values) == 2
        lo, hi = sorted(values)
        assert lo == 0.0
        assert hi == pytest.approx(9 / 8, abs=1e-12)

    def test_same_seed_bit_identical(self):
        spec = ModelSpec(6, (2, 3, 4, 2, 5, 6), DistributionSpec("exp", (1.0,)))
        a = run_trial(spec, TrialSeed(42, 17))
        b = run_trial(spec, TrialSeed(42, 17))
        assert a == b

    def test_full_support_ratio_near_one(self):
        spec = ModelSpec.homogeneous(10, 10, CONST1)
        vals = [run_trial(spec, TrialSeed(s, 0)) for s in range(5)]
        assert len(set(vals)) == 1  # deterministic matrix, identical ratios
        assert abs(vals[0] - 1.0) < 1e-10

    def test_constant_scale_invariance_bitwise(self):
        r = (2, 3, 2, 4, 5)
        spec_c = ModelSpec(5, r, DistributionSpec("const", (3.7,)))
        spec_1 = ModelSpec(5, r, CONST1)
        for i in range(40):
            assert run_trial(spec_c, TrialSeed(9, i)) == run_trial(spec_1, TrialSeed(9, i))

    def test_exponential_rate_invariance_bitwise(self):
        r = (2, 3, 2, 4, 5)
        e1 = ModelSpec(5, r, DistributionSpec("exp", (1.0,)))
        e2 = ModelSpec(5, r, DistributionSpec("exp", (2.0,)))
        for i in range(40):
            assert run_trial(e1, TrialSeed(9, i)) == run_trial(e2, TrialSeed(9, i))

    def test_lognormal_location_invariance_bitwise(self):
        r = (2, 3, 2, 4)
        l1 = ModelSpec(4, r, DistributionSpec("lognormal", (0.0, 0.7)))
        l2 = ModelSpec(4, r, DistributionSpec("lognormal", (2.5, 0.7)))
        for i in range(40):
            assert run_trial(l1, TrialSeed(9, i)) == run_trial(l2, TrialSeed(9, i))


class TestTrialBatch:
    def test_summary_matches_direct_recomputation(self):
        batch = estimate_moments(SPEC3, 500, 21)
        assert batch.mean_ratio == pytest.approx(float(np.mean(batch.ratios)), abs=0)
        assert batch.var_ratio == pytest.approx(float(np.var(batch.ratios, ddof=1)), rel=1e-12)
        assert batch.se_mean == pytest.approx(
            math.sqrt(batch.var_ratio / batch.trials), rel=1e-12
        )

    def test_deterministic_spec_has_zero_variance(self):
        spec = ModelSpec.homogeneous(6, 6, CONST1)
        batch = estimate_moments(spec, 50, 0)
        assert batch.var_ratio == 0.0
        assert batch.se_mean == 0.0
        assert batch.se_var == 0.0
        assert TrialBatch(spec, 0, 2, 0.1, np.ones(2)).se_var == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialBatch(SPEC3, 0, 3, 0.1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TrialBatch(SPEC3, 0, 2, 0.1, np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            TrialBatch(SPEC3, 0, 1, 0.1, np.array([1.0]))
        with pytest.raises(ValueError):
            estimate_moments(SPEC3, 1, 0)

    def test_p_dev(self):
        ratios = np.array([1.0, 1.05, 0.0, 9 / 8])
        assert TrialBatch(SPEC3, 0, 4, 0.1, ratios).p_dev == pytest.approx(0.5)
        assert TrialBatch(SPEC3, 0, 4, 2.0, ratios).p_dev == 0.0

    def test_two_trials_have_no_variance_se(self):
        # the jackknife needs three values
        assert math.isnan(jackknife_se_of_variance([1.0, 2.0]))
        assert math.isnan(TrialBatch(SPEC3, 0, 2, 0.1, np.array([1.0, 2.0])).se_var)

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_epsilon_is_refused(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            TrialBatch(SPEC3, 0, 4, epsilon, np.ones(4))

    @pytest.mark.parametrize("master_seed", [-3, 2**64])
    def test_bad_master_seed_is_refused(self, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            TrialBatch(SPEC3, master_seed, 4, 0.1, np.ones(4))

    def test_jackknife_matches_direct_leave_one_out(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(size=60)
        m = x.size
        loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(m)])
        direct = math.sqrt((m - 1) / m * ((loo - loo.mean()) ** 2).sum())
        assert jackknife_se_of_variance(x) == pytest.approx(direct, rel=1e-9)

    def test_calibration_statistics(self):
        # population: mean 1, variance 1/8, two-point law {0: 1/9, 9/8: 8/9}
        batch = estimate_moments(SPEC3, 20_000, 7)
        assert abs(batch.mean_ratio - 1.0) < 3 * batch.se_mean
        assert abs(batch.var_ratio - 0.125) < 3 * batch.se_var
        zeros = int((batch.ratios == 0.0).sum())
        assert abs(zeros - batch.trials / 9) < 4 * math.sqrt(batch.trials * (1 / 9) * (8 / 9))


class TestRunGate:
    """One gate holds a run's rules, and the kernel's n <= 30 guard holds
    before anything is sampled or any pool starts."""

    SPEC31 = ModelSpec(31, (2,) * 31, CONST1)

    def test_one_trial_message(self):
        for make in (
            lambda: TrialBatch(SPEC3, 0, 1, 0.1, np.ones(1)),
            lambda: estimate_moments(SPEC3, 1, 0),
            lambda: SweepPlan((3,), "const:2", CONST1, 1, 0),
        ):
            with pytest.raises(ValueError, match="^need at least 2 trials, got 1$"):
                make()

    def test_trial_ceiling(self):
        experiments._check_run(MAX_TRIALS, 0, 0.1)
        assert MAX_TRIALS == 10**7
        for make in (
            lambda: experiments._check_run(MAX_TRIALS + 1, 0, 0.1),
            lambda: estimate_moments(SPEC3, MAX_TRIALS + 1, 0),
            lambda: SweepPlan((3,), "const:2", CONST1, 10**12, 0),
        ):
            with pytest.raises(ValueError, match="^at most 10000000 trials, got "):
                make()

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the size guard")

        for name in ("_sample_trial", "_StackSampler", "_span_words", "ProcessPoolExecutor"):
            monkeypatch.setattr(experiments, name, fail)

    def test_run_trial(self, no_sampling):
        with pytest.raises(SizeLimitError, match="n <= 30, got 31"):
            run_trial(self.SPEC31, TrialSeed(0, 0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimate_moments(self, workers, no_sampling):
        with pytest.raises(SizeLimitError, match="n <= 30, got 31"):
            estimate_moments(self.SPEC31, 2, 0, workers=workers)

    def test_sweep_plan_checks_every_n(self):
        with pytest.raises(SizeLimitError, match="n <= 30, got 31"):
            SweepPlan((3, 31), "const:2", CONST1, 2, 0)


class TestZeroPermanents:
    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("r", [2, 3])
    def test_zero_ratio_iff_no_perfect_matching(self, n, r):
        spec = ModelSpec(n, (r,) * n, DistributionSpec("exp", (1.0,)))
        zeros = 0
        for i in range(150):
            seed = TrialSeed(99, i)
            x, _ = sample_constrained_matrix(spec, seed)
            match = maximum_bipartite_matching(csr_matrix(x.entries), perm_type="column")
            no_matching = bool(np.any(match < 0))
            assert (run_trial(spec, seed) == 0.0) == no_matching
            zeros += no_matching
        # r = n gives a full support, which always has a perfect matching
        assert (zeros > 0) == (r < n)


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that runs each span on submit and
    records the worker count it was asked for."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


class TestWorkerCount:
    def test_default_is_one(self):
        for func in (estimate_moments, concentration_sweep):
            assert inspect.signature(func).parameters["workers"].default == 1
        for cmd in (["mc", "--n", "3", "--r", "2"], ["sweep", "--n", "3", "--r-rule", "sqrt-log"]):
            assert build_parser().parse_args(cmd).workers == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            _resolve_workers(bad)

    def test_capped_at_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert _resolve_workers(10_000) == cpus
        assert _resolve_workers(1) == 1

    def test_without_affinity_capped_at_host_cpus(self, monkeypatch, capsys):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(experiments.os, "sched_getaffinity")
        assert _resolve_workers(10_000) == os.cpu_count()
        assert _resolve_workers(1) == 1
        assert main(["mc", "--n", "3", "--r", "2", "--trials", "10"]) == 0
        assert capsys.readouterr().out.startswith("n,r_low,")

    def test_pool_capped_at_span_count(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
        _InlinePool.requested = []
        batch = estimate_moments(SPEC3, 5, 5, workers=64)
        assert _InlinePool.requested == [5]
        assert np.array_equal(batch.ratios, estimate_moments(SPEC3, 5, 5, workers=1).ratios)


BATCH_LAWS = (
    DistributionSpec("const", (2.0,)),
    DistributionSpec("uniform", (0.5, 2.0)),
    DistributionSpec("exp", (1.5,)),
    DistributionSpec("lognormal", (0.3, 0.8)),
)
LAW_IDS = ("constant", "uniform", "exponential", "lognormal")


class TestBatchEqualsSingle:
    """A batch's ratios are run_trial's, bit for bit, whatever the stack
    and span boundaries."""

    @pytest.mark.parametrize("dist", BATCH_LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 12, 13, 16, 18])
    def test_ratios_equal_run_trial(self, n, dist, monkeypatch):
        # rows with r_i = 1 and r_i = n, the rest mixed
        r = tuple([1, n] + [1 + (3 * i) % n for i in range(n - 2)])[:n]
        spec = ModelSpec(n, r, dist)
        stack = _pass_shape(n)[0]
        # cross a stack boundary where a stack is small enough to fill
        trials = max(stack + 3, 20) if stack <= 2048 else 200
        single = [run_trial(spec, TrialSeed(21, i)) for i in range(trials)]
        assert np.array_equal(estimate_moments(spec, trials, 21, workers=1).ratios, single)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
        assert np.array_equal(estimate_moments(spec, trials, 21, workers=3).ratios, single)

    def test_capped_stack_crosses_a_boundary(self):
        # at n = 3 a stack is a whole seed piece, more than the test above fills
        spec = ModelSpec(3, (1, 3, 2), DistributionSpec("exp", (1.5,)))
        trials = _SEED_PIECE + 3
        single = [run_trial(spec, TrialSeed(21, i)) for i in range(trials)]
        assert np.array_equal(estimate_moments(spec, trials, 21, workers=1).ratios, single)

    def test_stack_sizes(self):
        # one budget: the stacked (stack, n/g, chunk, 2^(b-1)) table fits it
        # rows go in groups of three in every pass with high patterns (n >= 13)
        assert [_pass_shape(n) for n in (1, 3, 6, 8, 11, 12, 13, 14, 15, 16, 17, 20, 30)] == [
            (131072, 1, 1), (10922, 1, 1), (682, 1, 1), (128, 1, 1), (11, 1, 1), (5, 1, 1),
            (6, 2, 3), (3, 4, 3), (1, 8, 3), (1, 8, 3), (1, 8, 3), (1, 8, 3), (1, 4, 3)]
        for n in range(1, 31):
            stack, chunk, group = _pass_shape(n)
            table = -(-n // group) << (min(n, _BLOCK_BITS) - 1)
            assert stack * chunk * table <= max(_CHUNK_ENTRIES, table), n
            assert stack >= 1, n


class TestThreads:
    """A trial is a pure function of (seed, index) on any thread: single
    trials and batches share no generator."""

    def test_threads_equal_serial(self):
        spec = ModelSpec.homogeneous(6, 3, DistributionSpec("exp", (1.0,)))
        seeds = [TrialSeed(5, i) for i in range(2000)]

        def matrix(seed):
            x, y = sample_constrained_matrix(spec, seed)
            return np.stack([x.entries, y.entries])

        def batch(_):
            return estimate_moments(spec, 1000, 5, workers=1).ratios

        ratios = [run_trial(spec, s) for s in seeds]
        matrices = [matrix(s) for s in seeds]
        serial = batch(None)
        # switch threads as often as the interpreter allows, so a shared
        # generator is written between one trial's state and its draws
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded_ratios = list(pool.map(lambda s: run_trial(spec, s), seeds))
                threaded_matrices = list(pool.map(matrix, seeds))
                batches = list(pool.map(batch, range(2)))
        finally:
            sys.setswitchinterval(interval)
        assert threaded_ratios == ratios
        assert all(np.array_equal(a, b) for a, b in zip(threaded_matrices, matrices))
        assert all(np.array_equal(b, serial) for b in batches)


class TestRunRangeMemory:
    """A span hashes its seeds in pieces, so its memory grows by the 8-byte
    ratio per trial only."""

    def test_peak_grows_by_the_ratios_only(self):
        spec = ModelSpec.homogeneous(3, 2, CONST1)
        experiments._run_range(spec, 7, 0, 100)  # first-call allocations
        peaks = {}
        for trials in (10_000, 50_000):
            tracemalloc.start()
            try:
                experiments._run_range(spec, 7, 0, trials)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        growth = peaks[50_000] - peaks[10_000]
        assert growth <= 8 * 40_000 + 2**18, peaks

    def test_pieces_keep_trial_rng_states(self):
        # one piece cut short, then a full one ending at span seeding's 2^32
        start, stop = 2**32 - _SEED_PIECE - 3, 2**32
        got = list(_span_states(3, start, stop))
        want = [trial_rng(TrialSeed(3, i)).bit_generator.state for i in range(start, stop)]
        assert got == want


class TestParallelism:
    def test_worker_count_does_not_change_results(self):
        spec = ModelSpec(6, (3,) * 6, DistributionSpec("exp", (1.0,)))
        b1 = estimate_moments(spec, 150, 11, workers=1)
        b2 = estimate_moments(spec, 150, 11, workers=3)
        assert np.array_equal(b1.ratios, b2.ratios)


class TestRRules:
    def test_const(self):
        assert resolve_r_rule("const:3", 5) == (3, 3, 3, 3, 3)

    def test_sqrt_log(self):
        assert resolve_r_rule("sqrt-log", 8) == (6,) * 8  # ceil(2.828 * 2.079)

    def test_power(self):
        assert resolve_r_rule("power:0.75", 8) == (5,) * 8
        assert resolve_r_rule("power:0.75", 16) == (8,) * 16

    def test_fixed(self):
        assert resolve_r_rule("fixed:1,2,3", 3) == (1, 2, 3)

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_r_rule("geom:2", 4)

    def test_plan_validates_induced_counts(self):
        with pytest.raises(ValueError):
            SweepPlan(ns=(4,), r_rule="const:5", dist=CONST1, trials=10, master_seed=0)
        with pytest.raises(ValueError):
            SweepPlan(ns=(3, 4), r_rule="fixed:1,2,3", dist=CONST1, trials=10, master_seed=0)
        with pytest.raises(ValueError, match="distinct"):
            SweepPlan(ns=(3, 3), r_rule="const:2", dist=CONST1, trials=10, master_seed=0)


class TestSweepAndCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "n,r_low,r_up,dist,trials,seed,mean_ratio,se_mean,var_ratio,se_var,"
            "p_dev,epsilon,a_n,c_n,exact_ratio,bound_low,bound_up"
        )

    def test_empty_sweep_header_only(self, tmp_path):
        plan = SweepPlan(ns=(), r_rule="const:2", dist=CONST1, trials=10, master_seed=0)
        out = tmp_path / "empty.csv"
        write_csv(concentration_sweep(plan), str(out))
        assert out.read_text() == CSV_HEADER + "\n"

    def test_deterministic_spec_row_has_zero_variance(self, tmp_path):
        spec = ModelSpec.homogeneous(5, 5, CONST1)
        batch = estimate_moments(spec, 10, 3)
        out = tmp_path / "det.csv"
        write_csv([summary_row(batch)], str(out))
        row = out.read_text().splitlines()[1].split(",")
        cols = CSV_HEADER.split(",")
        assert row[cols.index("var_ratio")] == "0"
        assert row[cols.index("se_var")] == "0"

    def test_comma_in_dist_is_one_quoted_cell(self):
        # `sweep --n 3,4 --r-rule const:2 --dist lognormal:0,1` and a uniform
        # row: a csv reader sees 17 fields in each, the spec string whole
        plan = SweepPlan((3, 4), "const:2", DistributionSpec("lognormal", (0.0, 1.0)), 5, 1)
        uniform = estimate_moments(ModelSpec.homogeneous(3, 2, DistributionSpec("uniform", (0.5, 2.0))), 5, 1)
        text = csv_text([*concentration_sweep(plan), summary_row(uniform)])
        records = list(csv.reader(io.StringIO(text)))
        assert [len(rec) for rec in records] == [17] * 4
        assert [rec[3] for rec in records[1:]] == ["lognormal:0,1"] * 2 + ["uniform:0.5,2"]
        assert text.splitlines()[1].split(",")[3:5] == ['"lognormal:0', '1"']

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = SweepPlan(ns=(4, 6), r_rule="const:3", dist=CONST1, trials=40, master_seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(concentration_sweep(plan), str(p1))
        write_csv(concentration_sweep(plan), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_reference_columns(self):
        # homogeneous r >= 2: exact ratio present; bounds need r >= 6 delta/nu^2
        batch = estimate_moments(ModelSpec.homogeneous(4, 3, CONST1), 20, 1)
        row = summary_row(batch)
        assert row.exact_ratio is not None
        assert row.bound_low is None
        batch = estimate_moments(ModelSpec.homogeneous(12, 8, CONST1), 5, 1)
        row = summary_row(batch)
        assert row.bound_low is not None and row.bound_up is not None
        assert row.bound_low < row.exact_ratio < row.bound_up
        # heterogeneous with r_low = 1: the exact ratio only, no bounds
        spec = ModelSpec(3, (1, 2, 3), CONST1)
        row = summary_row(estimate_moments(spec, 20, 1))
        assert row.exact_ratio == moment_report(spec).exact_ratio
        assert row.exact_ratio == pytest.approx(1.125, rel=1e-12)
        assert row.bound_low is None
        # heterogeneous meeting r_low >= 6 delta/nu^2: moment_report's values
        spec = ModelSpec(8, (6, 7, 7, 7, 7, 7, 7, 8), CONST1)
        row = summary_row(estimate_moments(spec, 5, 1))
        rep = moment_report(spec)
        assert row.exact_ratio == rep.exact_ratio
        assert (row.bound_low, row.bound_up) == (rep.second_moment_lower, rep.second_moment_upper)
        assert row.bound_low < row.exact_ratio < row.bound_up

    def test_sweep_rows_one_per_n(self):
        plan = SweepPlan(ns=(3, 4, 5), r_rule="const:2", dist=CONST1, trials=30, master_seed=2)
        rows = concentration_sweep(plan)
        assert [row.n for row in rows] == [3, 4, 5]
        for row in rows:
            assert row.trials == 30
            assert row.r_low == row.r_up == 2

    def test_row_seed_reproduces_the_row(self):
        # README's sweep-row rule: row n's seed is SeedSequence(plan seed,
        # spawn_key=(n,))'s first uint64 word, and mc with it prints the row
        plan = SweepPlan(ns=(3, 5), r_rule="const:2", dist=DistributionSpec("exp", (1.0,)),
                         trials=30, master_seed=2)
        for row in concentration_sweep(plan):
            ss = np.random.SeedSequence(2, spawn_key=(row.n,))
            assert row.seed == int(ss.generate_state(1, np.uint64)[0])
            batch = estimate_moments(plan.spec_for(row.n), 30, row.seed)
            assert csv_text([summary_row(batch)]) == csv_text([row])

    def test_exponential_rate_rows_identical_in_distribution(self):
        # inverse-CDF sampling makes the whole ratio set bit-equal across rates
        r = (5,) * 12
        b1 = estimate_moments(ModelSpec(12, r, DistributionSpec("exp", (2.0,))), 60, 13)
        b2 = estimate_moments(ModelSpec(12, r, DistributionSpec("exp", (1.0,))), 60, 13)
        assert np.array_equal(b1.ratios, b2.ratios)
        se = max(b1.se_mean, 1e-12)
        assert abs(b1.mean_ratio - b2.mean_ratio) < 3 * math.sqrt(2) * se


class TestChebyshevBound:
    """The paper's second-moment bound, P(|T/mu - 1| > eps) <= (E T^2/mu^2 - 1)
    / eps^2, holds for every Monte Carlo row up to three standard errors of
    its p_dev. Each epsilon keeps the bound below 1 on every row, so the
    check is not vacuous; a row with an exact ratio of 1 must never deviate."""

    @pytest.mark.parametrize("r_rule,dist,ns,epsilon", [
        ("const:3", CONST1, (3, 4, 5, 6), 0.5),
        ("sqrt-log", CONST1, (4, 5, 6, 7, 8), 0.25),
        ("sqrt-log", DistributionSpec("uniform", (0.5, 2.0)), (4, 6, 8), 0.75),
        ("power:0.9", DistributionSpec("lognormal", (0.0, 0.5)), (4, 6), 0.75),
        ("fixed:2,4,3,5,1", DistributionSpec("uniform", (1.0, 3.0)), (5,), 0.75),
    ])
    def test_p_dev_below_second_moment_bound(self, r_rule, dist, ns, epsilon):
        plan = SweepPlan(ns=ns, r_rule=r_rule, dist=dist, trials=1000, master_seed=41,
                         epsilon=epsilon)
        for row in concentration_sweep(plan):
            bound = (row.exact_ratio - 1) / epsilon**2
            assert bound < 1, row
            slack = 3 * math.sqrt(row.p_dev * (1 - row.p_dev) / row.trials)
            assert row.p_dev <= bound + slack, row


class TestDeviationLaw:
    """p_dev against the exact P(|T/mu - 1| > eps) of a const:1 class,
    enumerated whole: T = per(X) is an integer and mu = prod r_i n!/n^n.
    20 000 trials on seed 7; p_dev must lie within 3 binomial standard
    errors of the exact probability."""

    @pytest.mark.parametrize("r,epsilon", [
        ((3,) * 5, 0.2),            # 10^5 matrices
        ((5,) * 6, 0.1),            # 6^6 matrices
        ((1, 2, 3, 4, 5), 0.2),     # heterogeneous, with r_i = 1 and r_i = n
    ], ids=["n5-r3", "n6-r5", "n5-r1to5"])
    def test_p_dev_matches_exact_law(self, r, epsilon):
        n, trials = len(r), 20_000
        spec = ModelSpec(n, r, CONST1)
        mats = np.array([m.entries for m in enumerate_constraint_matrices(spec)], dtype=np.int64)
        pers = exact_per01(mats)
        # the oracle's own check: E per(X) = mu exactly
        assert int(pers.sum()) * n**n == math.prod(r) * math.factorial(n) * len(mats)
        dev = np.abs(pers / (math.prod(r) * math.factorial(n) / n**n) - 1.0)
        # no class value sits where a rounding in the sampled ratio could flip it
        assert np.min(np.abs(dev - epsilon)) > 1e-9
        exact = float(np.mean(dev > epsilon))
        batch = estimate_moments(spec, trials, 7, epsilon=epsilon)
        assert abs(batch.p_dev - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)
