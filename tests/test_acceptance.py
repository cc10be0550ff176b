"""Acceptance suite: one test (or test group) per criterion, each printing a
summary line via the conftest hook. Statistical checks run at fixed seeds;
exact checks carry pinned tolerances.

Criterion 8's first half (variance decay under the power:0.75 rule) checks
each sampled variance of the n = 8,12,16,20 sweep against the exact variance
within 3 standard errors, and checks the decay itself on the exact variances
over 16 <= n <= 1023. The exact variances at the sweep grid are not monotone
(0.03366, 0.02805, 0.03974, 0.03021), so a strict ordering of the four sample
variances is not something the paper's limit promises; see the test
docstring.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

from permlab.core import DenseMatrix, DistributionSpec, ModelSpec
from permlab.experiments import (
    SweepPlan,
    concentration_sweep,
    estimate_moments,
    resolve_r_rule,
)
from permlab.model import TrialSeed, trial_rng
from permlab.moments import (
    alpha_beta,
    brute_second_moment_pairs,
    exact_moments_enumerate,
    moment_report,
    mu_n,
    second_moment_bounds,
)
from permlab.permanent import per_naive, per_ryser
from paper_series import second_moment_series
from sampler_reference import sample_row_support

CONST1 = DistributionSpec("const", (1,))
EXP1 = DistributionSpec("exp", (1,))
DISTS = (CONST1, EXP1)
REL = 1e-10


def all_r_multisets(n):
    """Row-count multisets cover every spec up to row order, which both the
    closed forms and the class enumeration are invariant under."""
    return itertools.combinations_with_replacement(range(1, n + 1), n)


def rel_err(got, want):
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


def exact_ratio(n, r, dist):
    return moment_report(ModelSpec.homogeneous(n, r, dist)).exact_ratio


# -- criterion 1: mean formula at desk scale ---------------------------------


def test_criterion_1_mean_formula():
    checked = 0
    for n in range(1, 6):
        for r in all_r_multisets(n):
            for dist in DISTS:
                spec = ModelSpec(n, r, dist)
                mean_oracle, _ = exact_moments_enumerate(spec)
                assert rel_err(mu_n(spec).to_float(), mean_oracle) < REL, (n, r, dist)
                checked += 1
    assert checked >= 350

    # hand-verified anchors
    mean, _ = exact_moments_enumerate(ModelSpec(3, (2, 2, 2), CONST1))
    assert rel_err(mean, 16 / 9) < 1e-14
    mean, _ = exact_moments_enumerate(ModelSpec(3, (1, 2, 3), CONST1))
    assert rel_err(mean, 4 / 3) < 1e-14


# -- criterion 2: pair-moment formula ----------------------------------------


def test_criterion_2_pair_moment_formula():
    for n in range(1, 6):
        for r in all_r_multisets(n):
            for dist in DISTS:
                spec = ModelSpec(n, r, dist)
                _, second_oracle = exact_moments_enumerate(spec)
                second_pairs, _ = brute_second_moment_pairs(spec)
                assert rel_err(second_pairs, second_oracle) < REL, (n, r, dist)

    second, _ = brute_second_moment_pairs(ModelSpec(3, (2, 2, 2), CONST1))
    assert rel_err(second, 32 / 9) < 1e-14


# -- criterion 3: homogeneous closed form -------------------------------------


def test_criterion_3_homogeneous_closed_form():
    for n in range(3, 8):
        for r in range(2, n + 1):
            for dist in DISTS:
                spec = ModelSpec.homogeneous(n, r, dist)
                closed = exact_ratio(n, r, dist)
                _, pair_ratio = brute_second_moment_pairs(spec)
                assert rel_err(closed, pair_ratio) < REL, (n, r, dist)
        # degenerate full support with constant entries: ratio is exactly 1
        assert abs(exact_ratio(n, n, CONST1) - 1.0) < 1e-12


# -- criterion 4: kernel agreement --------------------------------------------


def test_criterion_4_algorithm_agreement():
    rng = np.random.default_rng(20240914)
    sizes = itertools.cycle(range(2, 9))
    for _ in range(1000):
        n = next(sizes)
        m = DenseMatrix(rng.uniform(0.0, 1.0, size=(n, n)))
        a = per_naive(m).to_float()
        b = per_ryser(m).to_float()
        assert abs(a - b) <= REL * abs(a)

    # zero-column matrices come back as zero
    for _ in range(30):
        n = int(rng.integers(2, 9))
        arr = rng.uniform(0.0, 1.0, size=(n, n))
        arr[:, int(rng.integers(0, n))] = 0.0
        v = per_ryser(DenseMatrix(arr))
        scale = float(np.prod(arr.sum(axis=1)))
        assert v.is_zero or abs(v.to_float()) < 1e-12 * max(scale, 1.0)


# -- criterion 5: sandwich bounds ---------------------------------------------


def test_criterion_5_sandwich_bounds():
    """Exact homogeneous ratio inside the sandwich for n >= 12.

    The bounds hold asymptotically; if any tested case escaped, the fallback
    assertion is the pre-approximation sandwich (series form), which holds at
    every n. Both paths are checked so an n-threshold finding would surface
    in the failure list without masking the criterion.
    """
    failures = []
    for n in (12, 16, 20, 24):
        for r in sorted({6, 8, n // 2, n - 1, n}):
            if not 6 <= r <= n:
                continue
            spec = ModelSpec.homogeneous(n, r, CONST1)
            lower, upper = second_moment_bounds(spec)
            exact = exact_ratio(n, r, CONST1)
            if not lower <= exact <= upper:
                failures.append((n, r, lower, exact, upper))

    if failures:
        # n-threshold finding: report, then require the series-form sandwich
        print(f"sandwich misses at tested n (n-threshold finding): {failures}")
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            r = tuple(int(v) for v in rng.integers(2, n + 1, size=n))
            spec = ModelSpec(n, r, CONST1)
            ab = alpha_beta(spec)
            _, ratio = brute_second_moment_pairs(spec)
            assert ab.alpha_low.to_float() * second_moment_series(n, ab.beta_low) - 1e-9 <= ratio
            assert ratio <= ab.alpha_up.to_float() * second_moment_series(n, ab.beta_up) + 1e-9
    assert not failures, f"sandwich failed at {failures}"


# -- criterion 6: support marginals -------------------------------------------


def test_criterion_6_support_marginals():
    n, r, samples = 3, 2, 100_000
    rng = trial_rng(TrialSeed(7, 0))
    counts = np.zeros(n)
    pair_hits = 0
    for _ in range(samples):
        supp = sample_row_support(n, r, rng)
        for c in supp:
            counts[c] += 1
        if 0 in supp and 1 in supp:
            pair_hits += 1

    p1 = r / n
    sigma1 = math.sqrt(p1 * (1 - p1) / samples)
    for j in range(n):
        assert abs(counts[j] / samples - p1) < 3 * sigma1, f"column {j}"

    p2 = r * (r - 1) / (n * (n - 1))
    sigma2 = math.sqrt(p2 * (1 - p2) / samples)
    assert abs(pair_hits / samples - p2) < 3 * sigma2


# -- criterion 7: Monte Carlo calibration -------------------------------------


@pytest.fixture(scope="module")
def calibration_batch():
    return estimate_moments(ModelSpec(3, (2, 2, 2), CONST1), 100_000, 7)


def test_criterion_7_calibration_mean_and_variance(calibration_batch):
    batch = calibration_batch
    assert abs(batch.mean_ratio - 1.0) < 3 * batch.se_mean
    assert abs(batch.var_ratio - 0.125) < 3 * batch.se_var


def test_criterion_7_two_point_law(calibration_batch):
    # T/mu is 0 w.p. 1/9 and 9/8 w.p. 8/9; chi-square GOF at alpha = 0.001
    batch = calibration_batch
    zeros = int((batch.ratios == 0.0).sum())
    others = batch.trials - zeros
    nonzero = batch.ratios[batch.ratios > 0]
    assert np.all(np.abs(nonzero - 9 / 8) < 1e-12)
    expected = np.array([batch.trials / 9, 8 * batch.trials / 9])
    observed = np.array([zeros, others], dtype=float)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, df=1)


# -- criterion 8: concentration trend -----------------------------------------

SWEEP_NS = (8, 12, 16, 20)


@pytest.fixture(scope="module")
def sweep_power():
    plan = SweepPlan(ns=SWEEP_NS, r_rule="power:0.75", dist=CONST1,
                     trials=400, master_seed=7)
    return concentration_sweep(plan)


def _power_rule_variance(n):
    r = resolve_r_rule("power:0.75", n)[0]
    return exact_ratio(n, r, CONST1) - 1.0


def test_criterion_8_power_rule_sample_variance_decreases(sweep_power):
    """Under r = ceil(n^0.75) the sweep samples a law whose variance of
    T/mu decays to zero.

    The paper's limit does not make the variance fall at every step in n.
    r is an integer, so it stays fixed over runs of consecutive n. While r
    stays fixed the variance grows with n, as it does under a constant rule;
    when r steps up by one it drops. The result is a sawtooth with a falling
    envelope. The exact variances at the sweep grid are
    n=8: 0.03366, n=12: 0.02805, n=16: 0.03974, n=20: 0.03021;
    n = 16 (r = 8 = 16^0.75) ends a run of r = 8 and sits above n = 12.

    So the test checks two things that can each fail:
    1. every sampled variance lies within 3 jackknife standard errors of the
       exact variance (the calibration rule of criterion 7);
    2. on the exact variances over 16 <= n <= 1023, the tail supremum over
       [N, 1023] strictly decreases for N = 16, 32, ..., 512 and at N = 512
       is below half its value at N = 16.
    """
    svars = [row.var_ratio for row in sweep_power]
    pops = [_power_rule_variance(row.n) for row in sweep_power]
    print(f"power:0.75 sample variances over n={SWEEP_NS}: {svars}")
    print(f"power:0.75 exact population variances:       {pops}")
    for row, pop in zip(sweep_power, pops):
        z = (row.var_ratio - pop) / row.se_var
        print(f"n={row.n}: z = {z:+.2f}")
        assert abs(z) < 3, (row.n, row.var_ratio, pop, row.se_var)

    top = 1023
    exact = {n: _power_rule_variance(n) for n in range(16, top + 1)}
    starts = [16 * 2 ** k for k in range(6)]
    sups = [max(exact[n] for n in range(start, top + 1)) for start in starts]
    print(f"power:0.75 exact tail suprema from N={starts}: {sups}")
    assert all(a > b for a, b in zip(sups, sups[1:])), sups
    assert sups[-1] < 0.5 * sups[0], sups


def test_criterion_8_const_rule_population_variance_increases():
    # fixed r = 3: theta = (2/3) e^{1/2} > 1, so the exact second-moment
    # ratio grows exponentially in n
    theta = (1 - 1 / 3) * math.exp(1 / 2)
    assert theta > 1
    pops = [exact_ratio(n, 3, CONST1) - 1.0 for n in SWEEP_NS]
    assert all(a < b for a, b in zip(pops, pops[1:])), pops
    # growth factor per dimension step approaches theta
    ratios = [
        (pops[i + 1] + 1) / (pops[i] + 1) for i in range(len(pops) - 1)
    ]
    assert ratios[-1] == pytest.approx(theta ** 4, rel=0.05)


def test_criterion_8_const_rule_sample_variance_tracks_growth():
    plan = SweepPlan(ns=SWEEP_NS, r_rule="const:3", dist=CONST1,
                     trials=400, master_seed=7)
    rows = concentration_sweep(plan)
    svars = [row.var_ratio for row in rows]
    print(f"const:3 sample variances over n={SWEEP_NS}: {svars}")
    # not tending to zero: every sample variance stays above the n=8
    # population variance, and the trend is increasing overall
    floor = exact_ratio(8, 3, CONST1) - 1.0
    assert all(v > 0.5 * floor for v in svars)
    assert svars[-1] > svars[0]


# -- criterion 9: CLI determinism ---------------------------------------------


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "permlab", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_determinism(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("1 2\n3 4\n")

    fixed_cmds = [
        ["per", "--input", str(mat), "--algorithm", "ryser"],
        ["per", "--input", str(mat), "--algorithm", "naive"],
        ["moments", "--n", "12", "--r", "8", "--dist", "exp:1"],
        ["sample", "--n", "5", "--r", "2,3,2,4,5", "--dist", "lognormal:0,1",
         "--seed", "77"],
        ["verify"],
    ]
    for cmd in fixed_cmds:
        a = _cli(cmd)
        b = _cli(cmd)
        assert a.returncode == b.returncode == 0, (cmd, a.stderr)
        assert a.stdout == b.stdout, cmd

    # file outputs: rerun and worker-count independence
    args = ["mc", "--n", "4", "--r", "2", "--dist", "exp:1",
            "--trials", "400", "--seed", "7"]
    outs = []
    for i, workers in enumerate(("1", "2", "1")):
        path = tmp_path / f"mc{i}.csv"
        r = _cli(args + ["--workers", workers, "--out", str(path)])
        assert r.returncode == 0, r.stderr
        assert "seed=7" in r.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    sweep_args = ["sweep", "--n", "3,5", "--r-rule", "const:2", "--dist", "const:1",
                  "--trials", "100", "--seed", "7"]
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    assert _cli(sweep_args + ["--out", str(s1)]).returncode == 0
    assert _cli(sweep_args + ["--out", str(s2)]).returncode == 0
    assert s1.read_bytes() == s2.read_bytes()
