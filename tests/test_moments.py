import collections
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from permlab.core import DistributionSpec, DomainError, ModelSpec, SizeLimitError
from permlab.model import TrialSeed, trial_rng
from permlab.moments import (
    alpha_beta,
    brute_second_moment_pairs,
    condition_check,
    exact_moments_enumerate,
    moment_report,
    mu_n,
    pair_moment,
    second_moment_bounds,
    vdw_bound,
)
from permlab.verify import VERIFY_SPECS
from paper_series import (
    exact_second_moment_homogeneous,
    log_second_moment_series,
    second_moment_series,
    subfactorial_b,
)
from sampler_reference import sample_row_support
from test_threshold import truncated_exponential_ratio

CONST1 = DistributionSpec.constant(1)
EXP1 = DistributionSpec.exponential(1)


class TestSubfactorial:
    def test_anchors(self):
        assert subfactorial_b(0) == 1
        assert subfactorial_b(1) == 0
        assert subfactorial_b(2) == Fraction(1, 2)
        assert subfactorial_b(3) == Fraction(1, 3)
        assert subfactorial_b(4) == Fraction(3, 8)

    def test_derangement_counts(self):
        # j! b_j is the derangement count: 1, 0, 1, 2, 9, 44, 265, ...
        expected = [1, 0, 1, 2, 9, 44, 265, 1854]
        for j, d in enumerate(expected):
            assert subfactorial_b(j) * math.factorial(j) == d

    def test_degenerate_series_identity(self):
        # sum_k b_{n-k} / k! = 1 exactly, for all n up to 50
        for n in range(51):
            total = sum(
                subfactorial_b(n - k) * Fraction(1, math.factorial(k))
                for k in range(n + 1)
            )
            assert total == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subfactorial_b(-1)

    def test_series_matches_rational_sum(self):
        for n in (3, 7, 12):
            for beta in (0.5, 1.0, 2.75):
                want = float(
                    sum(
                        Fraction(beta).limit_denominator(10**15) ** k
                        / math.factorial(k)
                        * subfactorial_b(n - k)
                        for k in range(n + 1)
                    )
                )
                assert second_moment_series(n, beta) == pytest.approx(want, rel=1e-12)


class TestMu:
    def test_homogeneous_anchor(self):
        spec = ModelSpec(3, (2, 2, 2), CONST1)
        assert mu_n(spec).to_float() == pytest.approx(16 / 9, rel=1e-12)

    def test_heterogeneous_anchor(self):
        spec = ModelSpec(3, (1, 2, 3), CONST1)
        assert mu_n(spec).to_float() == pytest.approx(4 / 3, rel=1e-12)

    def test_full_support_is_factorial(self):
        for n in (2, 5, 9):
            spec = ModelSpec.homogeneous(n, n, CONST1)
            assert abs(mu_n(spec).log_mag - math.lgamma(n + 1)) < 1e-10

    def test_entry_mean_scales_in(self):
        spec1 = ModelSpec(4, (2, 3, 2, 4), CONST1)
        spec3 = ModelSpec(4, (2, 3, 2, 4), DistributionSpec.constant(3))
        assert mu_n(spec3).log_mag == pytest.approx(
            mu_n(spec1).log_mag + 4 * math.log(3), rel=1e-14
        )


class TestVdw:
    def test_anchor_3_2(self):
        assert vdw_bound(3, 2).to_float() == pytest.approx(16 / 9, rel=1e-12)

    def test_r_equals_n(self):
        assert vdw_bound(5, 5).to_float() == pytest.approx(120.0, rel=1e-12)

    def test_r_equals_1(self):
        assert vdw_bound(4, 1).to_float() == pytest.approx(24 / 256, rel=1e-12)

    def test_matches_homogeneous_mu(self):
        # one formula: moments prints the same mu and vdw bytes
        for n in (3, 12, 100, 10**3, 10**4, 10**5):
            for r in sorted({2, 3, math.isqrt(n), n // 2, n}):
                want = mu_n(ModelSpec.homogeneous(n, r, CONST1)).log_mag
                assert vdw_bound(n, r).log_mag == want, (n, r)

    def test_range_check(self):
        with pytest.raises(ValueError):
            vdw_bound(3, 0)
        with pytest.raises(ValueError):
            vdw_bound(3, 4)


class TestAlphaBeta:
    def test_homogeneous_4_2(self):
        ab = alpha_beta(ModelSpec(4, (2, 2, 2, 2), CONST1))
        assert ab.alpha_up.to_float() == pytest.approx(16 / 81, rel=1e-12)
        assert ab.alpha_low.to_float() == pytest.approx(16 / 81, rel=1e-12)
        assert ab.beta_up == pytest.approx(3.0, rel=1e-12)
        assert ab.beta_low == pytest.approx(3.0, rel=1e-12)

    def test_homogeneous_3_2(self):
        ab = alpha_beta(ModelSpec(3, (2, 2, 2), CONST1))
        assert ab.alpha_up.to_float() == pytest.approx(27 / 64, rel=1e-12)
        assert ab.beta_up == pytest.approx(2.0, rel=1e-12)

    def test_homogeneous_collapses(self):
        for n, r in ((5, 3), (9, 6)):
            ab = alpha_beta(ModelSpec.homogeneous(n, r, EXP1))
            assert ab.alpha_up == ab.alpha_low
            assert ab.beta_up == ab.beta_low

    def test_ordering(self):
        for r in [(2, 5, 3, 6, 4, 2), (4, 4, 2, 3, 5, 6), (2, 2, 6, 6, 2, 4)]:
            spec = ModelSpec(6, r, EXP1)
            ab = alpha_beta(spec)
            assert ab.alpha_low.log_mag <= ab.alpha_up.log_mag
            assert ab.beta_low <= ab.beta_up

    def test_requires_r_low_2(self):
        with pytest.raises(DomainError):
            alpha_beta(ModelSpec(3, (1, 2, 3), CONST1))

    def test_requires_n_2(self):
        with pytest.raises(DomainError):
            alpha_beta(ModelSpec(1, (1,), CONST1))

    def test_alpha_below_normal_range(self):
        # alpha_low is about e^(-550000/700), past the double range, while
        # alpha_up, about e^(-275), is a normal double; both are kept as
        # n log1p((r - n)/(r (n - 1))), within a few ulps of the exact log
        n = 550000
        ab = alpha_beta(ModelSpec(n, (700,) * 1000 + (2000,) * 549000, CONST1))
        for r, alpha in ((700, ab.alpha_low), (2000, ab.alpha_up)):
            assert alpha.log_mag == n * math.log1p((r - n) / (r * (n - 1)))
            with localcontext() as ctx:
                ctx.prec = 40
                exact = n * (Decimal(n * (r - 1)) / Decimal(r * (n - 1))).ln()
            assert alpha.log_mag == pytest.approx(float(exact), rel=1e-15), r
        assert ab.alpha_low.to_float() == 0.0
        assert ab.alpha_up.to_float() > 1e-300


class TestSecondMomentBounds:
    def test_hypothesis_failure_names_the_condition(self):
        with pytest.raises(DomainError, match="6\\*delta/nu\\^2"):
            second_moment_bounds(ModelSpec(3, (2, 2, 2), CONST1))

    def test_sandwich_contains_exact_homogeneous_ratio(self):
        spec = ModelSpec.homogeneous(12, 8, CONST1)
        lower, upper = second_moment_bounds(spec)
        exact = moment_report(spec).exact_ratio
        assert lower < exact < upper

    def test_full_support_limit(self):
        # r = n, constant entries: alpha = beta = 1, bounds collapse to 1 -+ 2e/n^2
        n = 50
        lower, upper = second_moment_bounds(ModelSpec.homogeneous(n, n, CONST1))
        slack = 2 * math.e / n**2
        assert lower == pytest.approx(1 - slack, rel=1e-12)
        assert upper == pytest.approx(1 + slack, rel=1e-12)

    @pytest.mark.parametrize("law", ["const:1", "exp:1", "uniform:1,2", "lognormal:0,1"])
    def test_one_row_fails_the_hypothesis(self, law):
        # n = 1 forces r_low = 1, below 6 delta/nu^2 >= 6 (delta >= nu^2)
        with pytest.raises(DomainError, match="6\\*delta/nu\\^2"):
            second_moment_bounds(ModelSpec(1, (1,), DistributionSpec.from_string(law)))


def exact_ratio(n, r, dist):
    return moment_report(ModelSpec.homogeneous(n, r, dist)).exact_ratio


class TestExactHomogeneousRatio:
    def test_anchor_3_2(self):
        assert exact_ratio(3, 2, CONST1) == pytest.approx(1.125, rel=1e-12)

    def test_full_support_is_one(self):
        for n in (3, 5, 8):
            assert exact_ratio(n, n, CONST1) == pytest.approx(1.0, rel=1e-12)

    def test_matches_pair_sum_with_exponential_entries(self):
        want, _ = brute_second_moment_pairs(ModelSpec.homogeneous(4, 2, EXP1))
        mu = mu_n(ModelSpec.homogeneous(4, 2, EXP1)).to_float()
        got = exact_ratio(4, 2, EXP1) * mu * mu
        assert got == pytest.approx(want, rel=1e-12)

    def test_requires_r_2(self):
        with pytest.raises(DomainError):
            exact_second_moment_homogeneous(4, 1, CONST1)

    def test_ratio_nondecreasing_in_shape_factor(self):
        # delta/nu^2 grid via lognormal scale, holding (n, r) fixed
        dists = [CONST1] + [DistributionSpec.lognormal(0.0, s) for s in (0.2, 0.5, 0.8, 1.0)]
        for n, r in ((6, 3), (9, 5)):
            ratios = [exact_ratio(n, r, d) for d in dists]
            assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestExactRatioIdentity:
    """moment_report's exact ratio for any row counts, against the pair sum
    and, for equal row counts, against the paper's series."""

    def test_matches_pair_sum_on_verify_menu(self):
        for dist in (CONST1, EXP1):
            for n, r in VERIFY_SPECS:
                spec = ModelSpec(n, r, dist)
                _, want = brute_second_moment_pairs(spec)
                assert rel_err(moment_report(spec).exact_ratio, want) < 1e-12, (n, r, dist)

    def test_matches_pair_sum_on_random_specs(self):
        rng = np.random.default_rng(20240611)
        dists = [CONST1, EXP1, DistributionSpec.lognormal(0.3, 0.8), DistributionSpec.uniform(1, 2)]
        unit_rows = 0
        for _ in range(300):
            n = int(rng.integers(2, 8))
            r = tuple(int(v) for v in rng.integers(1, n + 1, size=n))
            unit_rows += 1 in r
            spec = ModelSpec(n, r, dists[int(rng.integers(0, len(dists)))])
            _, want = brute_second_moment_pairs(spec)
            assert rel_err(moment_report(spec).exact_ratio, want) < 1e-12, spec
        assert unit_rows > 50

    def test_matches_paper_series_homogeneous(self):
        for n in range(2, 61):
            for r in range(2, n + 1):
                for dist in (CONST1, EXP1):
                    want = exact_second_moment_homogeneous(n, r, dist)
                    assert rel_err(exact_ratio(n, r, dist), want) < 1e-12, (n, r, dist)
        for n, r in ((300, 3), (400, 60)):
            want = exact_second_moment_homogeneous(n, r, CONST1)
            assert rel_err(exact_ratio(n, r, CONST1), want) < 1e-11, (n, r)


def quadrature_ratio(spec):
    """(1/n!) int_0^inf prod_i (c_i + o_i t) e^{-t} dt by 40-digit tanh-sinh
    (mpmath.quad), with o_i = n (r_i - 1)/(r_i (n - 1)) and c_i = q n/r_i - o_i
    formed exactly from the integers and the double q. The interval is cut at
    the mode of t times the integrand and at 1 to 64 of its widths there."""
    n, q = spec.n, spec.dist.delta_over_nu2
    with mpmath.workdps(40):
        groups = []
        for r, m in collections.Counter(spec.r).items():
            o = mpmath.mpf(n * (r - 1)) / (r * (n - 1))
            groups.append((m, o, mpmath.mpf(q) * n / r - o))

        def log_integrand(t):
            return mpmath.fsum(m * mpmath.log(c + o * t) for m, o, c in groups) - t

        mode = mpmath.findroot(
            lambda t: 1 / t - 1 + mpmath.fsum(m * o / (c + o * t) for m, o, c in groups),
            (1, n + 1), solver="anderson")
        width = 1 / mpmath.sqrt(
            1 / mode**2 + mpmath.fsum(m * (o / (c + o * mode)) ** 2 for m, o, c in groups))
        cuts = sorted(t for t in {mode + k * width for k in (0, 1, 2, 4, 8, 16, 32, 64)}
                      | {mode - k * width for k in (1, 2, 4, 8, 16, 32, 64)} if t > 0)
        peak = log_integrand(mode)
        value = mpmath.quad(lambda t: mpmath.exp(log_integrand(t) - peak),
                            [0, *cuts, mpmath.inf])
        return value * mpmath.exp(peak - mpmath.loggamma(n + 1))


def two_groups(n, low, high, law):
    return ModelSpec(n, (low,) * (n // 2) + (high,) * (n - n // 2),
                     DistributionSpec.from_string(law))


class TestQuadratureOracle:
    """The exact ratio within its stated bound, 2e-16 + 8 u (q n/r_low +
    sqrt(n) + |log ratio|) with u = 2^-53, of a 40-digit quadrature of the
    same integral, on heterogeneous specs up to n = 10^5."""

    def test_oracle_matches_paper_series(self):
        for n, r, law in ((10, 3, "const:1"), (1000, 31, "exp:1"), (12, 8, "lognormal:0,3")):
            dist = DistributionSpec.from_string(law)
            with mpmath.workdps(40):
                want = mpmath.mpf(str(truncated_exponential_ratio(n, r, dist.delta_over_nu2)))
                got = quadrature_ratio(ModelSpec.homogeneous(n, r, dist))
                assert abs(got - want) / want < 1e-35, (n, r, law)

    @pytest.mark.parametrize("spec", [
        two_groups(40, 7, 14, "const:1"),
        two_groups(40, 7, 14, "exp:1"),
        ModelSpec(2000, tuple(100 + 19 * (i % 100) for i in range(2000)), EXP1),
        two_groups(10**4, 1000, 2000, "exp:1"),
        two_groups(10**5, 5624, 11248, "exp:1"),
        two_groups(10**5, 400, 800, "exp:1"),
        ModelSpec(50, (1,) * 10 + (25,) * 40, CONST1),
        ModelSpec(300, (1,) * 3 + (2,) * 97 + (150,) * 200, DistributionSpec.uniform(1, 2)),
        ModelSpec.homogeneous(12, 8, DistributionSpec.lognormal(0.0, 3.0)),
        two_groups(30, 20, 30, "lognormal:0,3"),
    ], ids=lambda s: f"n{s.n}-r{s.r_low}-{s.r_up}-{s.dist.spec_string()}-{len(set(s.r))}counts")
    def test_within_stated_bound(self, spec):
        got = moment_report(spec).exact_ratio
        q, n = spec.dist.delta_over_nu2, spec.n
        bound = 2e-16 + 8 * 2.0**-53 * (q * n / spec.r_low + math.sqrt(n) + abs(math.log(got)))
        want = quadrature_ratio(spec)
        with mpmath.workdps(40):
            assert float(abs(got - want) / want) < bound


class TestPairMoment:
    def test_diagonal_case(self):
        spec = ModelSpec(3, (2, 2, 2), CONST1)
        ident = (0, 1, 2)
        assert pair_moment(ident, ident, spec) == pytest.approx(8 / 27, rel=1e-12)

    def test_disjoint_case(self):
        spec = ModelSpec(3, (2, 2, 2), CONST1)
        assert pair_moment((0, 1, 2), (1, 2, 0), spec) == pytest.approx(1 / 27, rel=1e-12)

    def test_rejects_non_permutations(self):
        spec = ModelSpec(3, (2, 2, 2), CONST1)
        with pytest.raises(ValueError):
            pair_moment((0, 1, 1), (0, 1, 2), spec)
        with pytest.raises(ValueError):
            pair_moment((0, 1), (0, 1, 2), spec)

    @staticmethod
    def _simulate_pair(spec, sigma1, sigma2, samples, seed):
        rng = trial_rng(TrialSeed(seed, 0))
        hits = 0
        for _ in range(samples):
            ok = True
            for i in range(spec.n):
                supp = sample_row_support(spec.n, spec.r[i], rng)
                if sigma1[i] not in supp or sigma2[i] not in supp:
                    ok = False  # no break: keep the row draws aligned
            if ok:
                hits += 1
        return hits / samples

    def test_monte_carlo_oracle_transpositions(self):
        # E[R_id R_tau] on the (1,2,3) spec against direct simulation of the
        # row supports (0-1 entries, so the pair moment is a probability)
        spec = ModelSpec(3, (1, 2, 3), CONST1)
        ident = (0, 1, 2)

        # swapping rows 0,1 forces two distinct columns into the size-1
        # support of row 0: probability exactly zero
        tau01 = (1, 0, 2)
        want01 = pair_moment(ident, tau01, spec)
        assert want01 == 0.0
        assert self._simulate_pair(spec, ident, tau01, 20_000, 31337) == 0.0

        # swapping rows 1,2 is the informative case, value 1/9
        tau12 = (0, 2, 1)
        want12 = pair_moment(ident, tau12, spec)
        assert want12 == pytest.approx(1 / 9, rel=1e-12)
        samples = 200_000
        est = self._simulate_pair(spec, ident, tau12, samples, 777)
        sigma = math.sqrt(want12 * (1 - want12) / samples)
        assert abs(est - want12) < 3 * sigma


class TestBrutePairs:
    def test_anchor_32_over_9(self):
        second, ratio = brute_second_moment_pairs(ModelSpec(3, (2, 2, 2), CONST1))
        assert second == pytest.approx(32 / 9, rel=1e-12)
        assert ratio == pytest.approx(1.125, rel=1e-12)

    def test_deterministic_full_support_2(self):
        second, ratio = brute_second_moment_pairs(ModelSpec(2, (2, 2), CONST1))
        assert second == pytest.approx(4.0, rel=1e-12)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_heavier_entry_tail_increases_ratio(self):
        _, r_const = brute_second_moment_pairs(ModelSpec(3, (2, 2, 2), CONST1))
        _, r_exp = brute_second_moment_pairs(ModelSpec(3, (2, 2, 2), EXP1))
        assert r_exp > r_const

    def test_reduction_equals_literal_double_loop(self):
        # the n! * sum-over-tau collapse must equal the raw (n!)^2 pair sum
        for n, r, dist in [
            (3, (1, 2, 3), EXP1),
            (4, (2, 2, 2, 2), CONST1),
            (4, (2, 3, 2, 4), EXP1),
        ]:
            spec = ModelSpec(n, r, dist)
            literal = math.fsum(
                pair_moment(s1, s2, spec)
                for s1 in itertools.permutations(range(n))
                for s2 in itertools.permutations(range(n))
            )
            reduced, _ = brute_second_moment_pairs(spec)
            assert reduced == pytest.approx(literal, rel=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_second_moment_pairs(ModelSpec.homogeneous(8, 3, CONST1))


class TestEnumerationOracle:
    def test_anchor_222(self):
        mean, second = exact_moments_enumerate(ModelSpec(3, (2, 2, 2), CONST1))
        assert mean == pytest.approx(16 / 9, rel=1e-14)
        assert second == pytest.approx(32 / 9, rel=1e-14)

    def test_anchor_123(self):
        mean, second = exact_moments_enumerate(ModelSpec(3, (1, 2, 3), CONST1))
        assert mean == pytest.approx(4 / 3, rel=1e-14)
        # 9-matrix class: per(X) = 1 on 6 matrices, 2 on 3, so E T^2 = 18/9
        assert second == pytest.approx(2.0, rel=1e-14)

    def test_matches_direct_matrix_enumeration(self):
        # the definition, walked matrix by matrix: each X's compatible
        # permutations, its permanent, and its pairs binned by agreement
        from sampler_reference import enumerate_constraint_matrices
        from permlab.moments import _enumeration_invariants
        from permlab.permanent import per_naive

        for n, r in [(3, (2, 2, 2)), (3, (1, 2, 3)), (4, (2, 2, 3, 3)), (4, (1, 2, 3, 4))]:
            spec = ModelSpec(n, r, CONST1)
            perms = list(itertools.permutations(range(n)))
            per_sum, hist, values = 0, [0] * (n + 1), []
            for m in enumerate_constraint_matrices(spec):
                compatible = [s for s in perms if all(m.entries[i, s[i]] for i in range(n))]
                values.append(per_naive(m).to_float())
                assert values[-1] == pytest.approx(len(compatible), rel=1e-12)
                per_sum += len(compatible)
                for s1, s2 in itertools.product(compatible, repeat=2):
                    hist[sum(a == b for a, b in zip(s1, s2))] += 1
            assert _enumeration_invariants(n, r) == (per_sum, tuple(hist))
            mean, second = exact_moments_enumerate(spec)
            assert mean == pytest.approx(np.mean(values), rel=1e-12)
            assert second == pytest.approx(np.mean(np.square(values)), rel=1e-12)

    def test_cross_oracle_agreement(self):
        cases = [
            (2, (1, 2)),
            (3, (2, 2, 2)),
            (3, (1, 2, 3)),
            (4, (2, 2, 3, 3)),
            (5, (2, 3, 3, 4, 5)),
            # classes of 6.4e7, 1.1e7 and 5.4e5 matrices
            (6, (3,) * 6),
            (6, (2,) * 6),
            (6, (2, 3, 3, 4, 5, 6)),
        ]
        for n, r in cases:
            for dist in (CONST1, EXP1):
                spec = ModelSpec(n, r, dist)
                _, second_enum = exact_moments_enumerate(spec)
                second_pairs, _ = brute_second_moment_pairs(spec)
                assert second_pairs == pytest.approx(second_enum, rel=1e-10)

    def test_size_guards(self):
        with pytest.raises(SizeLimitError):
            exact_moments_enumerate(ModelSpec.homogeneous(7, 2, CONST1))


class TestConditions:
    def test_anchor_100_50(self):
        chk = condition_check(ModelSpec.homogeneous(100, 50, CONST1))
        assert chk.a_n == pytest.approx(0.2, rel=1e-12)
        assert chk.c_n == pytest.approx(0.0, abs=1e-15)

    def test_homogeneous_constant_has_zero_c(self):
        for n, r in ((5, 2), (20, 13), (30, 30)):
            chk = condition_check(ModelSpec.homogeneous(n, r, CONST1))
            assert chk.c_n == pytest.approx(0.0, abs=1e-12)

    def test_theta_anchor(self):
        chk = condition_check(ModelSpec.homogeneous(9, 3, CONST1))
        assert chk.theta == pytest.approx((2 / 3) * math.exp(0.5), rel=1e-12)
        assert chk.theta > 1

    @pytest.mark.parametrize("dist", [EXP1, DistributionSpec.uniform(1, 2)],
                             ids=lambda d: d.spec_string())
    def test_theta_is_growth_of_exact_ratio(self, dist):
        # theta = (1 - 1/r) e^{q/(r-1)} with q = delta/nu^2, against the
        # exact ratio's growth per dimension from n = 400 to 800 at r = 8
        ratios = [moment_report(ModelSpec.homogeneous(n, 8, dist)).exact_ratio
                  for n in (400, 800)]
        growth = math.exp((math.log(ratios[1]) - math.log(ratios[0])) / 400)
        theta = condition_check(ModelSpec.homogeneous(400, 8, dist)).theta
        assert theta == pytest.approx(growth, rel=1e-5)

    def test_theta_past_double_range_is_inf(self):
        # q = e^9 = 8103: e^{q/(r-1)} is e^1157.6, past the double range
        spec = ModelSpec.homogeneous(12, 8, DistributionSpec.lognormal(0.0, 3.0))
        assert condition_check(spec).theta == math.inf
        assert moment_report(spec).theta == math.inf

    def test_theta_absent_for_heterogeneous_or_r1(self):
        assert condition_check(ModelSpec(3, (1, 2, 3), CONST1)).theta is None
        assert condition_check(ModelSpec.homogeneous(3, 1, CONST1)).theta is None

    def test_c_n_formula_and_nonnegativity(self):
        spec = ModelSpec(4, (3, 3, 3, 2), CONST1)
        assert condition_check(spec).c_n == pytest.approx(4 * (1 / 2 - 1 / 3), rel=1e-12)
        spec2 = ModelSpec(4, (4, 4, 4, 3), EXP1)
        assert condition_check(spec2).c_n == pytest.approx(4 * (2 / 3 - 1 / 4), rel=1e-12)
        # delta >= nu^2 and r_low <= r_up make c_n >= 0 for every spec
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            r = tuple(int(v) for v in rng.integers(1, n + 1, size=n))
            assert condition_check(ModelSpec(n, r, EXP1)).c_n >= 0


class TestSandwichAtAllScales:
    def test_pre_approximation_sandwich_heterogeneous(self):
        # alpha_low S(beta_low) <= ratio <= alpha_up S(beta_up) at every n,
        # where S is the series; this is the bound before the e^{beta-1}
        # approximation step and must hold without an n threshold
        rng = np.random.default_rng(42)
        dists = [CONST1, EXP1, DistributionSpec.uniform(1, 2)]
        for _ in range(40):
            n = int(rng.integers(2, 8))
            r = tuple(int(v) for v in rng.integers(2, n + 1, size=n))
            dist = dists[int(rng.integers(0, len(dists)))]
            spec = ModelSpec(n, r, dist)
            ab = alpha_beta(spec)
            _, ratio = brute_second_moment_pairs(spec)
            lower = ab.alpha_low.to_float() * second_moment_series(n, ab.beta_low)
            upper = ab.alpha_up.to_float() * second_moment_series(n, ab.beta_up)
            assert lower - 1e-9 <= ratio <= upper + 1e-9

    def test_bracket_holds_at_large_n(self):
        # the same bracket, far beyond the pair-sum oracle, against the exact
        # ratio; compared in logs, with S from float b_j. Row counts span a
        # band of about 1/8 of its floor, so the bracket stays narrow. The
        # homogeneous r ~ sqrt(n) cases, where the bracket is an equality,
        # have alpha subnormal (550000, 742) or below the double range.
        rng = np.random.default_rng(7)
        dists = [CONST1, EXP1, DistributionSpec.lognormal(0.0, 0.5)]
        specs = []
        for n in (10, 30, 100, 300, 1000):
            for _ in range(8):
                floor = int(rng.integers(max(2, n // 50), n))
                top = min(n, floor + max(1, floor // 8))
                r = tuple(int(v) for v in rng.integers(floor, top + 1, size=n))
                specs.append(ModelSpec(n, r, dists[int(rng.integers(0, len(dists)))]))
                assert specs[-1].r_low < specs[-1].r_up
        for n, r in ((550000, 742), (640000, 800), (10**6, 1000)):
            specs.append(ModelSpec.homogeneous(n, r, CONST1))
        for spec in specs:
            n, rep = spec.n, moment_report(spec)
            ab = rep.alpha_beta
            log_ratio = math.log(rep.exact_ratio)
            low = ab.alpha_low.log_mag + log_second_moment_series(n, ab.beta_low)
            up = ab.alpha_up.log_mag + log_second_moment_series(n, ab.beta_up)
            assert low - 1e-12 <= log_ratio <= up + 1e-12, (n, spec.r_low, spec.r_up)


class TestMomentReport:
    def test_homogeneous_report(self):
        rep = moment_report(ModelSpec.homogeneous(12, 8, CONST1))
        assert rep.vdw is not None
        assert rep.theta is not None
        assert rep.bounds_failure is None
        assert rep.second_moment_lower < rep.exact_ratio < rep.second_moment_upper

    def test_small_r_report_degrades_gracefully(self):
        rep = moment_report(ModelSpec(3, (1, 2, 3), CONST1))
        assert rep.alpha_beta is None
        assert rep.vdw is None
        assert rep.theta is None
        assert rep.bounds_failure is not None
        assert rep.mu.to_float() == pytest.approx(4 / 3, rel=1e-12)

    def test_hypothesis_failure_recorded(self):
        rep = moment_report(ModelSpec.homogeneous(3, 2, CONST1))
        assert rep.alpha_beta is not None
        assert rep.second_moment_lower is None
        assert "6*delta/nu^2" in rep.bounds_failure
        assert rep.exact_ratio == pytest.approx(1.125, rel=1e-12)
