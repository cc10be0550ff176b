"""What the paper concludes from its second moment, checked on the exact
ratio at large n.

For equal row counts r, with q = delta/nu^2, o = (1 - 1/r) n/(n-1) and
d = q n/r, the paper's series alpha sum_k beta^k/k! b_{n-k} (alpha = o^n,
beta = d/o, b_j = sum_{l<=j} (-1)^l/l!) is a Cauchy product, and collapses to
a truncated exponential:

    E T^2 / mu^2 = alpha e_n(beta - 1) = sum_{j<=n} o^(n-j) (d - o)^j / j!,

e_n(x) = sum_{j<=n} x^j/j!. The last form also holds at r = 1 (o = 0).

For 0-1 weights (q = 1), beta - 1 = (n - r)/(r - 1), and expanding
n log(1 - 1/r) - n log(1 - 1/n) and (n/r - 1)/(1 - 1/r) in 1/r gives

    log alpha + beta - 1 = n/(2r^2) + (2/3) n/r^3 - 1/r + O(n/r^4 + 1/r^2 + 1/n).

For r << n the truncation costs a Poisson(beta - 1) tail past n, which is
negligible, so the ratio is exp of this. Var(T/mu) = ratio - 1 thus tends to
0 when r grows faster than sqrt(n), and not when r = c sqrt(n).
"""

import math
import sys
from decimal import Decimal, localcontext

import pytest

from permlab.core import DistributionSpec, ModelSpec
from permlab.experiments import resolve_r_rule
from permlab.moments import moment_report

CONST1 = DistributionSpec.constant(1)
LAWS = [DistributionSpec.from_string(s)
        for s in ("const:1", "exp:1", "uniform:1,2", "lognormal:0,1")]
DOUBLE_MAX = Decimal(sys.float_info.max)


def truncated_exponential_ratio(n: int, r: int, q: float) -> Decimal:
    """sum_{j<=n} o^(n-j) (d - o)^j / j! in 40-digit decimals, whose exponent
    range holds ratios far past the double range."""
    with localcontext() as ctx:
        ctx.prec = 40
        o = Decimal(n * (r - 1)) / Decimal(r * (n - 1))
        x = Decimal(q) * n / r - o
        term, total = Decimal(1), Decimal(0)
        for j in range(n + 1):
            if j:
                term = term * x / j
            total += term * (o ** (n - j) if j < n else 1)
        return +total


def ratio(n: int, r, dist: DistributionSpec = CONST1) -> float:
    rows = (r,) * n if isinstance(r, int) else tuple(r)
    return moment_report(ModelSpec(n, rows, dist)).exact_ratio


class TestTruncatedExponential:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 3000])
    def test_ratio_is_alpha_times_truncated_exponential(self, n):
        finite = 0
        for r in sorted({2, math.isqrt(n), n // 2, n}):
            for dist in LAWS:
                want = truncated_exponential_ratio(n, r, dist.delta_over_nu2)
                got = ratio(n, r, dist)
                if want > DOUBLE_MAX:
                    assert got == math.inf, (n, r, dist)
                    continue
                finite += 1
                assert float(abs(Decimal(got) - want) / want) < 1e-12, (n, r, dist)
        assert finite >= 8

    @pytest.mark.parametrize("n,r", [(10**5, 316), (520000, 721)])
    def test_ratio_at_large_n_along_sqrt(self, n, r):
        # r = isqrt(n), where alpha ~ e^{-n/r} is near or past the double
        # range; n log o must not carry o's rounding times n
        want = truncated_exponential_ratio(n, r, 1.0)
        assert float(abs(Decimal(ratio(n, r)) - want) / want) < 1e-12

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.spec_string())
    def test_full_rows_give_partial_sum_of_exponential(self, dist):
        # r = n: o = 1 and d = q, so the ratio is sum_{j<=n} (q - 1)^j / j!
        x = dist.delta_over_nu2 - 1.0
        for n in (2, 3, 10, 100, 1000, 3000):
            terms = [1.0]
            for j in range(1, n + 1):
                terms.append(terms[-1] * x / j)
            partial = math.fsum(terms)
            assert ratio(n, n, dist) == pytest.approx(partial, rel=1e-12), n
            if n >= 100:
                assert ratio(n, n, dist) == pytest.approx(math.exp(x), rel=1e-12), n


class TestSqrtThreshold:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_r_proportional_to_sqrt_n_keeps_variance(self, c):
        """n = m^2, r = c m: log alpha + beta - 1 = 1/(2c^2) + k/m + O(1/m^2),
        k = 2/(3c^3) - 1/c, so the ratio tends to L = e^{1/(2c^2)} > 1 and
        m (ratio - L) to L k. k > 0 at c = 1/2 (from above), k < 0 at c = 1
        and 2 (from below)."""
        limit = math.exp(1 / (2 * c * c))
        k = 2 / (3 * c**3) - 1 / c
        ms = (10, 30, 100, 300)
        gaps = [ratio(m * m, round(c * m)) - limit for m in ms]
        assert all(math.copysign(1, g) == math.copysign(1, k) for g in gaps)
        assert all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))
        scaled = [m * g / (limit * k) for m, g in zip(ms, gaps)]
        assert all(0.5 < s < 2 for s in scaled), scaled
        assert all(abs(a - 1) > abs(b - 1) for a, b in zip(scaled, scaled[1:])), scaled
        assert abs(scaled[-1] - 1) < 0.02, scaled

    @pytest.mark.parametrize("rule", ["sqrt-log", "power:0.75"])
    def test_r_beyond_sqrt_n_concentrates(self, rule):
        """sqrt-log: r ~ sqrt(n) log n, so Var ~ 1/(2 log^2 n) - 1/r;
        power:0.75: r ~ n^0.75, so Var ~ n^-0.5/2 - n^-0.75. Both fall."""
        variances = [ratio(n, resolve_r_rule(rule, n)) - 1 for n in (100, 1000, 10**4)]
        assert all(a > b > 0 for a, b in zip(variances, variances[1:])), variances
        assert variances[-1] < 5e-3


def test_condition_is_sufficient_not_necessary():
    """Half the rows at r = ceil(n^0.75), half at 2r, 0-1 weights:
    a_n = sqrt(n)/r -> 0, but c_n = n (1/r - 1/(2r)) = n/(2r) -> inf, so the
    paper's sufficient condition fails. So does its argument: the sandwich's
    upper end alpha_up e^{beta_up - 1} grows like e^{c_n}. Yet Var(T/mu) -> 0."""
    reports = []
    for n in (100, 1000, 10**4):
        r = math.ceil(n**0.75)
        reports.append(moment_report(ModelSpec(n, (r,) * (n // 2) + (2 * r,) * (n - n // 2),
                                               CONST1)))
    variances = [rep.exact_ratio - 1 for rep in reports]
    assert all(a > b > 0 for a, b in zip(variances, variances[1:])), variances
    assert variances[-1] < 2.5e-3
    for a, b in zip(reports, reports[1:]):
        assert b.a_n < a.a_n
        assert b.c_n > a.c_n
    for rep in reports:
        assert math.log(rep.second_moment_upper) == pytest.approx(rep.c_n, abs=0.02)
    assert reports[-1].c_n == pytest.approx(5.0, rel=1e-12)


def test_heterogeneous_threshold_concentrates():
    """The paper's heterogeneous case with 0-1 weights, van der Waerden's
    setting: rows spread evenly over [r, r + s], r = ceil(n^0.75) and
    s = ceil(n^0.25). Then a_n = sqrt(n)/r ~ n^-0.25 and c_n = n s/(r (r + s))
    ~ n^-0.25 both tend to 0, the paper's sufficient condition, and
    Var(T/mu) = ratio - 1 tends to 0 with them."""
    reports = []
    for n in (10**3, 10**4, 10**5, 10**6):
        r, s = math.ceil(n**0.75), math.ceil(n**0.25)
        spec = ModelSpec(n, tuple(r + i * (s + 1) // n for i in range(n)), CONST1)
        assert (spec.r_low, spec.r_up) == (r, r + s)
        reports.append(moment_report(spec))
    for a, b in zip(reports, reports[1:]):
        assert b.a_n < a.a_n
        assert b.c_n < a.c_n
        assert 0 < b.exact_ratio - 1 < a.exact_ratio - 1
