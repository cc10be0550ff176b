"""Closed-form moments of the scaled permanent under the row-constrained
model, together with the exact small-n oracles that validate them.

Notation used throughout: nu and delta are the mean and second moment of a
single weight entry, r_low/r_up the extreme row counts, and the "ratio"
always means E T^2 / mu^2 where T is the permanent of the sampled matrix
and mu its expectation.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import DomainError, ModelSpec, ScaledValue, SizeLimitError

__all__ = [
    "mu_n",
    "vdw_bound",
    "AlphaBeta",
    "alpha_beta",
    "second_moment_bounds",
    "pair_moment",
    "brute_second_moment_pairs",
    "exact_moments_enumerate",
    "constraint_class_size",
    "ConditionCheck",
    "condition_check",
    "MomentReport",
    "moment_report",
    "PAIRS_MAX_N",
    "ENUMERATE_MAX_N",
]

PAIRS_MAX_N = 7
ENUMERATE_MAX_N = 6


def _log_mu(n: int, log_r: float, log_nu: float) -> ScaledValue:
    """prod_i r_i * nu^n * n! / n^n from log_r = sum_i log r_i, in log space."""
    return ScaledValue(math.fsum([log_r, n * log_nu, math.lgamma(n + 1), -n * math.log(n)]))


def mu_n(spec: ModelSpec) -> ScaledValue:
    """Expected permanent: prod_i r_i * nu^n * n! / n^n, in log space."""
    return _log_mu(spec.n, math.fsum(map(math.log, spec.r)), math.log(spec.dist.nu))


def vdw_bound(n: int, r: int) -> ScaledValue:
    """r^n * n! / n^n, the permanent lower bound for 0-1 matrices with r ones
    in every row and column: mu_n of the homogeneous 0-1 spec bit for bit,
    since n log r rounds once, as mu_n's fsum of n copies of log r does.

    The sampled model constrains rows only, so this is a reference line,
    not a guaranteed bound for sampled matrices.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    return _log_mu(n, n * math.log(r), 0.0)


class AlphaBeta(NamedTuple):
    alpha_up: ScaledValue
    beta_up: float
    alpha_low: ScaledValue
    beta_low: float


def _log_o(n: int, r: int) -> float:
    """log o, o = (1 - 1/r) n/(n - 1), as log1p of a correctly rounded int/int
    quotient: one rounding of x ~ -1/r, not o's several. Needs r >= 2."""
    return math.log1p((r - n) / (r * (n - 1)))


def alpha_beta(spec: ModelSpec) -> AlphaBeta:
    """The four geometric factors entering the second-moment sandwich:

        alpha_up  = (n (r_up - 1) / (r_up (n - 1)))^n
        beta_up   = delta r_up (n - 1) / (nu^2 r_low (r_up - 1))
        alpha_low = (n (r_low - 1) / (r_low (n - 1)))^n
        beta_low  = delta r_low (n - 1) / (nu^2 r_up (r_low - 1))

    The alphas are kept as logs, n * _log_o(n, r), which stay finite where
    alpha itself (about e^{-n/r}) leaves the double range. Requires n >= 2
    and r_low >= 2; the formulas divide by r - 1.
    """
    n, rl, ru = spec.n, spec.r_low, spec.r_up
    if n < 2:
        raise DomainError(f"alpha/beta need n >= 2, got n={n}")
    if rl < 2:
        raise DomainError(f"alpha/beta need r_low >= 2, got r_low={rl}")
    q = spec.dist.delta_over_nu2
    return AlphaBeta(ScaledValue(n * _log_o(n, ru)), q * ru * (n - 1) / (rl * (ru - 1)),
                     ScaledValue(n * _log_o(n, rl)), q * rl * (n - 1) / (ru * (rl - 1)))


def second_moment_bounds(spec: ModelSpec) -> tuple[float, float]:
    """Sandwich for E T^2 / mu^2:

        alpha_low e^{beta_low - 1} (1 - 2e/n^2)
            <= E T^2 / mu^2 <=
        alpha_up e^{beta_up - 1} (1 + 2e/n^2)

    Valid for all n large under the hypothesis r_low >= 6 delta / nu^2;
    small n may fall outside. Raises DomainError naming the failed
    hypothesis when it does not hold. Each end is exp(log alpha + beta - 1),
    inf past the double range.
    """
    q = spec.dist.delta_over_nu2
    threshold = 6.0 * q
    if spec.r_low < threshold:
        raise DomainError(
            f"r_low >= 6*delta/nu^2 not met: r_low={spec.r_low} < {threshold:.17g}"
        )
    ab = alpha_beta(spec)
    slack = 2.0 * math.e / spec.n**2
    lower = ScaledValue(ab.alpha_low.log_mag + ab.beta_low - 1.0).to_float() * (1.0 - slack)
    upper = ScaledValue(ab.alpha_up.log_mag + ab.beta_up - 1.0).to_float() * (1.0 + slack)
    return lower, upper


def _check_permutation(sigma, n: int) -> tuple[int, ...]:
    sig = tuple(int(v) for v in sigma)
    if len(sig) != n or sorted(sig) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma!r}")
    return sig


def pair_moment(sigma1, sigma2, spec: ModelSpec) -> float:
    """E[R_s1 * R_s2] where R_s is the product of matrix entries along
    permutation s: with S the set of rows where the permutations agree,

        prod_{j in S} delta p_j
        * prod_{i not in S} (nu p_i)^2 (1 - 1/r_i) n/(n-1)

    with p_i = r_i / n. Rows outside S with r_i = 1 force the value to zero
    (two distinct columns cannot both lie in a single-column support).
    """
    n = spec.n
    s1 = _check_permutation(sigma1, n)
    s2 = _check_permutation(sigma2, n)
    nu = spec.dist.nu
    delta = spec.dist.delta
    factors = []
    for i in range(n):
        p = spec.r[i] / n
        if s1[i] == s2[i]:
            factors.append(delta * p)
        else:
            factors.append((nu * p) ** 2 * (1.0 - 1.0 / spec.r[i]) * n / (n - 1.0))
    return math.prod(factors)


def brute_second_moment_pairs(spec: ModelSpec) -> tuple[float, float]:
    """E T^2 as the sum of pair_moment over all permutation pairs.

    Returns (second_moment, ratio to mu^2). The pair moment depends only on
    the agreement set, and relabeling by any fixed permutation is a
    bijection of the pair space, so the (n!)^2 pair sum collapses exactly to
    n! times the sum over the second permutation with the first held at the
    identity. Guarded at n <= 7.
    """
    n = spec.n
    if n > PAIRS_MAX_N:
        raise SizeLimitError(f"pair sum limited to n <= {PAIRS_MAX_N}, got {n}")
    ident = tuple(range(n))
    total = math.fsum(
        pair_moment(ident, tau, spec) for tau in itertools.permutations(range(n))
    )
    second = math.factorial(n) * total
    mu = mu_n(spec)
    ratio = math.exp(math.log(second) - 2.0 * mu.log_mag) if second > 0 else 0.0
    return second, ratio


def _log_gamma_sum(n: int, groups: list[tuple[int, float, float]]) -> float:
    """log of the trapezoid sum over y of exp(phi), phi(y) = n (y - expm1 y) + y
    + sum_g m log1p(x + c e^{-y}/n): log t^(n+1) e^{-t} prod_g (1 + x + c/t)^m,
    t = n e^y, up to a constant, so log-concave in t. Nodes are h = pi/sqrt(20
    (t + 10)) apart from the mode (1 <= t <= n + 1), out to e^{-40} below it."""

    def phi(y):
        s = math.exp(-y) / n
        return n * (y - math.expm1(y)) + y + math.fsum(
            m * math.log1p(x + c * s) for m, x, c in groups)

    def slope(y):  # phi'(y)
        s = math.exp(-y) / n
        return 1 - n * math.expm1(y) - math.fsum(m * c * s / (1 + x + c * s) for m, x, c in groups)

    lo, hi = -math.log(n), math.log1p(1 / n)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    h = math.pi / math.sqrt(20 * (n * math.exp(lo) + 10))
    peak, terms = phi(lo), [1.0]
    for step in (h, -h):
        rel = (phi(lo + k * step) - peak for k in itertools.count(1))
        terms += map(math.exp, itertools.takewhile(lambda v: v > -40, rel))
    return peak + math.log(h * math.fsum(terms))


def _exact_ratio(spec: ModelSpec) -> float:
    """Exact E T^2 / mu^2 for any spec with n >= 2, as one integral:

        E T^2 / mu^2 = (1/n!) int_0^inf prod_i (c_i + o_i t) e^{-t} dt
                     = E prod_i (o_i + c_i/G),  G ~ Gamma(n + 1, 1).

    ``pair_moment`` over mu^2/(n!)^2 is prod_{i in S} d_i prod_{i not in S} o_i
    for agreement set S, d_i = q n/r_i, o_i = (1 - 1/r_i) n/(n - 1), q =
    delta/nu^2; the permutations moving exactly the m rows outside S number
    int_0^inf (t - 1)^m e^{-t} dt, so c_i = d_i - o_i >= 0. Rows of one count
    share the factor log1p(x + c/t), x = o - 1 = (r - n)/(r (n - 1)) one
    correctly rounded quotient. The integral and the Gamma(n + 1) weight
    alone take the same rule; the ratio is their quotient, so no log n! is
    formed, r = n under const:1 gives exactly 1, and past doubles it is inf.

    Relative error (u = 2^-53). Truncation: by log-concavity in t, a tail past
    a node e^{-40} below the peak lies under its tangent's exponential, about
    4e-18. Discretisation: in |Im y| < v < pi/2 the integrand grows at most by
    (cos v)^-(t+1), t at the mode, so the remainder 2 e^{-2 pi v/h} (cos v)^-(t+1)
    is under e^{-37} at every t >= 1. Rounding: one per log1p argument (about
    q/r_i), (q n/r_low) u in all; about sqrt(n) u in n (y - expm1 y) near the
    peak; a few ulps of |log ratio| in the sums' logs. In all, within 2e-16 +
    8 u (q n/r_low + sqrt(n) + |log ratio|): TestQuadratureOracle's bound.
    """
    n, q = spec.n, spec.dist.delta_over_nu2
    groups = [(m, (r - n) / (r * (n - 1)), n / r * ((q - 1) + (n - r) / (n - 1)))
              for r, m in collections.Counter(spec.r).items()]
    return ScaledValue(_log_gamma_sum(n, groups) - _log_gamma_sum(n, [])).to_float()


def _enumeration_invariants(n: int, r: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Exact integer aggregates over the whole constraint class:

    returns (sum over X of per(X), hist) where hist[k] counts
    triples (X, s1, s2) with both permutations compatible with X and
    agreeing on exactly k rows. Everything downstream (any entry law) is a
    weighted sum of these integers.

    The class is the product of per-row r_i-subsets, so the matrices
    compatible with both s1 and s2 number the product over rows of the
    row-i subsets holding columns s1(i) and s2(i): pairs[s1, s2], counted
    row by row on the enumerated subsets. int64 is exact at n <= 6: an
    entry is at most C(6, 3)^6 = 6.4e7 and the sum of all (6!)^2 under 2^63.
    """
    perms = np.array(list(itertools.permutations(range(n))))
    agree = (perms[:, None] == perms[None]).sum(axis=2)
    pairs = np.ones(agree.shape, dtype=np.int64)
    for i, ri in enumerate(r):
        subsets = np.zeros((math.comb(n, ri), n), dtype=np.int64)
        for k, supp in enumerate(itertools.combinations(range(n), ri)):
            subsets[k, list(supp)] = 1
        pairs *= (subsets.T @ subsets)[np.ix_(perms[:, i], perms[:, i])]
    return int(np.trace(pairs)), tuple(int(pairs[agree == k].sum()) for k in range(n + 1))


def constraint_class_size(spec: ModelSpec) -> int:
    """Number of matrices in the constraint class, prod_i C(n, r_i)."""
    size = 1
    for ri in spec.r:
        size *= math.comb(spec.n, ri)
    return size


def exact_moments_enumerate(spec: ModelSpec) -> tuple[float, float]:
    """(E T, E T^2) by exact counting over the constraint class, row by
    row, with the weight average taken analytically through (nu, delta).

    For a fixed 0-1 matrix X the weight expectation of per(Y) is
    nu^n per(X), and of per(Y)^2 is the sum over compatible permutation
    pairs of delta^k nu^{2(n-k)} with k the number of agreeing rows. Both
    reduce to integer aggregates of the class, computed exactly.

    Guarded at n <= 6.
    """
    n = spec.n
    if n > ENUMERATE_MAX_N:
        raise SizeLimitError(f"enumeration oracle limited to n <= {ENUMERATE_MAX_N}, got {n}")
    size = constraint_class_size(spec)
    per_sum, hist = _enumeration_invariants(n, spec.r)
    nu = spec.dist.nu
    q = spec.dist.delta_over_nu2
    mean = nu**n * per_sum / size
    second = (
        math.fsum(hist[k] * q**k for k in range(n + 1)) * nu ** (2 * n) / size
    )
    return mean, second


class ConditionCheck(NamedTuple):
    a_n: float
    c_n: float
    theta: Optional[float]


def condition_check(spec: ModelSpec) -> ConditionCheck:
    """Finite-n diagnostics of the concentration conditions:

        a_n = sqrt(n) * delta / (nu^2 r_low)
        c_n = n * (delta / (nu^2 r_low) - 1/r_up)

    The paper's sufficient condition for concentration of T/mu along a
    spec sequence is that both tend to zero; this reports the finite-n
    values only. c_n is reported signed rather than in absolute value;
    since delta >= nu^2 and r_low <= r_up it is in fact always nonnegative.
    For homogeneous specs with r >= 2, theta is (1 - 1/r) e^{q/(r-1)}, inf past
    the double range, q = delta/nu^2: the per-dimension growth factor of the
    exact ratio alpha e_n(beta - 1) (alpha ~ e (1 - 1/r)^n, beta ~ q n/(r-1),
    for q < r - 1); theta > 1 for fixed r means the ratio grows exponentially in n.
    """
    q = spec.dist.delta_over_nu2
    a_n = math.sqrt(spec.n) * q / spec.r_low
    c_n = spec.n * (q / spec.r_low - 1.0 / spec.r_up)
    theta = None
    if spec.is_homogeneous and spec.r_low >= 2:
        r = spec.r_low
        theta = (1.0 - 1.0 / r) * ScaledValue(q / (r - 1.0)).to_float()
    return ConditionCheck(a_n, c_n, theta)


@dataclass(frozen=True)
class MomentReport:
    """All closed-form quantities for one spec, with unavailable pieces set
    to None and the failed hypothesis recorded when bounds do not apply."""

    mu: ScaledValue
    alpha_beta: Optional[AlphaBeta]
    second_moment_lower: Optional[float]
    second_moment_upper: Optional[float]
    bounds_failure: Optional[str]
    vdw: Optional[ScaledValue]
    a_n: float
    c_n: float
    theta: Optional[float]
    exact_ratio: Optional[float]


def moment_report(spec: ModelSpec) -> MomentReport:
    """Assemble every closed form that applies to the spec.

    alpha/beta need r_low >= 2; the sandwich additionally needs
    r_low >= 6 delta/nu^2; vdw and theta are homogeneous only. The exact
    ratio is reported for every spec with n >= 2, whatever the row counts
    and whether or not the sandwich hypothesis holds.
    """
    mu = mu_n(spec)
    cond = condition_check(spec)
    ab = lower = upper = failure = None
    try:
        ab = alpha_beta(spec)
        lower, upper = second_moment_bounds(spec)
    except DomainError as exc:
        failure = str(exc)
    vdw = vdw_bound(spec.n, spec.r_low) if spec.is_homogeneous else None
    exact_ratio = _exact_ratio(spec) if spec.n >= 2 else None
    return MomentReport(
        mu=mu,
        alpha_beta=ab,
        second_moment_lower=lower,
        second_moment_upper=upper,
        bounds_failure=failure,
        vdw=vdw,
        a_n=cond.a_n,
        c_n=cond.c_n,
        theta=cond.theta,
        exact_ratio=exact_ratio,
    )
