"""Closed-form moments of the scaled permanent under the row-constrained
model, together with the exact small-n oracles that validate them.

Notation used throughout: nu and delta are the mean and second moment of a
single weight entry, r_low/r_up the extreme row counts, and the "ratio"
always means E T^2 / mu^2 where T is the permanent of the sampled matrix
and mu its expectation.
"""

from __future__ import annotations

import functools
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
    "ENUMERATION_MAX_CLASS",
]

PAIRS_MAX_N = 7
ENUMERATE_MAX_N = 6
ENUMERATION_MAX_CLASS = 10**7


def mu_n(spec: ModelSpec) -> ScaledValue:
    """Expected permanent: prod_i r_i * nu^n * n! / n^n, in log space."""
    n = spec.n
    log_mu = math.fsum(
        [math.fsum(math.log(ri) for ri in spec.r),
         n * math.log(spec.dist.nu),
         math.lgamma(n + 1),
         -n * math.log(n)]
    )
    return ScaledValue(log_mu)


def vdw_bound(n: int, r: int) -> ScaledValue:
    """r^n * n! / n^n: the permanent lower bound for 0-1 matrices with r
    ones in every row and column. Equals mu_n for the homogeneous 0-1 spec.

    The sampled model constrains rows only, so this is a reference line,
    not a guaranteed bound for sampled matrices.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    return ScaledValue(n * math.log(r) + math.lgamma(n + 1) - n * math.log(n))


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


def _log_factorials(n: int) -> np.ndarray:
    """log k!, k = 0..n: a running sum of log k with each addition's rounding
    error recovered exactly (TwoSum) and added back. Within 0.65 ulp for
    k <= 3000, where math.lgamma is off by up to 3.2 ulp (2 ulp at log 3!)."""
    logs = np.log(np.arange(1.0, n + 1))
    total = np.cumsum(logs)
    prev = np.concatenate(([0.0], total[:-1]))
    part = total - prev
    lost = (prev - (total - part)) + (logs - part)
    return np.concatenate(([0.0], total + np.cumsum(lost)))


def _exact_ratio(spec: ModelSpec) -> float:
    """Exact E T^2 / mu^2 = sum_{k=0}^{n} b_{n-k} / k! * g_k for any spec, n >= 2.

    ``pair_moment`` over mu^2/(n!)^2 is prod_{i in S} d_i prod_{i not in S} o_i
    for agreement set S, d_i = (delta/nu^2) n/r_i, o_i = (1 - 1/r_i) n/(n-1).
    (n-k)! b_{n-k} permutations fix exactly a given k-set, so g_k is that
    product's mean over k-subsets; for equal rows g_k = d^k o^{n-k}, giving the
    paper's alpha sum beta^k/k! b_{n-k} (alpha = o^n, beta = d/o).

    g is built in log space per distinct row count: m equal rows need no sum,
    and groups of sizes a, b merge with weights C(a,i) C(b,j) / C(a+b,i+j).
    No term is negative, so nothing cancels; past the double range the ratio
    is inf. b_j = sum_{l<=j} (-1)^l/l! are float partial sums, good to a few
    ulps since b_0 = 1, b_1 = 0 and b_j is in [1/3, 1/2] for j >= 2.

    Error: the largest terms, k near q n/r, dominate. Their exponents carry
    (n - k) log o's error, the one rounding of log1p's argument times n/r,
    about (n/r) u (u = 2^-53), and a few ulps of numbers the size of log k!
    (its own 0.65 ulp, k log d's rounding, their sum's). Along r = isqrt(n),
    const:1, measured 2.4e-14 at n = 10^5, 2.6e-13 at 5.2e5, 2.0e-13 at 10^6.
    """
    n = spec.n
    log_fact = _log_factorials(n)

    def log_binom(m, j):
        return log_fact[m] - log_fact[j] - log_fact[m - j]

    log_g = None
    for ri, m in zip(*np.unique(spec.r, return_counts=True)):
        j = np.arange(m + 1)
        # r_i = 1 gives o_i = 0: only j = m, all rows agreeing, survives
        log_o_pow = (m - j) * _log_o(n, int(ri)) if ri > 1 else np.where(j == m, 0.0, -np.inf)
        group = j * math.log(spec.dist.delta_over_nu2 * n / ri) + log_o_pow
        if log_g is None:
            log_g = group
            continue
        a = len(log_g) - 1
        merged = np.full(a + m + 1, -np.inf)
        weighted = log_g + log_binom(a, np.arange(a + 1))
        for i, term in enumerate(group + log_binom(m, j)):
            merged[i:i + a + 1] = np.logaddexp(merged[i:i + a + 1], weighted + term)
        log_g = merged - log_binom(a + m, np.arange(a + m + 1))
    b = np.cumsum(np.concatenate(([1.0], np.cumprod(-1.0 / np.arange(1, n + 1)))))
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(log_g - log_fact + np.log(b[::-1])).sum())


@functools.cache
def _enumeration_invariants(n: int, r: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Exact integer aggregates over the whole constraint class:

    returns (sum over X of per(X), hist) where hist[k] counts
    triples (X, s1, s2) with both permutations compatible with X and
    agreeing on exactly k rows. Everything downstream (any entry law) is a
    weighted sum of these integers.

    Each permutation is one bit in a mask; a depth-first walk over per-row
    support choices ANDs row masks, so the compatible-permutation set is
    known exactly at each leaf.
    """
    perms = list(itertools.permutations(range(n)))
    nf = len(perms)
    table = np.array(perms)
    agree_np = (table[:, None] == table[None]).sum(axis=2)
    agree_rows = agree_np.tolist()

    row_masks: list[list[int]] = []
    for i in range(n):
        masks = []
        for supp in itertools.combinations(range(n), r[i]):
            s = set(supp)
            mask = 0
            for bit, p in enumerate(perms):
                if p[i] in s:
                    mask |= 1 << bit
            masks.append(mask)
        row_masks.append(masks)

    per_sum = 0
    hist = [0] * (n + 1)
    full = (1 << nf) - 1

    # Iterative DFS over rows; prefixes with empty masks still count as
    # per(X) = 0 for every completion, contributing nothing.
    stack = [(0, full)]
    while stack:
        depth, mask = stack.pop()
        if depth == n:
            c = mask.bit_count()
            per_sum += c
            idx = []
            m = mask
            while m:
                low = m & -m
                idx.append(low.bit_length() - 1)
                m ^= low
            if c > 16:
                sub = agree_np[np.ix_(idx, idx)]
                counts = np.bincount(sub.ravel(), minlength=n + 1)
                for k in range(n + 1):
                    hist[k] += int(counts[k])
            else:
                for a in idx:
                    row = agree_rows[a]
                    for b in idx:
                        hist[row[b]] += 1
            continue
        for m in row_masks[depth]:
            nm = mask & m
            if nm:
                stack.append((depth + 1, nm))
    return per_sum, tuple(hist)


def constraint_class_size(spec: ModelSpec) -> int:
    """Number of matrices in the constraint class, prod_i C(n, r_i)."""
    size = 1
    for ri in spec.r:
        size *= math.comb(spec.n, ri)
    return size


def exact_moments_enumerate(spec: ModelSpec) -> tuple[float, float]:
    """(E T, E T^2) by full enumeration of the constraint class, with the
    weight average taken analytically through (nu, delta).

    For a fixed 0-1 matrix X the weight expectation of per(Y) is
    nu^n per(X), and of per(Y)^2 is the sum over compatible permutation
    pairs of delta^k nu^{2(n-k)} with k the number of agreeing rows. Both
    reduce to integer aggregates of the class, computed exactly.

    Guarded at n <= 6 and class size <= the enumeration limit.
    """
    n = spec.n
    if n > ENUMERATE_MAX_N:
        raise SizeLimitError(f"enumeration oracle limited to n <= {ENUMERATE_MAX_N}, got {n}")
    size = constraint_class_size(spec)
    if size > ENUMERATION_MAX_CLASS:
        raise SizeLimitError(
            f"constraint class has {size} matrices, over the "
            f"{ENUMERATION_MAX_CLASS} enumeration guard"
        )
    per_sum, hist = _enumeration_invariants(n, tuple(sorted(spec.r)))
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
    For homogeneous specs with r >= 2, theta is (1 - 1/r) e^{q/(r-1)},
    q = delta/nu^2, the per-dimension growth factor of the exact ratio
    alpha e_n(beta - 1) (alpha ~ e (1 - 1/r)^n, beta ~ q n/(r-1), for q < r - 1);
    theta > 1 for fixed r means the ratio grows exponentially in n.
    """
    q = spec.dist.delta_over_nu2
    a_n = math.sqrt(spec.n) * q / spec.r_low
    c_n = spec.n * (q / spec.r_low - 1.0 / spec.r_up)
    theta = None
    if spec.is_homogeneous and spec.r_low >= 2:
        r = spec.r_low
        theta = (1.0 - 1.0 / r) * math.exp(q / (r - 1.0))
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
