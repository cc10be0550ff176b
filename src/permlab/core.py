"""Shared domain types: weight-entry distributions, model specification,
dense matrices with text I/O, and a log-space scalar for nonnegative
values that overflow plain floats."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PermlabError",
    "ParseError",
    "ShapeError",
    "SizeLimitError",
    "DomainError",
    "PrecisionError",
    "ScaledValue",
    "DistributionSpec",
    "ModelSpec",
    "DenseMatrix",
    "parse_matrix",
    "write_matrix",
]


class PermlabError(Exception):
    """Base class for errors raised by this package."""


class ParseError(PermlabError, ValueError):
    """Malformed text input (matrix files, distribution strings, config)."""


class ShapeError(PermlabError, ValueError):
    """Input has inconsistent or non-square dimensions."""


class SizeLimitError(PermlabError, ValueError):
    """Problem size exceeds an algorithm's hard guard."""


class DomainError(PermlabError, ValueError):
    """A formula's hypothesis is not satisfied by the given parameters."""


class PrecisionError(PermlabError, ArithmeticError):
    """A computed value is not resolved by its own rounding-error bound."""


@dataclass(frozen=True)
class ScaledValue:
    """Nonnegative scalar stored as the natural log of its value.

    ``log_mag = -inf`` is exactly zero, the mark the permanent kernel
    returns; the log stays finite far outside the double range, where
    the value itself overflows or underflows.
    """

    log_mag: float

    def __post_init__(self) -> None:
        if not self.log_mag < math.inf:  # NaN and +inf
            raise ValueError(f"log_mag must be finite or -inf, got {self.log_mag}")

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    @staticmethod
    def from_float(x: float) -> "ScaledValue":
        x = float(x)
        if not 0 <= x < math.inf:
            raise ValueError(f"cannot represent {x}: need a finite value >= 0")
        return ScaledValue(math.log(x) if x else -math.inf)

    def to_float(self) -> float:
        """Decimal value; overflows to inf outside float range."""
        try:
            return math.exp(self.log_mag)
        except OverflowError:
            return math.inf


_Params = tuple[float, ...]


class _Family(NamedTuple):
    """One entry-law family: its CLI tag and arity, its parameter rule and
    the message naming it, its closed forms, and the fixed in-place draw of W."""

    tag: str
    arity: int
    valid: Callable[[_Params], bool]
    rule: str
    nu: Callable[[_Params], float]
    delta: Callable[[_Params], float]
    delta_over_nu2: Callable[[_Params], float]
    scale: Callable[[_Params], float]
    standard_mean: Callable[[_Params], float]
    draw: Callable[[_Params, np.random.Generator, np.ndarray], np.ndarray]


def _uniform_nu(p: _Params) -> float:
    return (p[0] + p[1]) / 2.0


def _uniform_delta(p: _Params) -> float:
    return (p[0] ** 2 + p[0] * p[1] + p[1] ** 2) / 3.0


# delta_over_nu2 is a closed form per family, so that pure rescalings
# (constant c, exponential rate, lognormal location) give bit-identical
# values. Lognormal nu stays exp(m + s^2/2), not scale * standard_mean,
# which differs in the last bit.
_FAMILIES: dict[str, _Family] = {
    "constant": _Family(
        "const", 1, lambda p: p[0] > 0, "constant distribution requires c > 0",
        nu=lambda p: p[0], delta=lambda p: p[0] ** 2, delta_over_nu2=lambda p: 1.0,
        scale=lambda p: p[0], standard_mean=lambda p: 1.0,
        draw=lambda p, rng, out: out.fill(1.0) or out,
    ),
    "uniform": _Family(
        "uniform", 2, lambda p: 0 < p[0] < p[1], "uniform distribution requires 0 < a < b",
        nu=_uniform_nu, delta=_uniform_delta,
        delta_over_nu2=lambda p: _uniform_delta(p) / _uniform_nu(p) ** 2,
        scale=lambda p: 1.0, standard_mean=_uniform_nu,
        draw=lambda p, rng, out: np.add(np.multiply(rng.random(out=out), p[1] - p[0], out=out),
                                        p[0], out=out),
    ),
    "exponential": _Family(
        "exp", 1, lambda p: p[0] > 0, "exponential distribution requires rate > 0",
        nu=lambda p: 1.0 / p[0], delta=lambda p: 2.0 / p[0] ** 2, delta_over_nu2=lambda p: 2.0,
        scale=lambda p: 1.0 / p[0], standard_mean=lambda p: 1.0,
        draw=lambda p, rng, out: rng.standard_exponential(out=out, method="inv"),
    ),
    "lognormal": _Family(
        "lognormal", 2, lambda p: p[1] > 0, "lognormal distribution requires scale s > 0",
        nu=lambda p: math.exp(p[0] + p[1] ** 2 / 2.0),
        delta=lambda p: math.exp(2.0 * p[0] + 2.0 * p[1] ** 2),
        delta_over_nu2=lambda p: math.exp(p[1] ** 2),
        scale=lambda p: math.exp(p[0]), standard_mean=lambda p: math.exp(p[1] ** 2 / 2.0),
        draw=lambda p, rng, out: np.copyto(out, rng.lognormal(0.0, p[1], out.shape)) or out,
    ),
}
_TAG_TO_KIND = {fam.tag: kind for kind, fam in _FAMILIES.items()}


@dataclass(frozen=True)
class DistributionSpec:
    """Law of a single weight entry Z.

    Restricted to four families that are positive almost surely and have
    closed-form mean ``nu = E Z`` and second moment ``delta = E Z^2``:

        constant c        (c > 0)      nu = c            delta = c^2
        uniform a,b       (0 < a < b)  nu = (a+b)/2      delta = (a^2+ab+b^2)/3
        exponential lam   (lam > 0)    nu = 1/lam        delta = 2/lam^2
        lognormal m,s     (s > 0)      nu = e^{m+s^2/2}  delta = e^{2m+2s^2}

    ``nu``, ``delta`` and ``delta / nu^2`` must each be a finite positive
    double; parameters whose moments overflow or underflow are rejected.

    Sampling is factored as ``Z = scale * W`` where the law of W does not
    depend on the family's scale parameter (constant: W = 1 with scale c;
    exponential: W ~ Exp(1) by inverse CDF with scale 1/lam; lognormal: W =
    libm's exp(s*N(0,1)) with scale e^m; uniform: scale 1, W the a..b draw
    itself). Trial ratios are computed from W alone, so they are
    bit-identical across pure rescalings of the entry law.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        fam = _FAMILIES.get(self.kind)
        if fam is None:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        p = self.params
        if len(p) != fam.arity or not fam.valid(p):
            raise ValueError(fam.rule)
        for v in p:
            if not math.isfinite(v):
                raise ValueError(f"non-finite distribution parameter {v}")
        for name in ("nu", "delta", "delta_over_nu2"):
            try:
                value = getattr(fam, name)(p)
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{self.spec_string()}: {name} = {value:g} is outside the "
                    "double range (must be finite and > 0)"
                )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "DistributionSpec":
        return DistributionSpec("constant", (c,))

    @staticmethod
    def uniform(a: float, b: float) -> "DistributionSpec":
        return DistributionSpec("uniform", (a, b))

    @staticmethod
    def exponential(rate: float) -> "DistributionSpec":
        return DistributionSpec("exponential", (rate,))

    @staticmethod
    def lognormal(m: float, s: float) -> "DistributionSpec":
        return DistributionSpec("lognormal", (m, s))

    @staticmethod
    def from_string(text: str) -> "DistributionSpec":
        """Parse ``const:c``, ``uniform:a,b``, ``exp:lambda``, ``lognormal:m,s``."""
        head, sep, tail = text.strip().partition(":")
        kind = _TAG_TO_KIND.get(head.strip())
        if not sep or kind is None:
            raise ParseError(f"bad distribution string {text!r}")
        try:
            params = tuple(float(tok) for tok in tail.split(","))
        except ValueError as exc:
            raise ParseError(f"bad distribution parameters in {text!r}") from exc
        try:
            return DistributionSpec(kind, params)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def spec_string(self) -> str:
        """Canonical ``kind:params`` form, inverse of ``from_string``."""
        params = ",".join(f"{p:.17g}" for p in self.params)
        return f"{_FAMILIES[self.kind].tag}:{params}"

    # -- moments -----------------------------------------------------------

    @property
    def nu(self) -> float:
        """Mean of a single entry."""
        return _FAMILIES[self.kind].nu(self.params)

    @property
    def delta(self) -> float:
        """Second moment of a single entry."""
        return _FAMILIES[self.kind].delta(self.params)

    @property
    def delta_over_nu2(self) -> float:
        """delta / nu^2, the shape factor entering all second-moment formulas."""
        return _FAMILIES[self.kind].delta_over_nu2(self.params)

    # -- scale/standard factorization ---------------------------------------

    @property
    def scale(self) -> float:
        """Scale factor in the Z = scale * W factorization."""
        return _FAMILIES[self.kind].scale(self.params)

    @property
    def standard_mean(self) -> float:
        """Mean of W, i.e. nu / scale in exact closed form."""
        return _FAMILIES[self.kind].standard_mean(self.params)

    def sample_standard(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        """Draw W with the documented, fixed method per family.

        constant: ones, no generator consumption. uniform: a + (b-a)*U with
        U from ``rng.random``. exponential: ``standard_exponential`` with
        ``method='inv'`` (inverse CDF). lognormal: ``rng.lognormal(0, s)``,
        libm's exp, not ``np.exp``, whose bits vary with SIMD dispatch.
        Trial sampling makes the same draw in place into its stack.
        """
        return _FAMILIES[self.kind].draw(self.params, rng, np.empty(shape))


@dataclass(frozen=True)
class ModelSpec:
    """Dimension n, per-row nonzero counts r_1..r_n, and the entry law.

    Row i of the sampled 0-1 matrix carries exactly ``r[i]`` ones at
    uniformly random positions; rows are independent.
    """

    n: int
    r: tuple[int, ...]
    dist: DistributionSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.r) != self.n:
            raise ValueError(f"need {self.n} row counts, got {len(self.r)}")
        for v in self.r:
            if not 1 <= v <= self.n:
                raise ValueError(f"row count {v} outside 1..{self.n}")

    @staticmethod
    def homogeneous(n: int, r: int, dist: DistributionSpec) -> "ModelSpec":
        return ModelSpec(n, (r,) * n, dist)

    # Computed once per instance; equality and hashing stay on the fields.
    @functools.cached_property
    def r_low(self) -> int:
        return min(self.r)

    @functools.cached_property
    def r_up(self) -> int:
        return max(self.r)

    @functools.cached_property
    def is_homogeneous(self) -> bool:
        return self.r_low == self.r_up


class DenseMatrix:
    """Immutable n x n matrix of finite nonnegative reals."""

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ShapeError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if np.any(a < 0):
            raise ValueError("matrix entries must be nonnegative")
        a.setflags(write=False)
        self._a = a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only float array view."""
        return self._a

    def __repr__(self) -> str:
        return f"DenseMatrix(n={self.n})"


def parse_matrix(text: str) -> DenseMatrix:
    """Parse whitespace-separated decimal rows, one matrix row per line.

    Raises ShapeError for ragged or non-square input and ParseError for
    negative or non-numeric tokens.
    """
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for tok in line.split():
            try:
                v = float(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad token {tok!r}") from exc
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}: non-finite entry {tok!r}")
            if v < 0:
                raise ParseError(f"line {lineno}: negative entry {tok!r}")
            row.append(v)
        rows.append(row)
    if not rows:
        raise ShapeError("empty matrix text")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ShapeError(f"ragged input: row {i} has {len(row)} entries, expected {width}")
    if width != len(rows):
        raise ShapeError(f"non-square input: {len(rows)} rows of length {width}")
    return DenseMatrix(rows)


def write_matrix(m: DenseMatrix) -> str:
    """Text form of a matrix, 17 significant digits, round-trips exactly."""
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in m.entries) + "\n"
