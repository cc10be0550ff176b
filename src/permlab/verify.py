"""Cross-oracle verification: closed forms against exhaustive enumeration at
desk scale. Exercised by the ``verify`` CLI subcommand and the test suite."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .core import DistributionSpec, ModelSpec, ScaledValue
from .moments import (
    brute_second_moment_pairs,
    exact_moments_enumerate,
    moment_report,
    mu_n,
)

__all__ = ["OracleCheck", "VERIFY_SPECS", "cross_check_suite", "REL_TOL"]

REL_TOL = 1e-10

# Small-n menu covering homogeneous and heterogeneous row counts, including
# row counts of 1 (which kill the off-diagonal pair moments).
VERIFY_SPECS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2, (1, 1)),
    (2, (2, 2)),
    (3, (2, 2, 2)),
    (3, (1, 2, 3)),
    (3, (3, 3, 3)),
    (4, (2, 2, 2, 2)),
    (4, (1, 2, 3, 4)),
    (4, (3, 3, 3, 3)),
    (5, (2, 2, 2, 2, 2)),
    (5, (2, 2, 3, 4, 5)),
)

_VERIFY_DISTS = ("const:1", "exp:1")


class OracleCheck(NamedTuple):
    label: str
    formula: float
    oracle: float
    ok: bool


def _rel_ok(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def cross_check_suite(
    mu_fn: Optional[Callable[[ModelSpec], ScaledValue]] = None,
) -> list[OracleCheck]:
    """Run every identity in the menu; ``mu_fn`` is injectable so the test
    suite can confirm that a wrong mean formula is actually caught."""
    mean_formula = mu_fn if mu_fn is not None else mu_n
    checks: list[OracleCheck] = []
    for dist_str in _VERIFY_DISTS:
        dist = DistributionSpec.from_string(dist_str)
        for n, r in VERIFY_SPECS:
            spec = ModelSpec(n, r, dist)
            tag = f"({n},({','.join(map(str, r))}),{dist_str})"
            mean_oracle, second_oracle = exact_moments_enumerate(spec)

            mean_val = mean_formula(spec).to_float()
            checks.append(
                OracleCheck(f"{tag} mean", mean_val, mean_oracle,
                            _rel_ok(mean_val, mean_oracle))
            )

            second_pairs, pair_ratio = brute_second_moment_pairs(spec)
            checks.append(
                OracleCheck(f"{tag} second-moment", second_pairs, second_oracle,
                            _rel_ok(second_pairs, second_oracle))
            )

            # every entry has a ratio, but perfbench's VERIFY_CHECKS pins the count
            if spec.is_homogeneous and spec.r_low >= 2:
                closed = moment_report(spec).exact_ratio
                checks.append(
                    OracleCheck(f"{tag} homogeneous-ratio", closed, pair_ratio,
                                _rel_ok(closed, pair_ratio))
                )
    return checks
