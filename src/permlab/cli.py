"""Command-line front end.

Subcommands: ``per`` (permanent of a matrix file), ``sample`` (one model
realization), ``moments`` (closed forms for a spec), ``mc`` (Monte Carlo
batch to CSV), ``sweep`` (dimension sweep to CSV), ``verify`` (cross-oracle
identity suite).

Exit codes: 0 success, 1 runtime or statistical failure, 2 usage or guard
error. Machine output goes to stdout or the requested file only; the
resolved configuration, including the master seed, is echoed to stderr so
every run can be reproduced.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    DistributionSpec,
    DomainError,
    ModelSpec,
    ParseError,
    PermlabError,
    PrecisionError,
    parse_matrix,
    write_matrix,
)
from .experiments import (
    CSV_HEADER,
    DEFAULT_EPSILON,
    SweepPlan,
    _resolve_workers,
    csv_line,
    estimate_moments,
    concentration_sweep,
    summary_row,
    write_csv,
)
from .model import TrialSeed, sample_constrained_matrix
from .moments import moment_report
from .permanent import per_naive, per_ryser
from .verify import cross_check_suite

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_r_spec(text: str, n: int) -> tuple[int, ...]:
    """A single integer (homogeneous) or a comma list of length n."""
    parts = [tok.strip() for tok in text.split(",")]
    try:
        values = [int(tok) for tok in parts]
    except ValueError as exc:
        raise ParseError(f"bad r spec {text!r}") from exc
    if len(values) == 1:
        return (values[0],) * n
    if len(values) != n:
        raise ParseError(f"r spec has {len(values)} entries, expected {n}")
    return tuple(values)


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            out[key.strip()] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, converters: dict[str, object]) -> None:
    """Fill argparse values that were left at None from the config file.

    Flags win over the file; anything still None afterwards falls back to
    the per-command default below. A key the command does not take is an
    error.
    """
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    unknown = [key for key in cfg if key not in converters]
    if unknown:
        raise ParseError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    for key, conv in converters.items():
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, conv(cfg[key]))


def _apply_defaults(args: argparse.Namespace, defaults: dict[str, object]) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _require(args: argparse.Namespace, *keys: str) -> None:
    """Flags that may come from the config file; fail if still unset."""
    for key in keys:
        if getattr(args, key, None) is None:
            raise ParseError(f"missing required option --{key.replace('_', '-')}")


def _echo_config(cmd: str, args: argparse.Namespace, keys: list[str]) -> None:
    parts = [f"cmd={cmd}"] + [f"{k}={getattr(args, k)}" for k in keys]
    print("# " + " ".join(parts), file=sys.stderr)


def _build_spec(args: argparse.Namespace) -> ModelSpec:
    dist = DistributionSpec.from_string(args.dist)
    r = _parse_r_spec(args.r, args.n)
    return ModelSpec(args.n, r, dist)


# -- subcommand handlers ----------------------------------------------------


def cmd_per(args: argparse.Namespace) -> int:
    _merge_config(args, {"input": str, "algorithm": str})
    _apply_defaults(args, {"algorithm": "ryser"})
    _require(args, "input")
    _echo_config("per", args, ["input", "algorithm"])
    with open(args.input) as fh:
        m = parse_matrix(fh.read())
    value = per_naive(m) if args.algorithm == "naive" else per_ryser(m)
    if value.is_zero:
        print("per = 0  log_per = -inf")
    else:
        # log_per is the log magnitude; the decimal carries the sign
        print(f"per = {_fmt(value.to_float())}  log_per = {_fmt(value.log_mag)}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    conv = {"n": int, "r": str, "dist": str, "seed": int, "trial": int, "matrix": str}
    _merge_config(args, conv)
    _apply_defaults(args, {"seed": 0, "trial": 0, "matrix": "y", "dist": "const:1"})
    _require(args, "n", "r")
    spec = _build_spec(args)
    _echo_config("sample", args, ["n", "r", "dist", "seed", "trial", "matrix"])
    x, y = sample_constrained_matrix(spec, TrialSeed(args.seed, args.trial))
    text = write_matrix(x if args.matrix == "x" else y)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    _merge_config(args, {"n": int, "r": str, "dist": str})
    _apply_defaults(args, {"dist": "const:1"})
    _require(args, "n", "r")
    spec = _build_spec(args)
    _echo_config("moments", args, ["n", "r", "dist"])
    rep = moment_report(spec)
    lines = [
        f"n = {spec.n}",
        f"r_low = {spec.r_low}",
        f"r_up = {spec.r_up}",
        f"dist = {spec.dist.spec_string()}",
        f"nu = {_fmt(spec.dist.nu)}",
        f"delta = {_fmt(spec.dist.delta)}",
        f"mu_log = {_fmt(rep.mu.log_mag)}",
        f"mu = {_fmt(rep.mu.to_float())}",
    ]
    if rep.vdw is not None:
        lines.append(f"vdw_log = {_fmt(rep.vdw.log_mag)}")
        lines.append(f"vdw = {_fmt(rep.vdw.to_float())}")
    if rep.alpha_up is not None:
        lines.append(f"alpha_up = {_fmt(rep.alpha_up)}")
        lines.append(f"beta_up = {_fmt(rep.beta_up)}")
        lines.append(f"alpha_low = {_fmt(rep.alpha_low)}")
        lines.append(f"beta_low = {_fmt(rep.beta_low)}")
    if rep.second_moment_lower is not None:
        lines.append(f"bound_low = {_fmt(rep.second_moment_lower)}")
        lines.append(f"bound_up = {_fmt(rep.second_moment_upper)}")
    if rep.bounds_failure is not None:
        lines.append(f"bounds = unavailable ({rep.bounds_failure})")
    if rep.exact_ratio is not None:
        lines.append(f"exact_ratio = {_fmt(rep.exact_ratio)}")
    lines.append(f"a_n = {_fmt(rep.a_n)}")
    lines.append(f"c_n = {_fmt(rep.c_n)}")
    if rep.theta is not None:
        lines.append(f"theta = {_fmt(rep.theta)}")
    print("\n".join(lines))
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    conv = {
        "n": int, "r": str, "dist": str, "trials": int, "seed": int,
        "epsilon": float, "workers": int, "out": str,
    }
    _merge_config(args, conv)
    _apply_defaults(
        args, {"seed": 0, "trials": 1000, "epsilon": DEFAULT_EPSILON, "dist": "const:1"}
    )
    _require(args, "n", "r")
    args.workers = _resolve_workers(args.workers)
    spec = _build_spec(args)
    _echo_config("mc", args, ["n", "r", "dist", "trials", "seed", "epsilon", "workers", "out"])
    batch = estimate_moments(
        spec, args.trials, args.seed, workers=args.workers, epsilon=args.epsilon
    )
    _write_rows([summary_row(batch)], args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    conv = {
        "n": str, "r_rule": str, "dist": str, "trials": int, "seed": int,
        "epsilon": float, "workers": int, "out": str,
    }
    _merge_config(args, conv)
    _apply_defaults(
        args, {"seed": 0, "trials": 400, "epsilon": DEFAULT_EPSILON, "dist": "const:1"}
    )
    _require(args, "n", "r_rule")
    args.workers = _resolve_workers(args.workers)
    try:
        ns = tuple(int(tok) for tok in args.n.split(","))
    except ValueError as exc:
        raise ParseError(f"bad n list {args.n!r}") from exc
    plan = SweepPlan(
        ns=ns,
        r_rule=args.r_rule,
        dist=DistributionSpec.from_string(args.dist),
        trials=args.trials,
        master_seed=args.seed,
        epsilon=args.epsilon,
    )
    _echo_config(
        "sweep", args, ["n", "r_rule", "dist", "trials", "seed", "epsilon", "workers", "out"]
    )
    rows = concentration_sweep(plan, workers=args.workers)
    _write_rows(rows, args.out)
    return 0


def _write_rows(rows, out: str | None) -> None:
    if out:
        write_csv(rows, out)
    else:
        print(CSV_HEADER)
        for row in rows:
            print(csv_line(row))


def cmd_verify(args: argparse.Namespace) -> int:
    _echo_config("verify", args, [])
    checks = cross_check_suite()
    failures = 0
    for chk in checks:
        mark = "ok" if chk.ok else "MISMATCH"
        print(f"{chk.label}: formula={_fmt(chk.formula)} oracle={_fmt(chk.oracle)} {mark}")
        if not chk.ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Permanents of row-constrained random matrices: exact "
        "kernels, closed-form moments, and seeded concentration experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("per", help="permanent of a matrix file")
    p.add_argument("--input", default=None, help="matrix text file")
    p.add_argument("--algorithm", choices=["naive", "ryser"], default=None,
                   help="kernel to use (default ryser, the fast Glynn kernel)")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=cmd_per)

    p = sub.add_parser("sample", help="sample one (X, Y) realization")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", default=None, help="row count, or comma list of length n")
    p.add_argument("--dist", default=None, help="const:c | uniform:a,b | exp:lam | lognormal:m,s")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--trial", type=int, default=None, help="trial index (default 0)")
    p.add_argument("--matrix", choices=["x", "y"], default=None,
                   help="which matrix to print (default y)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", help="closed-form moment report for a spec")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mc", help="Monte Carlo batch, one CSV row")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="trial parallelism (default $PERMLAB_WORKERS or 1)")
    p.add_argument("--out", default=None, help="CSV file (default stdout)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="dimension sweep, one CSV row per n")
    p.add_argument("--n", default=None, help="comma list of dimensions")
    p.add_argument("--r-rule", dest="r_rule", default=None,
                   help="const:k | sqrt-log | power:p | fixed:a,b,...")
    p.add_argument("--dist", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-oracle identity suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PermlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
