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
import math
import sys

from .core import (
    DistributionSpec,
    ModelSpec,
    ParseError,
    PermlabError,
    PrecisionError,
    SizeLimitError,
    parse_matrix,
    write_matrix,
)
from .experiments import (
    DEFAULT_EPSILON,
    SweepPlan,
    _resolve_workers,
    csv_text,
    estimate_moments,
    concentration_sweep,
    summary_row,
)
from .model import TrialSeed, sample_constrained_matrix
from .moments import moment_report
from .permanent import RYSER_MAX_N, per_naive, per_ryser
from .verify import cross_check_suite

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_from_log(log_mag: float) -> str:
    """The decimal of exp(log_mag) as mantissa and power of ten, to the
    significant digits its log supports: an absolute error in the log is
    that relative error in the value, and a computed log carries a few
    ulps (its own rounding, the kernel's and the row scales' logs). At most
    17 digits, all a double holds, however small the log."""
    digits = min(17, int(-math.log10(4 * math.ulp(log_mag))))
    x = log_mag / math.log(10)
    exp10 = math.floor(x)
    # rounding may carry the mantissa to 10, which the e-format absorbs
    mant, _, carry = f"{10 ** (x - exp10):.{digits - 1}e}".partition("e")
    return f"{mant.rstrip('0').rstrip('.')}e{exp10 + int(carry):+03d}"


def _parse_r_spec(text: str, n: int) -> tuple[int, ...]:
    """A single integer (homogeneous) or a comma list (ModelSpec checks its length)."""
    parts = [tok.strip() for tok in text.split(",")]
    try:
        values = [int(tok) for tok in parts]
    except ValueError as exc:
        raise ParseError(f"bad r spec {text!r}") from exc
    if len(values) == 1:
        return (values[0],) * n
    return tuple(values)


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored. Keys come
    back in flag form (``_`` written as ``-``), and one given twice is an error."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            flag = key.strip().replace("_", "-")
            if flag in lines:
                raise ParseError(f"{path}: key {flag!r} is set on lines {lines[flag]} and {lineno}")
            out[flag], lines[flag] = value.strip(), lineno
    return out


def _config_argv(argv: list[str]) -> list[str]:
    """argv with the ``--config`` file's pairs inserted as flags.

    Each ``key=value`` pair becomes one ``--key=value`` token (``_`` written
    as ``-``), placed right after the subcommand so that explicit flags,
    later in argv, win. The parser then converts, checks and rejects the
    file's values exactly as it does flags.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return argv  # the full parser reports the malformed --config
    if path is None:
        return argv
    tokens = []
    for flag, value in _load_config(path).items():
        if flag == "config":
            raise ParseError(f"{path}: a config file cannot name another config file")
        tokens.append(f"--{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _echo_config(args: argparse.Namespace) -> None:
    """Echo every resolved option to stderr."""
    parts = [f"cmd={args.command}"] + [
        f"{k}={v}" for k, v in vars(args).items() if k not in ("func", "command", "config")
    ]
    print("# " + " ".join(parts), file=sys.stderr)


# Each model command's n limit, checked before --r becomes n row counts:
# mc's is the Glynn kernel's; sample builds n x n matrices and moments O(n)
# closed forms (README's size guards give their cost at the limit).
_MAX_N = {"mc": ("Glynn kernel", RYSER_MAX_N), "sample": ("sample", 1000),
          "moments": ("moments", 10**6)}


def _build_spec(args: argparse.Namespace) -> ModelSpec:
    what, max_n = _MAX_N[args.command]
    if args.n > max_n:
        raise SizeLimitError(f"{what} limited to n <= {max_n}, got {args.n}")
    dist = DistributionSpec.from_string(args.dist)
    r = _parse_r_spec(args.r, args.n)
    return ModelSpec(args.n, r, dist)


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to the ``--out`` file, or to stdout without one."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers ----------------------------------------------------


def cmd_per(args: argparse.Namespace) -> int:
    _echo_config(args)
    with open(args.input) as fh:
        m = parse_matrix(fh.read())
    value = per_naive(m) if args.algorithm == "naive" else per_ryser(m)
    if value.is_zero:
        print("per = 0  log_per = -inf")
        return 0
    print(f"per = {_fmt_from_log(value.log_mag)}  log_per = {_fmt(value.log_mag)}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    _echo_config(args)
    x, y = sample_constrained_matrix(spec, TrialSeed(args.seed, args.trial))
    _emit(write_matrix(x if args.matrix == "x" else y), args.out)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    _echo_config(args)
    rep = moment_report(spec)
    lines = [
        f"n = {spec.n}",
        f"r_low = {spec.r_low}",
        f"r_up = {spec.r_up}",
        f"dist = {spec.dist.spec_string()}",
        f"nu = {_fmt(spec.dist.nu)}",
        f"delta = {_fmt(spec.dist.delta)}",
        f"mu_log = {_fmt(rep.mu.log_mag)}",
        f"mu = {_fmt_from_log(rep.mu.log_mag)}",
    ]
    if rep.vdw is not None:
        lines.append(f"vdw_log = {_fmt(rep.vdw.log_mag)}")
        lines.append(f"vdw = {_fmt_from_log(rep.vdw.log_mag)}")
    if rep.alpha_beta is not None:
        ab = rep.alpha_beta
        lines.append(f"alpha_up = {_fmt_from_log(ab.alpha_up.log_mag)}")
        lines.append(f"beta_up = {_fmt(ab.beta_up)}")
        lines.append(f"alpha_low = {_fmt_from_log(ab.alpha_low.log_mag)}")
        lines.append(f"beta_low = {_fmt(ab.beta_low)}")
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
    args.workers = _resolve_workers(args.workers)
    spec = _build_spec(args)
    _echo_config(args)
    batch = estimate_moments(
        spec, args.trials, args.seed, workers=args.workers, epsilon=args.epsilon
    )
    _emit(csv_text([summary_row(batch)]), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
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
    _echo_config(args)
    _emit(csv_text(concentration_sweep(plan, workers=args.workers)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _echo_config(args)
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
    """The one declaration of every option: type, default, choices, required."""

    def shared() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, allow_abbrev=False)

    config = shared()
    config.add_argument("--config", help="flat key=value file of flag values; flags win")
    model = shared()
    model.add_argument("--n", type=int, required=True)
    model.add_argument("--r", required=True, help="row count, or comma list of length n")
    dist = shared()
    dist.add_argument("--dist", default="const:1",
                      help="const:c | uniform:a,b | exp:lam | lognormal:m,s (default %(default)s)")
    seeded = shared()
    seeded.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    seeded.add_argument("--out", help="output file (default stdout)")
    run = shared()
    run.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     help="deviation threshold of p_dev (default %(default)s)")
    run.add_argument("--workers", type=int,
                     help="trial parallelism (default $PERMLAB_WORKERS or 1)")

    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Permanents of row-constrained random matrices: exact "
        "kernels, closed-form moments, and seeded concentration experiments.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, parents=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=list(parents), allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("per", cmd_per, "permanent of a matrix file", [config])
    p.add_argument("--input", required=True, help="matrix text file")
    p.add_argument("--algorithm", choices=["naive", "ryser"], default="ryser",
                   help="kernel to use (default %(default)s, the fast Glynn kernel)")

    p = command("sample", cmd_sample, "sample one (X, Y) realization",
                [config, model, dist, seeded])
    p.add_argument("--trial", type=int, default=0, help="trial index (default %(default)s)")
    p.add_argument("--matrix", choices=["x", "y"], default="y",
                   help="which matrix to print (default %(default)s)")

    command("moments", cmd_moments, "closed-form moment report for a spec", [config, model, dist])

    p = command("mc", cmd_mc, "Monte Carlo batch, one CSV row", [config, model, dist, seeded, run])
    p.add_argument("--trials", type=int, default=1000, help="trial count (default %(default)s)")

    p = command("sweep", cmd_sweep, "dimension sweep, one CSV row per n",
                [config, dist, seeded, run])
    p.add_argument("--n", required=True, help="comma list of dimensions")
    p.add_argument("--r-rule", required=True, help="const:k | sqrt-log | power:p | fixed:a,b,...")
    p.add_argument("--trials", type=int, default=400, help="trials per row (default %(default)s)")

    command("verify", cmd_verify, "run the cross-oracle identity suite")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_config_argv(argv))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PermlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
