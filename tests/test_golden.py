"""Output bytes pinned across versions, and the top-level names the
benchmark harness imports.

The other tests compare the program with itself: a batch with single
trials, one worker count with another. These pin what it printed when the
pins were recorded, so a change to seeding, sampling, the kernel or the CSV
format that keeps every self-comparison shows up here. A deliberate numeric
break updates the pins and is documented in the README's reproducibility
contract and in CHANGES.md.

Outputs that pass through BLAS products (the Glynn pass's low-block and
base sums, the jackknife's dot) sum in the order of the OpenBLAS kernel the
CPU selects, so those pins are kept per kernel family. A family with no
recorded pin fails, naming itself: record its pins from a known-good build.
"""

import ast
import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

import permlab
from permlab.cli import main
from permlab.core import DistributionSpec, ModelSpec
from permlab.experiments import SweepPlan, concentration_sweep, csv_text, estimate_moments, summary_row
from permlab.model import TrialSeed, sample_constrained_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "permlab"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _openblas_core() -> str:
    """The kernel family of numpy's bundled OpenBLAS in this process, as
    OpenBLAS names it (``OPENBLAS_CORETYPE`` can force one). This build runs
    Zen on Haswell's kernels and names Prescott's "Katmai"."""
    numpy_dir = Path(np.__file__).parent
    libs = sorted([*numpy_dir.parent.glob("numpy.libs/libscipy_openblas64_*"),
                   *numpy_dir.glob(".dylibs/libscipy_openblas64_*")])
    if not libs:
        return "unknown (numpy has no bundled scipy-openblas)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


OPENBLAS_CORE = _openblas_core()


def _pinned(pins: dict[str, str]) -> str:
    """The pin recorded for this process's OpenBLAS kernel family."""
    if OPENBLAS_CORE not in pins:
        pytest.fail(f"no pin recorded for OpenBLAS core {OPENBLAS_CORE!r}")
    return pins[OPENBLAS_CORE]


def test_mc_csv_bytes():
    # `permlab mc --n 4 --r 2 --dist exp:1 --trials 400 --seed 7` prints this;
    # its exact_ratio cell is the quadrature's (the sum over agreement sets
    # printed ...575 in its last digits, SkylakeX 460ea73a...)
    batch = estimate_moments(ModelSpec.homogeneous(4, 2, DistributionSpec.exponential(1.0)), 400, 7)
    assert _sha256(csv_text([summary_row(batch)]).encode()) == _pinned({
        "SkylakeX": "3147698d03a54a079d89b422b88482b3a97b8d5f4cfbf38ea11942f7d324b41b",
        "Haswell": "3147698d03a54a079d89b422b88482b3a97b8d5f4cfbf38ea11942f7d324b41b",
        "Nehalem": "3147698d03a54a079d89b422b88482b3a97b8d5f4cfbf38ea11942f7d324b41b",
        "Sandybridge": "e06bac5d4771fa7c7264293f6f77e90e776f8775a68b98e9152efd0bfaacc00f",
        "Katmai": "689ad1e4c681df0bf4f8076a5748cca39d11cd8f601fcc766ec824a4de75a6c1",
    })


def test_mc_csv_bytes_across_seed_pieces():
    # `permlab mc --n 5 --r 2 --dist lognormal:0,1 --trials 9000 --seed 23`
    # prints this; the span crosses two seed pieces and many trial stacks,
    # and W takes the normal ziggurat. The dist cell is quoted (it holds a
    # comma); the text is otherwise that of b8082b33... Its exact_ratio cell
    # is the quadrature's (SkylakeX printed d068f3fa... before).
    batch = estimate_moments(ModelSpec.homogeneous(5, 2, DistributionSpec.lognormal(0.0, 1.0)), 9000, 23)
    assert _sha256(csv_text([summary_row(batch)]).encode()) == _pinned({
        "SkylakeX": "e5b88aff1df3aada2b8eecac1d92f66f72ee2d029f35ec5fbeac71e4e7678771",
        "Haswell": "b281564aff9f2e94a449f4e438e6e214a375c0dff67349e06f05c4794aaf809f",
        "Nehalem": "91147f8d5f77546df009d1ce2d99a8c657ccce6b7c28729b2a7421ad3ff4ad96",
        "Sandybridge": "b281564aff9f2e94a449f4e438e6e214a375c0dff67349e06f05c4794aaf809f",
        "Katmai": "91147f8d5f77546df009d1ce2d99a8c657ccce6b7c28729b2a7421ad3ff4ad96",
    })


def test_sample_bytes():
    # `permlab sample --n 5 --r 2,3,2,4,5 --dist lognormal:0,1 --seed 77`
    spec = ModelSpec(5, (2, 3, 2, 4, 5), DistributionSpec.lognormal(0.0, 1.0))
    x, y = sample_constrained_matrix(spec, TrialSeed(77, 0))
    assert _sha256(x.entries.astype("<f8").tobytes()) == (
        "9bb9f28e37ae5bcf9fdeb5db070e15088d13240de0845bc54e6237a65dbc59fa")
    assert _sha256(y.entries.astype("<f8").tobytes()) == (
        "2d8004675f4fa175e1ea229e4214e5f100a6519161156b2ac161e8274850ceff")


def test_sweep_csv_bytes_across_stack_sizes():
    # `permlab sweep --n 13,14,15 --r-rule power:0.75 --dist lognormal:0,1
    # --trials 8 --seed 5` prints this; n = 13 samples trials in stacks of
    # six, n = 14 of three and n = 15 of one. Rows go in groups of three
    # from n = 13 (it was n = 17, and SkylakeX printed dd2380f1...); the
    # exact_ratio cells are the quadrature's (SkylakeX printed edd96ff0...).
    plan = SweepPlan((13, 14, 15), "power:0.75", DistributionSpec.lognormal(0.0, 1.0), 8, 5)
    assert _sha256(csv_text(concentration_sweep(plan, workers=1)).encode()) == _pinned({
        "SkylakeX": "1c0512f7d181c2de8d9ec6d185c0d90efe223ae5acd5dd897c21af9cf2df6978",
        "Haswell": "c46f7881c2c65c04bcf90295848c392e7ef8953932816d4682d1912642ff1882",
        "Nehalem": "c0c4739b96a1b06c5386ec97e5d28ab8630ddb5a57e7f0b59e82c97091aa7b2a",
        "Sandybridge": "7a598254ce19dff7731004375271129d5cbb04e2d267de4b5fd8bd5c19e99e60",
        "Katmai": "ba2bc0c403fc69226ba7dce0388c68e572a9b2dd1c3f23a25363cda48561dc38",
    })


def test_sample_bytes_half_full_rows():
    # `permlab sample --n 16 --r 8 --dist exp:1 --seed 3 --trial 11`
    spec = ModelSpec.homogeneous(16, 8, DistributionSpec.exponential(1.0))
    x, y = sample_constrained_matrix(spec, TrialSeed(3, 11))
    assert _sha256(x.entries.astype("<f8").tobytes()) == (
        "29b0c5ae4d1210fe8d9b1162f4b54e07a544486a32563b6ef83e03738c04e32d")
    assert _sha256(y.entries.astype("<f8").tobytes()) == (
        "0173739ae55dc6c316a28fa4c2340775620de6a14c2997f65b28cfaa9d5fcc52")


@pytest.mark.parametrize("algorithm", ["ryser", "naive"])
def test_per_stdout(algorithm, tmp_path, capsys):
    # the Glynn pass runs on rows scaled by 2 and 4, the naive sum on the
    # raw entries, so their logs differ in the last bit
    log_per = {"ryser": "2.3025850929940455", "naive": "2.3025850929940459"}[algorithm]
    p = tmp_path / "m.txt"
    p.write_text("1 2\n3 4\n")
    assert main(["per", "--input", str(p), "--algorithm", algorithm]) == 0
    assert capsys.readouterr().out == f"per = 1e+01  log_per = {log_per}\n"


def test_per_stdout_beyond_double_range(tmp_path, capsys):
    # 20! * 1e-400, printed from its log
    p = tmp_path / "m.txt"
    p.write_text("\n".join(" ".join(["1e-20"] * 20) for _ in range(20)) + "\n")
    assert main(["per", "--input", str(p)]) == 0
    log_per = _pinned({"SkylakeX": "-878.69842073686493", "Haswell": "-878.69842073686505",
                       "Nehalem": "-878.69842073686505", "Sandybridge": "-878.69842073686505",
                       "Katmai": "-878.69842073686505"})
    assert capsys.readouterr().out == f"per = 2.43290200818e-382  log_per = {log_per}\n"


def test_moments_stdout(capsys):
    assert main(["moments", "--n", "12", "--r", "8", "--dist", "exp:1"]) == 0
    assert capsys.readouterr().out == """\
n = 12
r_low = 8
r_up = 8
dist = exp:1
nu = 1
delta = 2
mu_log = 15.121633198363906
mu = 3.6918313671696e+06
vdw_log = 15.121633198363909
vdw = 3.6918313671696e+06
alpha_up = 5.72215169650748e-01
beta_up = 3.1428571428571428
alpha_low = 5.72215169650748e-01
beta_low = 3.1428571428571428
bounds = unavailable (r_low >= 6*delta/nu^2 not met: r_low=8 < 12)
exact_ratio = 4.8774205745272905
a_n = 0.8660254037844386
c_n = 1.5
theta = 1.1643731727664313
"""


def test_perfbench_imports_are_exported():
    # the benchmark imports these from the package's top level
    imported, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "permlab":
                imported += len(node.names)
                missing += [f"{path.name}: {a.name}" for a in node.names
                            if a.name not in permlab.__all__]
    assert imported and not missing


def test_src_defines_only_what_src_uses():
    # every top-level function or class is exported or referenced, by name or
    # attribute, outside its own definition; test-only code lives in tests/
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append(top)
            refs += [(node.id if isinstance(node, ast.Name) else node.attr, top)
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [d.name for d in defs if d.name not in permlab.__all__
              and not any(ref == d.name and where is not d for ref, where in refs)]
    assert defs
    assert not unused
