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
import os
import subprocess
import sys
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
    # printed ...575 in its last digits, SkylakeX 460ea73a...), and its
    # ratios one product, the scaled permanent times n^n/n! (a log and an
    # exp printed 3147698d... on SkylakeX)
    batch = estimate_moments(ModelSpec.homogeneous(4, 2, DistributionSpec.exponential(1.0)), 400, 7)
    assert _sha256(csv_text([summary_row(batch)]).encode()) == _pinned({
        "SkylakeX": "784a607a339a13b0b4d71e88425bb35514c7d96f1aadc23ebba62b059476bce1",
        "Haswell": "784a607a339a13b0b4d71e88425bb35514c7d96f1aadc23ebba62b059476bce1",
        "Nehalem": "784a607a339a13b0b4d71e88425bb35514c7d96f1aadc23ebba62b059476bce1",
        "Sandybridge": "784a607a339a13b0b4d71e88425bb35514c7d96f1aadc23ebba62b059476bce1",
        "Katmai": "59eb500f31ebb69e3847de2529410054ff60e52644ded5301a38dd5b07bf473e",
    })


def test_mc_csv_bytes_across_seed_pieces():
    # `permlab mc --n 5 --r 2 --dist lognormal:0,1 --trials 9000 --seed 23`
    # prints this; the span crosses two seed pieces and many trial stacks,
    # and W takes the normal ziggurat. The dist cell is quoted (it holds a
    # comma); the text is otherwise that of b8082b33... Its exact_ratio cell
    # is the quadrature's (SkylakeX printed d068f3fa... before). W takes
    # libm's exp and the ratios n^n/n! times the scaled permanent (SkylakeX
    # printed e5b88aff... before).
    batch = estimate_moments(ModelSpec.homogeneous(5, 2, DistributionSpec.lognormal(0.0, 1.0)), 9000, 23)
    assert _sha256(csv_text([summary_row(batch)]).encode()) == _pinned({
        "SkylakeX": "57090ef74cab75b42aca7f664641351532ae404a2fde84bce40216ce2088e567",
        "Haswell": "d4051273720f0cdeed34d2b029704933bf9478caa95a832e5fa27368ec7b8a15",
        "Nehalem": "1db036cd41ace6033cf31b1d41bb57c476a80d9d81eba9d812c2cbb6273ba287",
        "Sandybridge": "d4051273720f0cdeed34d2b029704933bf9478caa95a832e5fa27368ec7b8a15",
        "Katmai": "1db036cd41ace6033cf31b1d41bb57c476a80d9d81eba9d812c2cbb6273ba287",
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
    # exact_ratio cells are the quadrature's (SkylakeX printed edd96ff0...);
    # W takes libm's exp and the ratios one product (SkylakeX printed
    # 1c0512f7... before).
    plan = SweepPlan((13, 14, 15), "power:0.75", DistributionSpec.lognormal(0.0, 1.0), 8, 5)
    assert _sha256(csv_text(concentration_sweep(plan, workers=1)).encode()) == _pinned({
        "SkylakeX": "b6dee6ee15b35137460ddc396ea735ada90207392da7e7174ad58cdbc7b72c8f",
        "Haswell": "f40f496f700ec8b519f0003f04367279008db72d535e6225b232a7bfbe28afb2",
        "Nehalem": "973d4f23cdccd33743f25e196989e9d5df64e5ef242c216e1515b49bacc49067",
        "Sandybridge": "528cb6c05121e3c43009c2418264ce4992f7ed88bb5ee281e585977040966d11",
        "Katmai": "0e2030c0e7bda42a9b35d1a762cfa5a9d5b1731141c0806990a6387b47309f5e",
    })


def test_sample_bytes_half_full_rows():
    # `permlab sample --n 16 --r 8 --dist exp:1 --seed 3 --trial 11`
    spec = ModelSpec.homogeneous(16, 8, DistributionSpec.exponential(1.0))
    x, y = sample_constrained_matrix(spec, TrialSeed(3, 11))
    assert _sha256(x.entries.astype("<f8").tobytes()) == (
        "29b0c5ae4d1210fe8d9b1162f4b54e07a544486a32563b6ef83e03738c04e32d")
    assert _sha256(y.entries.astype("<f8").tobytes()) == (
        "0173739ae55dc6c316a28fa4c2340775620de6a14c2997f65b28cfaa9d5fcc52")


def _avx512_dispatch() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU runs: ``X86_V4`` and
    the ``AVX512*`` names in numpy's dispatch list, since naming any other
    in NPY_DISABLE_CPU_FEATURES is an ImportWarning. On a host without
    AVX-512 the list is empty."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__
            if (f == "X86_V4" or f.startswith("AVX512")) and __cpu_features__.get(f)]


def test_pins_do_not_depend_on_simd_dispatch():
    # the CSV and sample pins again with numpy's AVX-512 loops off, whose
    # np.exp differs from libm's exp in the last bit; the child reads each
    # of them off, and numpy imports there without a warning
    off = _avx512_dispatch()
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off)}
    probe = ("import sys; from numpy._core._multiarray_umath import __cpu_features__ as f; "
             "print(*[n for n in sys.argv[1:] if f[n]])")
    child = subprocess.run([sys.executable, "-W", "error", "-c", probe, *off], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")
    pins = ["test_mc_csv_bytes", "test_mc_csv_bytes_across_seed_pieces", "test_sample_bytes",
            "test_sweep_csv_bytes_across_stack_sizes", "test_sample_bytes_half_full_rows"]
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            *[f"{__file__}::{name}" for name in pins]],
                           env=env, cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0 and f"{len(pins)} passed" in child.stdout, child.stdout + child.stderr


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
vdw_log = 15.121633198363906
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
