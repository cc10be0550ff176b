"""Output bytes pinned across versions, and the top-level names the
benchmark harness imports.

The other tests compare the program with itself: a batch with single
trials, one worker count with another. These pin what it printed when the
pins were recorded, so a change to seeding, sampling, the kernel or the CSV
format that keeps every self-comparison shows up here. A deliberate numeric
break updates the pins and is documented in the README's reproducibility
contract and in CHANGES.md.
"""

import ast
import hashlib
from pathlib import Path

import permlab
from permlab.core import DistributionSpec, ModelSpec
from permlab.experiments import csv_text, estimate_moments, summary_row
from permlab.model import TrialSeed, sample_constrained_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_mc_csv_bytes():
    # `permlab mc --n 4 --r 2 --dist exp:1 --trials 400 --seed 7` prints this
    batch = estimate_moments(ModelSpec.homogeneous(4, 2, DistributionSpec.exponential(1.0)), 400, 7)
    assert _sha256(csv_text([summary_row(batch)]).encode()) == (
        "460ea73ae2dd6c3b52714b42094b52cd62c7664bb836aaf5fb1e416bb0a71c27")


def test_sample_bytes():
    # `permlab sample --n 5 --r 2,3,2,4,5 --dist lognormal:0,1 --seed 77`
    spec = ModelSpec(5, (2, 3, 2, 4, 5), DistributionSpec.lognormal(0.0, 1.0))
    x, y = sample_constrained_matrix(spec, TrialSeed(77, 0))
    assert _sha256(x.entries.astype("<f8").tobytes()) == (
        "9bb9f28e37ae5bcf9fdeb5db070e15088d13240de0845bc54e6237a65dbc59fa")
    assert _sha256(y.entries.astype("<f8").tobytes()) == (
        "2d8004675f4fa175e1ea229e4214e5f100a6519161156b2ac161e8274850ceff")


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
