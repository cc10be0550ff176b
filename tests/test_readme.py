"""README quotes numbers that tests hold: the tests it names exist, its
table of breaks names golden pins, and its size-guard table is the
program's constants."""

import ast
import re
from pathlib import Path

import pytest

from permlab import cli
from permlab.experiments import MAX_TRIALS
from permlab.moments import ENUMERATE_MAX_N, PAIRS_MAX_N
from permlab.permanent import NAIVE_MAX_N, RYSER_MAX_N

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _defined(path: Path) -> set[str]:
    """The file's top-level names and, as ``Class::name``, its methods."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return names


NAMED_TESTS = sorted(set(re.findall(r"tests/(\w+\.py)::(\w+(?:::\w+)?)", README)))


def test_readme_names_tests():
    assert NAMED_TESTS


@pytest.mark.parametrize("path,name", NAMED_TESTS,
                         ids=[f"{path[:-3]}.{name.replace('::', '.')}" for path, name in NAMED_TESTS])
def test_named_test_is_defined(path, name):
    assert name in _defined(ROOT / "tests" / path)


def test_break_table_names_golden_pins():
    table = README.split("| PR | what moved |", 1)[1].split("\n\n", 1)[0]
    pins = set(re.findall(r"`(test_\w+)`", table))
    assert pins and pins <= _defined(ROOT / "tests" / "test_golden.py")


def _number(text: str) -> int:
    """An integer as README writes it: ``30`` or ``10^7``."""
    base, _, exponent = text.partition("^")
    return int(base) ** int(exponent or 1)


def test_size_guard_table_is_the_constants():
    section = README.split("## Size guards", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", section, re.M)
    table = {what: [_number(v) for v in re.findall(r"<= ([\d^]+)", guard)]
             for what, guard in rows if what != "operation"}
    assert cli._MAX_N["mc"][1] == RYSER_MAX_N
    assert table == {
        "`per_naive`": [NAIVE_MAX_N],
        "`per_ryser`, `per_scaled`, trials": [RYSER_MAX_N],
        "`mc`, `sweep`, `TrialBatch`": [MAX_TRIALS],
        "`permlab sample`": [cli._MAX_N["sample"][1]],
        "`permlab moments`": [cli._MAX_N["moments"][1]],
        "`brute_second_moment_pairs`": [PAIRS_MAX_N],
        "`exact_moments_enumerate`": [ENUMERATE_MAX_N],
    }
