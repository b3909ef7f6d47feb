"""The mutation check's list must apply to today's source: each mutant
mutates a file under ``src/`` at an anchor that occurs exactly once there.

``tests/mutants.py`` raises on a stale anchor only when it reaches that
mutant, minutes into its run; this test finds one in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

_spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, path, anchor, replacement", mutants.MUTANTS,
                         ids=[entry[0] for entry in mutants.MUTANTS])
def test_anchor_occurs_once_under_src(name, path, anchor, replacement):
    assert path.startswith("src/")
    assert (ROOT / path).read_text(encoding="utf-8").count(anchor) == 1


def test_operator_sweep_exempts_one_site_per_entry():
    # operator_mutants raises on an EXEMPT or GUARD_EXEMPT anchor that is
    # not once in its file or does not span exactly one site of its kind
    texts = [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "eastsim").glob("*.py")]
    assert len(mutants.operator_mutants()) + len(mutants.EXEMPT) + len(mutants.GUARD_EXEMPT) == sum(
        len(mutants.operator_sites(text)) + len(mutants.guard_sites(text))
        + len(mutants.arithmetic_sites(text)) for text in texts
    )
    # each family's mutants are its own sites less its exempt ones
    assert len(mutants.operator_mutants(families=["comparisons"])) + len(
        mutants.operator_mutants(families=["arithmetic"])) == len(mutants.operator_mutants())


@pytest.mark.parametrize(
    "source, sites",
    [
        ("x = a + b - c\n", [("+", "-"), ("-", "+")]),
        ("x = (a  # a comment - with a minus\n     * b) / c\n", [("*", "/"), ("/", "*")]),
        ("x //= 2\nx += a % b\ny -= 1\n", [("//=", "/="), ("+=", "-="), ("%", "//"), ("-=", "+=")]),
        ("x = -a ** -2\ny = [*a, *b]\nz = a ** b\n", [("-", ""), ("-", "")]),
        ("s = f\"{-a}\" + 'b'\n", [("-", ""), ("+", "-")]),
    ],
)
def test_arithmetic_sites(source, sites):
    # unpacking stars and ** are not sites; comments and parentheses between
    # the operands are skipped
    assert [(source[start:end], replacement)
            for start, end, replacement in mutants.arithmetic_sites(source)] == sites
