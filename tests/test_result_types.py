"""The result types: immutable named tuples with fixed reprs, equality and field order."""

import subprocess
import sys
from pathlib import Path

import pytest

from wordeq import (
    BinaryCode,
    CodeWord,
    classify_x_power,
    enumerate_solutions,
    forcing_verdict,
    oracles,
    transfer_decomposition,
    validate_family_grid,
    x_primitive_imprimitive_set,
)
from wordeq.equations import EquationInstance, Exponents

SRC = Path(__file__).resolve().parent.parent / "src"
CODE = BinaryCode("aba", "baab")
WORD = "CodeWord(code=BinaryCode(x='aba', y='baab'), letters='{}')"

# (builder, repr, field order): each repr is the one the former frozen
# dataclasses printed, so a change of printed form shows here
RESULTS = {
    "ConjugacyDecomposition": (
        lambda: transfer_decomposition("ab", "a", "ba"),
        "ConjugacyDecomposition(sigma='a', tau='b', ell=0, m=1)",
        ("sigma", "tau", "ell", "m")),
    "BinaryCode": (
        lambda: BinaryCode("ab", "a"),
        "BinaryCode(x='ab', y='a')",
        ("x", "y")),
    "CodeWord": (
        lambda: CodeWord(BinaryCode("ab", "a"), "xyx"),
        "CodeWord(code=BinaryCode(x='ab', y='a'), letters='xyx')",
        ("code", "letters")),
    "ImprimitiveSet": (
        lambda: x_primitive_imprimitive_set(CODE, 3),
        "ImprimitiveSet(shape='x-centered', k=2, members=("
        + ", ".join(WORD.format(c) for c in ("xxy", "xyx", "yxx")) + "))",
        ("shape", "k", "members")),
    "PowerShape": (
        lambda: classify_x_power(CodeWord(CODE, "xxy"), 2),
        "PowerShape(repeated='x', k=2, ell=0)",
        ("repeated", "k", "ell")),
    "EquationInstance": (
        lambda: EquationInstance(Exponents(1, 2, 1), "a", "b", "a", "b"),
        "EquationInstance(exps=Exponents(i=1, j=2, k=1), x='a', y='b', u='a', v='b')",
        ("exps", "x", "y", "u", "v")),
    "SolutionReport": (
        lambda: enumerate_solutions((1, 2, 1), 2, 8),
        "SolutionReport(exps=Exponents(i=1, j=2, k=1), alphabet_size=2, bound=8, "
        "total_solutions=20, nonperiodic=(EquationInstance(exps=Exponents(i=1, j=2, k=1), "
        "x='a', y='bab', u='aba', v='b'),), distinct_only=True, allow_empty=False)",
        ("exps", "alphabet_size", "bound", "total_solutions", "nonperiodic", "distinct_only",
         "allow_empty")),
    "ForcingVerdict": (
        lambda: forcing_verdict((2, 3, 1), 2, 6),
        "ForcingVerdict(report=SolutionReport(exps=Exponents(i=2, j=3, k=1), alphabet_size=2, "
        "bound=6, total_solutions=0, nonperiodic=(), distinct_only=True, allow_empty=False))",
        ("report",)),
    "FamilyGridSummary": (
        lambda: validate_family_grid(1, 1, 3),
        "FamilyGridSummary(pairs=2, j2_instances=2, i1k1_instances=2)",
        ("pairs", "j2_instances", "i1k1_instances")),
    "OracleResult": (
        lambda: oracles.check_overlap_commutation(2),
        "OracleResult(name='overlap-commutation', cases=14, failures=())",
        ("name", "cases", "failures")),
}


@pytest.mark.parametrize("name", RESULTS)
def test_repr_is_unchanged(name):
    build, text, _ = RESULTS[name]
    result = build()
    assert type(result).__name__ == name
    assert repr(result) == text


@pytest.mark.parametrize("name", RESULTS)
def test_asdict_keeps_the_field_order(name):
    build, _, fields = RESULTS[name]
    result = build()
    assert tuple(result._asdict()) == fields
    assert list(result._asdict().values()) == [getattr(result, f) for f in fields]


@pytest.mark.parametrize("name", RESULTS)
def test_equal_values_compare_and_hash_equal(name):
    build = RESULTS[name][0]
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == tuple(first)


@pytest.mark.parametrize("name", RESULTS)
def test_attributes_cannot_be_set(name):
    build, _, fields = RESULTS[name]
    result = build()
    with pytest.raises(AttributeError):
        setattr(result, fields[0], None)
    with pytest.raises(AttributeError):
        result.extra = None
    assert repr(result) == RESULTS[name][1]


@pytest.mark.parametrize("call", [
    lambda: BinaryCode("a", "aa"),
    lambda: BinaryCode("", "a"),
    lambda: BinaryCode("a", ""),
    lambda: CodeWord(BinaryCode("ab", "a"), "xz"),
], ids=["commuting", "empty-x", "empty-y", "letter-z"])
def test_constructor_checks_still_raise(call):
    with pytest.raises(ValueError):
        call()


def test_import_leaves_dataclasses_and_inspect_out():
    # -I -S: no site hook or environment variable may import either module
    # first, so the test sees only what importing wordeq brings in
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import wordeq, wordeq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
