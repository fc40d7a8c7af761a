"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated bound and prints one
pass/fail line (visible with ``pytest -s`` or on failure).  All
comparisons are exact; there are no tolerances anywhere.
"""

import json

import pytest

from wordeq.cli import main
from wordeq.equations import (
    EquationInstance,
    Exponents,
    canonical_instance,
    check,
    conjecture_scan,
    iter_solutions,
    split_even_j,
)
from wordeq.families import family_j2, validate_family_grid
from wordeq.oracles import run_lemma_suite
from support import naive_solutions, words_up_to

FORCING_TRIPLES = [(2, 3, 1), (1, 3, 2), (2, 3, 2), (3, 3, 1), (2, 4, 1), (1, 4, 2)]


def _verdict_line(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_forcing_desk_scale(capsys):
    ok = True
    for i, j, k in FORCING_TRIPLES:
        code, out = _run_cli_json(
            capsys, "verify", "--i", str(i), "--j", str(j), "--k", str(k),
            "--max-len", "18", "--format", "json", "--shards", "1",
        )
        obj = json.loads(out)
        ok = ok and code == 0 and obj["forced_up_to_bound"] is True
    _verdict_line("1 (a^i b^j a^k forced at bound 18 for six exponent triples)", ok)


def test_criterion_2_j_bound_optimal(capsys):
    code, out = _run_cli_json(
        capsys, "solve", "--i", "2", "--j", "2", "--k", "1",
        "--max-len", "25", "--format", "json", "--shards", "1",
    )
    obj = json.loads(out)
    fam = family_j2("a", "b", 1)
    raw = {inst.words() for inst in iter_solutions((2, 2, 1), 2, 25)}
    ok = (
        code == 2
        and obj["periodic_only"] is False
        and len(obj["nonperiodic"]) >= 1
        and fam.words() in raw
    )
    _verdict_line("2 (j >= 3 optimal: non-periodic solution at (2,2,1), bound 25)", ok)


def test_criterion_3_ik_bound_optimal(capsys):
    code, out = _run_cli_json(
        capsys, "solve", "--i", "1", "--j", "3", "--k", "1",
        "--max-len", "17", "--format", "json", "--shards", "1",
    )
    obj = json.loads(out)
    target = EquationInstance(Exponents(1, 3, 1), "aabbbaa", "b", "a", "abbba")
    assert target.lhs() == target.rhs() == "aabbbaabbbaabbbaa"
    raw = {inst.words() for inst in iter_solutions((1, 3, 1), 2, 17)}
    rep = canonical_instance(target, 2)
    ok = (
        code == 2
        and target.words() in raw
        and rep.to_json_obj() in obj["nonperiodic"]
    )
    _verdict_line("3 (i+k >= 3 optimal: the 17-letter witness at (1,3,1))", ok)


def test_criterion_4_family_grid():
    summary = validate_family_grid(2, 2, 5)
    ok = summary.pairs == 26 and summary.total == 26 * 4
    _verdict_line("4 (family grid (2,2,5): every instance valid and non-periodic)", ok)


def test_criterion_5_lemma_suite():
    results = run_lemma_suite(6)
    ok = len(results) == 14 and all(r.passed for r in results)
    for r in results:
        if not r.passed:
            print(f"  {r.name}: {r.failures[0]}")
    by_name = {r.name: r for r in results}
    # the two structural results single out: never two imprimitive
    # cross-set words, and the centered-shape classification never errors
    ok = ok and by_name["cross-set-imprimitivity"].cases > 800
    ok = ok and by_name["imprimitive-set-shape"].cases > 800
    _verdict_line("5 (all fourteen lemma oracles at documented ranges)", ok)


def test_criterion_6_independent_oracle_equivalence():
    engine = {inst.words() for inst in iter_solutions((1, 2, 1), 2, 12, distinct_only=False)}
    naive = naive_solutions((1, 2, 1), 2, 12)
    ok = engine == naive and ("babab", "a", "bab", "aba") in engine
    _verdict_line("6 (engine equals the naive four-loop oracle at (1,2,1), bound 12)", ok)


@pytest.mark.parametrize("i,j", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_criterion_7_split_equivalence(i, j):
    exps = Exponents(i, j, i)
    budget = 12
    max_xy = budget // (2 * i)
    ok = True
    cases = 0
    for x in words_up_to(max_xy):
        y_budget = (budget - 2 * i * len(x)) // j
        for y in words_up_to(y_budget):
            n = 2 * i * len(x) + j * len(y)
            for u in words_up_to(max_xy):
                rem = n - 2 * i * len(u)
                if rem <= 0 or rem % j:
                    continue
                lv = rem // j
                for v in words_up_to(lv, min_len=lv):
                    inst = EquationInstance(exps, x, y, u, v)
                    halves = split_even_j(inst)
                    both = all(lhs == rhs for lhs, rhs in halves)
                    cases += 1
                    if both != check(inst):
                        ok = False
    assert cases > 0
    _verdict_line(f"7 (split equivalence at i=k={i}, j={j}, bound 12)", ok)


def test_criterion_8_conjecture_scan_informational():
    ok = True
    for exps, bound in [((3, 2, 1), 16), ((4, 2, 2), 16)]:
        report = conjecture_scan(exps, 2, bound)
        if not report.periodic_only:
            # a counterexample would be a scientific finding, not a
            # build failure: print it and carry on
            for inst in report.nonperiodic:
                print(f"CONJECTURE COUNTEREXAMPLE at {exps}: x={inst.x!r} "
                      f"y={inst.y!r} u={inst.u!r} v={inst.v!r}")
    print("criterion 8 (conjecture scan at (3,2,1) and (4,2,2), bound 16): PASS")
    assert ok


def test_conjecture_scan_bound_60_informational():
    # beside criterion 8: the same open case, four triples, a larger bound
    for exps in [(3, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 3)]:
        report = conjecture_scan(exps, 2, 60)
        assert all(check(inst) and len(inst.lhs()) <= 60 for inst in report.solutions)
        for inst in report.nonperiodic:
            print(f"CONJECTURE COUNTEREXAMPLE at {exps}: x={inst.x!r} "
                  f"y={inst.y!r} u={inst.u!r} v={inst.v!r}")
    print("conjecture scan at (3,2,1), (4,2,2), (5,2,1), (5,2,3), bound 60: PASS")


def test_criterion_9_determinism_across_shards(capsys):
    ok = True
    # criterion 1 commands
    for i, j, k in FORCING_TRIPLES:
        outs = set()
        for shards in ("1", "2", "8"):
            _, out = _run_cli_json(
                capsys, "verify", "--i", str(i), "--j", str(j), "--k", str(k),
                "--max-len", "18", "--format", "json", "--shards", shards,
            )
            outs.add(out)
        ok = ok and len(outs) == 1
    # criteria 2 and 3 commands
    for i, j, k, bound in [(2, 2, 1, 25), (1, 3, 1, 17)]:
        outs = set()
        for shards in ("1", "2", "8"):
            _, out = _run_cli_json(
                capsys, "solve", "--i", str(i), "--j", str(j), "--k", str(k),
                "--max-len", str(bound), "--format", "json", "--shards", shards,
            )
            outs.add(out)
        ok = ok and len(outs) == 1
    _verdict_line("9 (byte-identical JSON with shard counts 1, 2, 8)", ok)
