"""A standing mutation check for the fast paths.

Each mutant names a file, an exact source fragment in it, the fragment's
replacement and the pytest node ids that must catch it.  The check copies
``src`` and ``tests`` to a temporary directory, runs every listed node id
there once unmutated (they must all pass), then applies each mutant to a
fresh copy and runs its node ids: the mutant is caught when every one of
them fails, and survives otherwise.  A fragment that does not occur
exactly once in its file is an error, not a skip, so the list cannot go
stale silently.

Standard library only; pytest does not collect this file.  Run it from
any directory, with pytest and hypothesis installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py -k absorp    # mutants whose name contains "absorp"

Exit status: 0 if every mutant was caught, 1 if one survived, 2 on an
error: a ``-k`` that selects no mutant, a stale fragment, a node id
that does not exist, or an unmutated copy that fails its node ids.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CODES = "src/wordeq/codes.py"
EQUATIONS = "src/wordeq/equations.py"
ORACLES = "src/wordeq/oracles.py"
WORDS = "src/wordeq/words.py"
CODE_TESTS = "tests/test_codes.py::"
EQ = "tests/test_equations.py::"
LEMMAS = "tests/test_lemma_oracles.py::"
WORD_TESTS = "tests/test_words.py::"
PIN = "tests/test_parity.py::test_output_is_pinned"
TRANSFER = (WORD_TESTS + "test_transfer_decomposition_examples",
            LEMMAS + "test_oracle_passes[check_conjugacy_transfer-kwargs4]",
            PIN + "[primitives-sweep]")
COUNTS = (LEMMAS + "test_absorption_pass_counts_each_exponent[2]",)
WIDE = (PIN + "[oracles-wide]",)
FRONTS = (LEMMAS + "test_absorbed_words_start_with_their_front[3]",)
STATEMENTS = (LEMMAS + "test_absorption_pass_checks_each_statement[<lambda>1]",)
FACTOR_COUNTS = (LEMMAS + "test_suite_case_counts_at_knob_5",
                 LEMMAS + "test_power_factor_passes_match_the_separate_scans[3-3]",
                 LEMMAS + "test_factor_pair_pass_keeps_the_grouped_walks_failures[<lambda>3-4-3-default]")
CLASSES = (LEMMAS + "test_code_pair_pass_checks_each_clean_class_once[length-8k]",)
FACTOR_ORDER = (LEMMAS + "test_factor_pair_pass_keeps_the_grouped_walks_failures[<lambda>0-4-3-all]",
                LEMMAS + "test_factor_pair_pass_keeps_the_grouped_walks_failures[<lambda>3-5-4-all]")


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    must_fail: tuple[str, ...]


MUTANTS = [
    # the side-swap rule of enumerate_solutions and canonical_instance
    Mutant("side swap never named", EQUATIONS,
           "if not words[2].startswith(words[0]):", "if False:",
           (EQ + "test_side_swap_can_win_when_i_is_0",
            EQ + "test_side_swap_is_named_only_when_u_does_not_start_with_x",
            EQ + "test_counted_report_matches_listed_every_small_triple[0-1-1]",
            PIN + "[solve-edge-cases]")),
    Mutant("side swap rule tests endswith", EQUATIONS,
           "if not words[2].startswith(words[0]):", "if not words[2].endswith(words[0]):",
           (EQ + "test_side_swap_can_win_when_i_is_0",
            EQ + "test_side_swap_is_named_only_when_u_does_not_start_with_x",
            EQ + "test_counted_report_matches_listed_every_small_triple[0-1-1]",
            PIN + "[solve-edge-cases]")),
    Mutant("side swap guard dropped", EQUATIONS,
           "if not words[2].startswith(words[0]):", "if True:",
           (EQ + "test_side_swap_is_named_only_when_u_does_not_start_with_x",)),
    Mutant("canonical_instance without the mirrored swap", EQUATIONS,
           "images += [tuple(w[::-1] for w in image) for image in images]",
           "images.append(tuple(w[::-1] for w in words))",
           (EQ + "test_canonical_instance_is_orbit_minimum_of_any_tuple",
            EQ + "test_canonical_instance_matches_brute_force_orbit[exps1-3-7-True]",
            EQ + "test_counted_report_matches_listed_every_small_triple[1-1-1]")),
    # the mirror judged on growth strings
    Mutant("sigma from unreversed slices", EQUATIONS,
           "mirrored = scaled[:a][::-1] + scaled[a:b][::-1] + scaled[b:c][::-1] + scaled[c:][::-1]",
           "mirrored = scaled[:a] + scaled[a:b] + scaled[b:c] + scaled[c:]",
           (EQ + "test_counted_report_matches_listed_every_small_triple[1-1-1]",
            EQ + "test_nonperiodic_reps_invariant_under_symmetries",
            PIN + "[solve-121-40]")),
    Mutant("sigma reads x from scaled[a - 1::-1]", EQUATIONS,
           "mirrored = scaled[:a][::-1] +", "mirrored = scaled[a - 1::-1] +",
           (EQ + "test_counted_report_matches_listed_every_small_triple[1-1-1]",
            EQ + "test_counted_report_matches_listed_every_small_triple[2-1-2]",
            PIN + "[solve-edge-cases]")),
    Mutant("mirror growth string not renumbered", EQUATIONS,
           "d = names.setdefault(r[m], len(names))", "d = r[m]",
           (EQ + "test_counted_report_matches_listed_every_small_triple[1-1-1]",
            EQ + "test_nonperiodic_reps_invariant_under_symmetries",
            PIN + "[solve-121-40]")),
    Mutant("mirror test < for <=", EQUATIONS,
           "            return d < c\n    return False", "            return d < c\n    return True",
           (EQ + "test_nonforcing_at_boundary",
            EQ + "test_counted_report_matches_listed_every_small_triple[1-1-1]",
            PIN + "[verify-131-17]")),
    # the two absorption walks
    Mutant("prefix-power suffixes longest first", ORACLES,
           "for cut in range(lv, -1, -1):", "for cut in range(lv + 1):",
           COUNTS),
    Mutant("prefix-power z = '' dropped", ORACLES,
           "for cut in range(lv, -1, -1):", "for cut in range(lv - 1, -1, -1):",
           COUNTS + FRONTS + WIDE),
    Mutant("prefix-power z = v dropped", ORACLES,
           "for cut in range(lv, -1, -1):", "for cut in range(lv, 0, -1):",
           COUNTS + FRONTS + WIDE),
    Mutant("prefix-power i = E skipped", ORACLES,
           "for i in range(1, max_exp + 1):\n                base = z + v * i",
           "for i in range(1, max_exp):\n                base = z + v * i",
           COUNTS + FRONTS + WIDE),
    Mutant("short-prefix cases not multiplied by the fronts", ORACLES,
           "short_prefix.cases += len(fronts)", "short_prefix.cases += 1",
           COUNTS + FRONTS + WIDE),
    Mutant("short-prefix |w| = r", ORACLES,
           "v, t, i, len(t) + r)", "v, t, i, r)",
           COUNTS + STATEMENTS),
    Mutant("short-prefix power[:r + |v|]", ORACLES,
           '_absorbed(power[:r], "", pv)', '_absorbed(power[:r + len(v)], "", pv)',
           COUNTS + STATEMENTS),
    Mutant("short-prefix i = E skipped", ORACLES,
           "for i in range(1, max_exp + 1):\n            power = v * i",
           "for i in range(1, max_exp):\n            power = v * i",
           COUNTS + FRONTS + WIDE),
    # the factor-pair keys and their closed-form case counts
    Mutant("aligned-prefix count one short per key", ORACLES,
           "prefix.cases += n - b - m + 1", "prefix.cases += n - b - m",
           FACTOR_COUNTS),
    Mutant("aligned-prefix without the diagonal keys", ORACLES,
           "if a <= b:", "if a < b:",
           FACTOR_COUNTS),
    Mutant("aligned-suffix without the diagonal keys", ORACLES,
           "if A >= B:", "if A > B:",
           FACTOR_COUNTS),
    Mutant("straddling counted to the later end", ORACLES,
           "straddling.cases += min(A, B) - m + 1", "straddling.cases += max(A, B) - m + 1",
           FACTOR_COUNTS),
    # equivalent under the real commutes, which fails no key
    Mutant("factor-pair failures sorted without the group's first start", ORACLES,
           "sorted((lu, first[a], a, b, args)", "sorted((lu, a, b, args)",
           FACTOR_ORDER),
    # not listed, equivalent: dropping the early exit "if count == 1: break"
    # from _union_positions.  Once one tree holds every position, both ends
    # of each later pair find the root 0, so no union happens and the path
    # compression keeps parent[p] <= p: the count and the first-occurrence
    # labels are the same, and only the time differs.
    # the least search bound with empty words
    Mutant("bound with empty words at least i + j + k", EQUATIONS,
           "if max_total_len < (1 if allow_empty else i + j + k):", "if max_total_len < i + j + k:",
           (EQ + "test_bound_below_i_j_k_with_empty_words[1-1-1]",
            EQ + "test_bound_below_i_j_k_with_empty_words[0-2-1]")),
    # the overlap period walk and the periodicity lemma's necklace pairs
    Mutant("overlap walk without the endswith test", ORACLES,
           "if s.endswith(w):", "if True:",
           (LEMMAS + "test_overlap_commutation_matches_the_cut_scan[5]",
            LEMMAS + "test_overlap_walk_meets_each_proper_cut_once",
            LEMMAS + "test_suite_case_counts_at_knob_5") + WIDE),
    Mutant("overlap walk checks one cut only", ORACLES,
           "cuts = (q,) if 2 * q == n else (q, n - q)", "cuts = (q,)",
           (LEMMAS + "test_overlap_commutation_matches_the_cut_scan[3]",
            LEMMAS + "test_overlap_walk_meets_each_proper_cut_once",
            LEMMAS + "test_overlap_cases_come_from_the_whole_border_chain[<lambda>]") + WIDE),
    Mutant("overlap trivial cuts off by one", ORACLES,
           "rec.cases = 2 * ((2 << max_word_len) - 2)", "rec.cases = 2 * ((2 << max_word_len) - 1)",
           (LEMMAS + "test_overlap_commutation_matches_the_cut_scan[1]",
            LEMMAS + "test_suite_case_counts_at_knob_5") + WIDE),
    Mutant("periodicity pairs counted one way", ORACLES,
           "rec.cases += 2 * len(p) * len(q)", "rec.cases += len(p) * len(q)",
           (LEMMAS + "test_periodicity_lemma_matches_the_pairwise_factor_sets[2]",
            LEMMAS + "test_suite_case_counts_at_knob_5") + WIDE),
    # equivalent under the real power_factors, which never fail a pair;
    # both stand-ins fail some, so their failure lists tell the orders apart
    Mutant("periodicity failures in one pair order", ORACLES,
           "failed += [(p, q), (q, p)]", "failed += [(p, q)]",
           (LEMMAS + "test_periodicity_lemma_reads_each_factor_set[<lambda>0]",
            LEMMAS + "test_periodicity_lemma_reads_each_factor_set[<lambda>1]")),
    # equivalent under the real power_factors: the roots 'a' and 'ab' share
    # the factor 'a' of length |p|+|q|-2 at every max_root_len >= 2
    Mutant("periodicity without the sharp flag", ORACLES,
           "rec.record(sharp,", "rec.record(True,",
           (LEMMAS + "test_periodicity_lemma_records_an_unmet_sharp_bound",)),
    # one split per case in the word and code primitives
    Mutant("transfer: empty z read as a whole power", WORDS,
           "if z and not r:", "if not r:",
           TRANSFER),
    Mutant("transfer: every z read as a whole power", WORDS,
           "if z and not r:", "if z:",
           TRANSFER),
    Mutant("power_factors of the empty root at length 0", WORDS,
           'set() if length else {""}', "set()",
           (WORD_TESTS + "test_power_factors_of_the_empty_word", PIN + "[primitives-sweep]")),
    Mutant("centred shapes' labels swapped", CODES,
           '((SHAPE_X_CENTERED, "x", "y"), (SHAPE_Y_CENTERED, "y", "x"))',
           '((SHAPE_Y_CENTERED, "x", "y"), (SHAPE_X_CENTERED, "y", "x"))',
           (CODE_TESTS + "test_imprimitive_set_example",
            CODE_TESTS + "test_imprimitive_set_y_centered_exists",
            PIN + "[primitives-sweep]")),
    Mutant("expand reads letters outside xy", CODES,
           "if letters.strip(CODE_LETTERS):", "if False:",
           (CODE_TESTS + "test_expand_rejects_letters_outside_xy",)),
    # one check per symmetry class, counted by its size, and the letter-count groups
    Mutant("class size off by one", ORACLES,
           "yield x, y, len(images)", "yield x, y, len(images) - 1",
           (LEMMAS + "test_code_classes_partition_the_walk[2]",
            LEMMAS + "test_suite_case_counts_at_knob_6",
            PIN + "[lemmas-7]")),
    Mutant("no second pass after a failing class", ORACLES,
           "if size > 1 and any(rec.failures for rec in recorders):", "if False:",
           CLASSES + (LEMMAS + "test_code_pair_walk_checks_each_table[length-7k]",
                      LEMMAS + "test_code_pair_walk_checks_each_table[length-7k-default]")),
    Mutant("second pass over the class starts only", ORACLES,
           "((x, y, 1) for x, y in _noncommuting_pairs(max_word_len))",
           "((x, y, 1) for x, y, _ in _code_classes(max_word_len))",
           CLASSES + (LEMMAS + "test_code_pair_walk_checks_each_table[length-7k]",
                      LEMMAS + "test_code_pair_walk_checks_each_table[length-7k-default]")),
    Mutant("class set without the reversed a/b swap", ORACLES,
           "(sx, sy), (sx[::-1], sy[::-1])}", "(sx, sy)}",
           (LEMMAS + "test_suite_case_counts_at_knob_6",
            LEMMAS + "test_suite_case_counts_at_knob_7",
            PIN + "[lemmas-7]")),
    # equivalent in every oracle result: without the x/y-swap images the
    # classes split into their orbits under the a/b swap and reversal.
    # Those still partition the pairs, and each is counted exactly by its
    # own size, by the argument of _code_pair_checks.  A failing code makes
    # the start of its orbit fail as it makes the start of its class fail,
    # so both walks go on to the same second pass.  Only the work differs:
    # the partition test and the spy on the checks see the extra starts.
    Mutant("class set without the x/y-swap images", ORACLES,
           "images |= {(gy, gx) for gx, gy in images}", "pass",
           (LEMMAS + "test_code_classes_partition_the_walk[2]",
            LEMMAS + "test_code_pair_pass_checks_each_clean_class_once[real]")),
    Mutant("letter-count groups with gcd 2 skipped", CODES,
           "p * nx + q * ny) == 1:", "p * nx + q * ny) <= 2:",
           (LEMMAS + "test_code_pair_tables_match_each_codes_own[2-4-6]",
            LEMMAS + "test_suite_case_counts_at_knob_7",
            CODE_TESTS + "test_expansion_table_matches_code_words",
            PIN + "[lemmas-7]", PIN + "[primitives-sweep]")),
]


def error(message: str):
    print(f"error: {message}")
    raise SystemExit(2)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def failed_ids(tree: Path, ids: tuple[str, ...]) -> set[str]:
    """Run the node ids in ``tree``; return those that failed or errored."""
    report = tree / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"--junitxml={report}", *ids],
                          cwd=tree, env=env, capture_output=True, text=True)
    if not report.exists():
        error(f"pytest wrote no report (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        node = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        ran.add(node)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node)
    if missing := set(ids) - ran:
        error(f"node ids not run: {sorted(missing)}\n{proc.stdout}{proc.stderr}")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", help="run only mutants whose name contains this")
    selection = parser.parse_args().k
    mutants = [m for m in MUTANTS if selection in m.name]
    if not mutants:
        error(f"no mutant's name contains {selection!r}")
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.fragment)
        if count != 1:
            error(f"{m.name!r}: fragment occurs {count} times in {m.path}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch, "base")
        copy_tree(base)
        ids = tuple(dict.fromkeys(i for m in mutants for i in m.must_fail))
        if failing := failed_ids(base, ids):
            error(f"the unmutated copy fails {sorted(failing)}")
        survived = 0
        for n, m in enumerate(mutants):
            tree = Path(scratch, f"mutant{n}")
            copy_tree(tree)
            source = tree / m.path
            source.write_text(source.read_text().replace(m.fragment, m.replacement))
            missed = set(m.must_fail) - failed_ids(tree, m.must_fail)
            survived += bool(missed)
            print(f"{'survived' if missed else 'caught':8}  {m.name}"
                  + "".join(f"\n          passed: {i}" for i in sorted(missed)))
            shutil.rmtree(tree)
    print(f"{len(mutants) - survived} of {len(mutants)} caught in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
