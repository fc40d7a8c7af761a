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
CLI = "src/wordeq/cli.py"
CODES = "src/wordeq/codes.py"
EQUATIONS = "src/wordeq/equations.py"
FAMILIES = "src/wordeq/families.py"
ORACLES = "src/wordeq/oracles.py"
WORDS = "src/wordeq/words.py"
CLI_TESTS = "tests/test_cli.py::"
CODE_TESTS = "tests/test_codes.py::"
EQ = "tests/test_equations.py::"
FAMILY_TESTS = "tests/test_families.py::"
LEMMAS = "tests/test_lemma_oracles.py::"
RESULT_TESTS = "tests/test_result_types.py::"
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
LETTER_TEST = "if letters.strip(CODE_LETTERS):"
FAILED_CLASS = "if any(rec.failures for rec in recorders):\n            continue"
DEFAULTS = CLI_TESTS + "test_family_flags_left_out_take_their_defaults"
REFUSES = CLI_TESTS + "test_family_refuses_a_flag_it_does_not_read[family --family "
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
           'code-letter sequence."""\n        ' + LETTER_TEST, 'code-letter sequence."""\n        if False:',
           (CODE_TESTS + "test_expand_rejects_letters_outside_xy",)),
    # the constructor checks of the two result types that have them
    Mutant("code of commuting words accepted", CODES,
           "if commutes(x, y):", "if False:",
           (CODE_TESTS + "test_binary_code_rejects_commuting_or_empty",
            RESULT_TESTS + "test_constructor_checks_still_raise[commuting]")),
    Mutant("code word of letters outside xy accepted", CODES,
           "-> CodeWord:\n        " + LETTER_TEST, "-> CodeWord:\n        if False:",
           (CODE_TESTS + "test_code_word_expansion",
            RESULT_TESTS + "test_constructor_checks_still_raise[letter-z]")),
    # one check per symmetry class, counted by its size, and the letter-count groups
    Mutant("class size off by one", ORACLES,
           "others = _symmetry_class(x, y) - {(x, y)}", "others = _symmetry_class(x, y)",
           (LEMMAS + "test_suite_case_counts_at_knob_6",
            LEMMAS + "test_code_pair_walk_matches_every_codes_own_scan[4-6-5]",
            PIN + "[lemmas-7]")),
    Mutant("no second pass after a failing class", ORACLES,
           FAILED_CLASS, "if any(rec.failures for rec in recorders):\n            break",
           CLASSES + (LEMMAS + "test_code_pair_walk_checks_each_table[length-7k]",
                      LEMMAS + "test_code_pair_walk_checks_each_table[length-7k-default]")),
    Mutant("second pass over the class starts only", ORACLES,
           FAILED_CLASS,
           FAILED_CLASS.replace("continue", "counted |= _symmetry_class(x, y)\n            continue"),
           CLASSES + (LEMMAS + "test_code_pair_walk_checks_each_table[length-7k]",
                      LEMMAS + "test_code_pair_walk_checks_each_table[length-7k-default]")),
    Mutant("classes still counted whole after a failure", ORACLES,
           "\n        " + FAILED_CLASS, "",
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
    # own size, by the argument of _code_pair_checks.  The first failing
    # pair of the walk starts its orbit as it starts its class, so both
    # walks fail first at the same pair, and from there on each checks
    # every pair it has not counted; neither has counted a failing pair.
    # Only the work differs: the partition test and the spy on the checks
    # see the extra starts.
    Mutant("class set without the x/y-swap images", ORACLES,
           "return images | {(gy, gx) for gx, gy in images}", "return images",
           (LEMMAS + "test_code_classes_partition_the_walk[2]",
            LEMMAS + "test_code_pair_pass_checks_each_clean_class_once[real]")),
    Mutant("letter-count groups with gcd 2 skipped", CODES,
           "p * nx + q * ny) == 1:", "p * nx + q * ny) <= 2:",
           (LEMMAS + "test_code_pair_tables_match_each_codes_own[2-4-6]",
            LEMMAS + "test_suite_case_counts_at_knob_7",
            CODE_TESTS + "test_expansion_table_matches_code_words",
            PIN + "[lemmas-7]", PIN + "[primitives-sweep]")),
    # a code whose x holds the code letter y
    Mutant("expansion never takes the translate", CODES,
           'if "y" in x else None', "if False else None",
           (CODE_TESTS + "test_expansion_table_takes_code_letters_in_either_word",)),
    # the letter budget of a single family instance, read off its words function
    Mutant("letter budget one letter short", FAMILIES,
           "if letters > _MAX_LETTERS:", "if letters >= _MAX_LETTERS:",
           (FAMILY_TESTS + "test_family_builds_a_common_value_of_the_letter_budget[j2]",
            FAMILY_TESTS + "test_family_builds_a_common_value_of_the_letter_budget[i1k1]")),
    Mutant("budget reads the parameter lengths swapped", FAMILIES,
           "words(len(p), len(q), n)", "words(len(q), len(p), n)",
           (FAMILY_TESTS + "test_family_builds_a_common_value_of_the_letter_budget[j2]",
            FAMILY_TESTS + "test_family_builds_a_common_value_of_the_letter_budget[i1k1]",
            FAMILY_TESTS + "test_family_refuses_a_common_value_over_the_letter_budget[j2]",
            FAMILY_TESTS + "test_family_refuses_a_common_value_over_the_letter_budget[i1k1]")),
    # u and v from (q, p): the one certificate fails tests that read only counts and lengths
    Mutant("words built from swapped parameters", FAMILIES,
           "EquationInstance(exps, *words(p, q, n))",
           "EquationInstance(exps, *words(p, q, n)[:2], *words(q, p, n)[2:])",
           (FAMILY_TESTS + "test_grid_tiny",
            FAMILY_TESTS + "test_letter_budget_keeps_the_grids_instances")),
    # the CLI's one printer and its table of the flags each family reads
    Mutant("output format test inverted", CLI,
           'if args.format == "json" else', 'if args.format != "json" else',
           (CLI_TESTS + "test_lemmas_json", CLI_TESTS + "test_family_j2_json",
            CLI_TESTS + "test_solve_text_lists_each_witness", CLI_TESTS + "test_family_grid_text",
            PIN + "[verify-131-17]")),
    Mutant("j2 default k = 2", CLI,
           '"beta": None, "param_k": 1}', '"beta": None, "param_k": 2}',
           (DEFAULTS + "[j2-text]", DEFAULTS + "[j2-json]")),
    Mutant("grid default max-len 3", CLI,
           '"grid": {"max_len": 2,', '"grid": {"max_len": 3,',
           (DEFAULTS + "[grid-text]", DEFAULTS + "[grid-json]")),
    Mutant("foreign family flags read, not refused", CLI,
           "if getattr(args, name) is not None:", "if False:",
           (REFUSES + "j2 --alpha a --beta b --param-j 5---param-j]",
            REFUSES + "j2 --alpha a --beta b --gamma b---gamma]",
            REFUSES + "i1k1 --alpha ab --gamma b --param-k 4---param-k]",
            REFUSES + "i1k1 --alpha a --gamma b --max-len 3---max-len]",
            REFUSES + "grid --alpha zz---alpha]",
            REFUSES + "grid --beta b --param-k 2---beta]")),
    Mutant("commuting family words not mapped to exit 65", CLI,
           "    except CommutingParametersError as err:\n"
           '        print(f"{args.subparser.prog}: {err}", file=sys.stderr)\n'
           "        return EX_DATA\n", "",
           (CLI_TESTS + "test_family_commuting_parameters_exit_65",
            CLI_TESTS + "test_exit_code_with_several_invalid_arguments[family --family j2 --alpha a --beta aa-65]",
            PIN + "[j2-commuting]")),
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
