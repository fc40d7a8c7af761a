import math
from collections import Counter

import pytest

from wordeq import codes, oracles
from wordeq.codes import BinaryCode, ImprimitiveSet, PowerShape, imprimitive_code_words
from wordeq.words import (
    ConjugacyDecomposition,
    ParameterError,
    border_table,
    commutes,
    exponent,
    power_factors,
    transfer_decomposition,
)
from wordeq.oracles import (
    check_aligned_prefix_difference,
    check_aligned_suffix_difference,
    check_code_prefix_bound,
    check_code_suffix_bound,
    check_conjugacy_transfer,
    check_cross_set,
    check_imprimitive_conjugacy,
    check_imprimitive_set_shape,
    check_overlap_commutation,
    check_periodicity_lemma,
    check_power_shape,
    check_prefix_power_absorption,
    check_short_prefix_absorption,
    check_straddling_factor_commutation,
    run_lemma_suite,
)
import support
from support import (
    grouped_factor_pair_checks,
    naive_absorption_checks,
    naive_code_bounds,
    naive_code_pair_checks,
    naive_conjugacy_transfer,
    naive_cross_set,
    naive_factor_pair_checks,
    naive_head_clashes,
    naive_imprimitive_code_words,
    naive_overlap_commutation,
    naive_periodicity_lemma,
    naive_tail_clashes,
)

# the individual checks at reduced ranges keep this module quick; the
# acceptance suite runs the full documented ranges once


@pytest.mark.parametrize(
    "oracle, kwargs",
    [
        (check_periodicity_lemma, {"max_root_len": 4}),
        (check_code_prefix_bound, {"max_xy_total": 6, "max_code_len": 3}),
        (check_code_suffix_bound, {"max_xy_total": 6, "max_code_len": 3}),
        (check_overlap_commutation, {"max_word_len": 8}),
        (check_conjugacy_transfer, {"max_u_len": 4, "max_z_len": 6}),
        (check_cross_set, {"max_word_len": 3, "max_exp": 5}),
        (check_imprimitive_conjugacy, {"max_word_len": 3, "max_code_len": 4}),
        (check_imprimitive_set_shape, {"max_word_len": 3, "max_code_len": 4}),
        (check_power_shape, {"max_word_len": 3, "max_code_len": 4}),
        (check_prefix_power_absorption, {"max_word_len": 3, "max_exp": 3}),
        (check_short_prefix_absorption, {"max_word_len": 3, "max_exp": 3}),
        (check_straddling_factor_commutation, {"max_v_len": 3, "max_exp": 3}),
        (check_aligned_prefix_difference, {"max_v_len": 3, "max_exp": 3}),
        (check_aligned_suffix_difference, {"max_v_len": 3, "max_exp": 3}),
    ],
)
def test_oracle_passes(oracle, kwargs):
    result = oracle(**kwargs)
    assert result.passed, result.failures
    assert result.cases > 0


def test_suite_shape():
    results = run_lemma_suite(3)
    assert len(results) == 14
    names = [r.name for r in results]
    assert len(set(names)) == 14
    assert all(r.passed for r in results)


def test_default_suite_is_each_check_at_its_defaults():
    # the default knob derives every check's own default ranges, in suite order
    checks = [
        check_periodicity_lemma,
        check_code_prefix_bound,
        check_code_suffix_bound,
        check_overlap_commutation,
        check_conjugacy_transfer,
        check_cross_set,
        check_imprimitive_conjugacy,
        check_imprimitive_set_shape,
        check_power_shape,
        check_prefix_power_absorption,
        check_short_prefix_absorption,
        check_straddling_factor_commutation,
        check_aligned_prefix_difference,
        check_aligned_suffix_difference,
    ]
    assert run_lemma_suite() == [check() for check in checks]


def test_suite_case_counts_at_knob_5():
    # the mirrored oracles share their scan with the prefix ones and
    # must still count exactly the cases of their own statement
    assert [r.cases for r in run_lemma_suite(5)] == [
        413, 60270, 60270, 1106, 210, 170, 106, 170, 100, 438, 1530, 976, 698, 698,
    ]


@pytest.mark.parametrize("oracle, side", [
    (check_code_prefix_bound, "prefix"),
    (check_code_suffix_bound, "suffix"),
])
def test_code_bound_records_first_failures(monkeypatch, oracle, side):
    # 9 clashes counted for the pair ('a', 'ab') fail both bounds: the
    # prefix side names the pair itself, the suffix side its reversal
    passing = oracle(max_xy_total=4, max_code_len=2)
    monkeypatch.setattr(oracles, "_head_clashes",
                        lambda x, y, limit, code_len: 9 if (x, y) == ("a", "ab") else 0)
    failing = oracle(max_xy_total=4, max_code_len=2)
    assert failing.cases == passing.cases
    y = "ab" if side == "prefix" else "ba"
    assert failing.failures == (f"x='a' y={y!r}: common {side} reaches 3",) * 3


@pytest.mark.parametrize("clashing", ["prefix", "suffix"])
def test_joint_code_bound_pass_keeps_the_twins_apart(monkeypatch, clashing):
    # one pass counts both code bounds from one count per pair: a clash
    # on a pair comparable on one side must fail that side on the pair
    # and its swap, and the other side only on their reversals
    x, y = ("a", "ab") if clashing == "prefix" else ("b", "ab")
    other = "suffix" if clashing == "prefix" else "prefix"
    counted = (x, y) if clashing == "prefix" else (x[::-1], y[::-1])
    passing = oracles._code_bounds(4, 2)
    monkeypatch.setattr(oracles, "_head_clashes",
                        lambda *args: 1 if args[:2] == counted else 0)
    results = dict(zip(("prefix", "suffix"), oracles._code_bounds(4, 2)))

    def named(side, x, y):
        return (f"x={x!r} y={y!r}: common {side} reaches 3",
                f"x={y!r} y={x!r}: common {side} reaches 3")

    for before, (side, after) in zip(passing, results.items()):
        assert after.name == before.name == f"code-{side}-bound"
        assert after.cases == before.cases > 0
    assert results[clashing].failures == named(clashing, x, y)
    assert results[other].failures == named(other, x[::-1], y[::-1])


@pytest.mark.parametrize("max_xy_total", range(0, 10))
def test_code_bounds_walk_only_the_comparable_pairs(monkeypatch, max_xy_total):
    # with one clash per call and every failure kept, each side's
    # failures list the comparable pairs, and _head_clashes sees each
    # pair (x, xw) once, in walk order
    calls = []

    def one_clash(x, y, limit, code_len):
        calls.append((x, y, limit))
        return 1

    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "_head_clashes", one_clash)
    prefix, suffix = oracles._code_bounds(max_xy_total, 2)
    pairs = [(x, y) for x in support.words_up_to(max_xy_total - 1)
             for y in support.words_up_to(max_xy_total - len(x)) if x + y != y + x]
    want = {"prefix": [], "suffix": []}
    for x, y in pairs:
        limit = len(x) + len(y)
        if x.startswith(y) or y.startswith(x):
            want["prefix"].append(f"x={x!r} y={y!r}: common prefix reaches {limit}")
        if x.endswith(y) or y.endswith(x):
            want["suffix"].append(f"x={x!r} y={y!r}: common suffix reaches {limit}")
    assert list(prefix.failures) == want["prefix"]
    assert list(suffix.failures) == want["suffix"]
    assert calls == [(x, y, len(x) + len(y)) for x, y in pairs if y.startswith(x)]
    assert prefix.cases == suffix.cases == 9 * len(pairs)
    assert (max_xy_total >= 3) == bool(calls)


@pytest.mark.parametrize("max_xy_total", range(1, 10))
@pytest.mark.parametrize("max_code_len", range(0, 6))
def test_code_bounds_match_the_full_table(max_xy_total, max_code_len):
    assert oracles._code_bounds(max_xy_total, max_code_len) == naive_code_bounds(
        max_xy_total, max_code_len
    )


def test_head_clashes_match_a_pair_count():
    # at limit |x|+|y| every count is 0 (the lemma itself), so the full
    # table cannot catch a wrong swap or reversal symmetry; shorter
    # limits can
    heads = tails = 0
    for x, y in oracles._noncommuting_pairs(4):
        for limit in range(1, len(x) + len(y) + 1):
            for code_len in range(1, 6):
                case = (x, y, limit, code_len)
                clashes = oracles._head_clashes(x, y, limit, code_len)
                assert clashes == naive_head_clashes(x, y, limit, code_len), case
                assert oracles._head_clashes(y, x, limit, code_len) == clashes, case
                mirrored = oracles._head_clashes(x[::-1], y[::-1], limit, code_len)
                assert naive_tail_clashes(x, y, limit, code_len) == mirrored, case
                heads += clashes > 0
                tails += mirrored > 0
    assert heads > 0 and tails > 0


@pytest.mark.parametrize("max_u_len", range(0, 6))
@pytest.mark.parametrize("max_z_len", range(-1, 9))
def test_conjugacy_transfer_matches_the_full_scan(max_u_len, max_z_len):
    assert check_conjugacy_transfer(max_u_len, max_z_len) == naive_conjugacy_transfer(
        max_u_len, max_z_len
    )


@pytest.mark.parametrize("max_root_len", range(2, 7))
def test_periodicity_lemma_matches_the_pairwise_factor_sets(max_root_len):
    assert check_periodicity_lemma(max_root_len) == naive_periodicity_lemma(max_root_len)


def _absorption_passes(max_word_len, max_exp):
    return [check_prefix_power_absorption(max_word_len, max_exp),
            check_short_prefix_absorption(max_word_len, max_exp)]


@pytest.mark.parametrize("max_len", range(0, 6))
@pytest.mark.parametrize("max_exp", range(0, 5))
def test_power_factor_passes_match_the_separate_scans(max_len, max_exp):
    assert _absorption_passes(max_len, max_exp) == naive_absorption_checks(max_len, max_exp)
    assert oracles._factor_pair_checks(max_len, max_exp) == naive_factor_pair_checks(max_len, max_exp)


def _assert_same_verdicts(got, want):
    # the passes visit cases in another order, so compare failures sorted;
    # each oracle must fail some cases and pass others
    for g, w in zip(got, want, strict=True):
        assert (g.name, g.cases) == (w.name, w.cases)
        assert sorted(g.failures) == sorted(w.failures)
        assert 0 < len(g.failures) < g.cases


# wrong commutation tests that depend only on lengths and letter counts,
# so they answer reversed words as the mirrored reference scan expects
WRONG_COMMUTES = [
    lambda x, y: len(x) % 2 == 0,
    lambda x, y: x.count("a") <= y.count("a"),
    lambda x, y: len(x) != len(y),
]


@pytest.mark.parametrize("wrong", WRONG_COMMUTES)
def test_factor_pair_pass_checks_each_statement(monkeypatch, wrong):
    # with every failure kept, a broken commutation test must fail each
    # oracle on exactly the cases where its own statement reads it
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "commutes", wrong)
    monkeypatch.setattr(support, "commutes", wrong)
    _assert_same_verdicts(oracles._factor_pair_checks(4, 3), naive_factor_pair_checks(4, 3))


@pytest.mark.parametrize("kept", [oracles.MAX_RECORDED_FAILURES, 10 ** 9], ids=["default", "all"])
@pytest.mark.parametrize("max_v_len, max_exp", [(3, 3), (4, 3), (5, 4)])
@pytest.mark.parametrize("wrong", [*WRONG_COMMUTES, lambda x, y: x[:1] != "b"])
def test_factor_pair_pass_keeps_the_grouped_walks_failures(monkeypatch, wrong, max_v_len, max_exp,
                                                           kept):
    # a failing key stands for all its |u| cases: the pass must keep the
    # same failures, in the same order, as the walk over every case
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", kept)
    monkeypatch.setattr(oracles, "commutes", wrong)
    monkeypatch.setattr(support, "commutes", wrong)
    got = oracles._factor_pair_checks(max_v_len, max_exp)
    assert got == grouped_factor_pair_checks(max_v_len, max_exp)
    assert all(min(kept, 3) <= len(r.failures) < r.cases for r in got)


@pytest.mark.parametrize("max_exp", [1, 2, 3])
def test_factor_pair_pass_decides_each_key_once(monkeypatch, max_exp):
    # per (v, i), commutes is called once for each ordered pair of starts
    # with equal |v|-letter windows (straddling, on its end pair) and once
    # more for each such pair with a <= b (prefix) and with a >= b
    # (suffix), whose front and tail hypotheses always hold: 2 P + D
    # calls for P pairs, D of them on the diagonal, and none per |u|
    def calls_per_v(top_exp):
        calls = Counter()

        def spy(x, y):
            calls[y] += 1
            return commutes(x, y)

        monkeypatch.setattr(oracles, "commutes", spy)
        oracles._factor_pair_checks(4, top_exp)
        return calls

    got = calls_per_v(max_exp)
    got.subtract(calls_per_v(max_exp - 1))
    want = Counter()
    for v in support.words_up_to(4):
        s, m = v * max_exp, len(v)
        starts = range(len(s) - m + 1)
        pairs = sum(s[a:a + m] == s[b:b + m] for a in starts for b in starts)
        want[v] = 2 * pairs + len(starts)
    assert got == want


@pytest.mark.parametrize("wrong", [lambda w: w, lambda w: w[:1], lambda w: w[::-1]])
def test_absorption_pass_checks_each_statement(monkeypatch, wrong):
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "primitive_root", wrong)
    monkeypatch.setattr(support, "primitive_root", wrong)
    _assert_same_verdicts(_absorption_passes(4, 3), naive_absorption_checks(4, 3))


def _occurrences(v, s):
    return sum(s[a:a + len(v)] == v for a in range(len(s) - len(v) + 1))


@pytest.mark.parametrize("max_len", range(0, 6))
def test_absorbed_words_start_with_their_front(monkeypatch, max_len):
    # _absorbed does not test w.startswith(t): every call passes a word
    # that starts with its front, once per occurrence of v that each
    # statement reads: v in z v^i for every suffix z of v, and v in v^i
    absorbed = oracles._absorbed
    calls = empty_front_calls = 0

    def spy(w, t, root):
        nonlocal calls, empty_front_calls
        calls += 1
        empty_front_calls += t == ""
        assert w.startswith(t), (w, t)
        return absorbed(w, t, root)

    monkeypatch.setattr(oracles, "_absorbed", spy)
    in_suffix_fronts = in_powers = 0
    for v in support.words_up_to(max_len):
        for i in range(1, 4):
            in_powers += _occurrences(v, v * i)
            in_suffix_fronts += sum(_occurrences(v, v[cut:] + v * i) for cut in range(len(v) + 1))
    check_prefix_power_absorption(max_len, 3)
    assert calls == in_suffix_fronts
    assert empty_front_calls == in_powers  # z = ""
    # the short-prefix calls, all with t = "", are one scan of each v^i,
    # however many fronts the cases are counted for
    calls = empty_front_calls = 0
    short = check_short_prefix_absorption(max_len, 3)
    fronts = len(list(support.words_up_to(max_len, min_len=0)))
    assert calls == empty_front_calls == in_powers
    assert short.cases == fronts * in_powers


@pytest.mark.parametrize("max_exp", range(1, 6))
def test_absorption_pass_counts_each_exponent(monkeypatch, max_exp):
    # a scan per exponent: a wrong root must fail the same cases as the
    # reference, in its order, on both sides; the short-prefix failures
    # of one v^i are named once per front; at i = 1 the only
    # short-prefix case is w = t, which nothing fails
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "primitive_root", lambda w: w[:1])
    monkeypatch.setattr(support, "primitive_root", lambda w: w[:1])
    got, want = _absorption_passes(3, max_exp), naive_absorption_checks(3, max_exp)
    assert got == want
    assert 0 < len(got[0].failures) < got[0].cases
    assert len(got[1].failures) < got[1].cases and (max_exp == 1) == (not got[1].failures)


def _swap_seed_on_odd_z(u, z, v):
    d = transfer_decomposition(u, z, v)
    return ConjugacyDecomposition(d.tau, d.sigma, d.ell, d.m) if len(z) % 2 else d


def _one_more_turn_on_powers(u, z, v):
    d = transfer_decomposition(u, z, v)
    return ConjugacyDecomposition(d.sigma, d.tau, d.ell + 1, d.m) if d.m > 1 else d


@pytest.mark.parametrize("wrong", [_swap_seed_on_odd_z, _one_more_turn_on_powers])
def test_conjugacy_transfer_walk_checks_each_case(monkeypatch, wrong):
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "transfer_decomposition", wrong)
    monkeypatch.setattr(support, "transfer_decomposition", wrong)
    _assert_same_verdicts([check_conjugacy_transfer(5, 8)], [naive_conjugacy_transfer(5, 8)])


def _empty_seed(u, z, v):
    d = transfer_decomposition(u, z, v)
    return ConjugacyDecomposition("", "", d.ell, d.m)


def test_conjugacy_transfer_records_an_empty_seed(monkeypatch):
    # a broken decomposition is a failed case, not a division by |seed| = 0
    real = check_conjugacy_transfer(2, 2)
    monkeypatch.setattr(oracles, "transfer_decomposition", _empty_seed)
    got = check_conjugacy_transfer(2, 2)
    assert not got.passed and got.cases == real.cases


@pytest.mark.parametrize("max_word_len", range(0, 13))
def test_overlap_commutation_matches_the_cut_scan(max_word_len):
    assert check_overlap_commutation(max_word_len) == naive_overlap_commutation(max_word_len)


# the cuts 0 and |s| are counted in closed form, so each wrong test
# keeps the empty word commuting with everything
@pytest.mark.parametrize("wrong", [
    lambda x, y: not x or not y or len(x) % 2 == 0,
    lambda x, y: not x or not y or x.count("a") <= y.count("a"),
    lambda x, y: not x or not y or len(x) != len(y),
])
def test_overlap_commutation_checks_each_cut(monkeypatch, wrong):
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "commutes", wrong)
    monkeypatch.setattr(support, "commutes", wrong)
    got, want = check_overlap_commutation(8), naive_overlap_commutation(8)
    _assert_same_verdicts([got], [want])
    assert got.failures == want.failures  # cuts in ascending order, as the scan visits them


def test_overlap_walk_meets_each_proper_cut_once(monkeypatch):
    # the period walk must call commutes on exactly the proper cuts the
    # full scan finds, each once
    seen = []

    def spy(s1, s2):
        seen.append((s1, s2))
        return commutes(s1, s2)

    monkeypatch.setattr(oracles, "commutes", spy)
    check_overlap_commutation(10)
    proper = [(s[:cut], s[cut:]) for s in support.words_up_to(10)
              for cut in range(1, len(s)) if s.endswith(s[:cut]) and s.startswith(s[cut:])]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(proper)


def _chain_cuts(table_of, max_word_len):
    # proper cuts c with c and |s| - c both on the border chain
    # |s|, table[|s| - 1], ..., 0 read from table_of(s)
    cuts = []
    for s in support.words_up_to(max_word_len):
        table, borders = table_of(s), [len(s)]
        while borders[-1]:
            borders.append(table[borders[-1] - 1])
        cuts += [(s[:c], s[c:]) for c in range(1, len(s)) if c in borders and len(s) - c in borders]
    return cuts


def _drop_last_chain_step(w):
    # the shortest non-empty border of every prefix is read as none
    table = border_table(w)
    return [t if t and table[t - 1] else 0 for t in table]


@pytest.mark.parametrize("wrong", [_drop_last_chain_step, lambda w: [0] * len(w)])
def test_overlap_cases_come_from_the_whole_border_chain(monkeypatch, wrong):
    # the walk meets the cuts of the whole chain; a chain cut short misses some
    seen = []

    def spy(s1, s2):
        seen.append((s1, s2))
        return commutes(s1, s2)

    monkeypatch.setattr(oracles, "commutes", spy)
    got = check_overlap_commutation(8)
    whole = _chain_cuts(border_table, 8)
    assert sorted(seen) == sorted(whole)
    assert got.cases == 2 * sum(1 for _ in support.words_up_to(8)) + len(whole)
    assert set(_chain_cuts(wrong, 8)) < set(whole)


@pytest.mark.parametrize("wrong", [
    lambda p, n: {"".join(sorted(p)) + str(n)},
    lambda p, n: power_factors(p, max(0, n - 1)),
])
def test_periodicity_lemma_reads_each_factor_set(monkeypatch, wrong):
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    monkeypatch.setattr(oracles, "power_factors", wrong)
    monkeypatch.setattr(support, "power_factors", wrong)
    got, want = check_periodicity_lemma(5), naive_periodicity_lemma(5)
    _assert_same_verdicts([got], [want])
    assert got.failures == want.failures  # member pairs in the order of a walk over every pair


def test_periodicity_lemma_records_an_unmet_sharp_bound(monkeypatch):
    # up to 4 letters no two necklaces share a letter multiset, so under this
    # stand-in no pair shares a factor and the sharp bound is the only failure
    def letter_multiset(p, n):
        return {"".join(sorted(p)) + str(n)}

    monkeypatch.setattr(oracles, "power_factors", letter_multiset)
    monkeypatch.setattr(support, "power_factors", letter_multiset)
    got = check_periodicity_lemma(4)
    assert got == naive_periodicity_lemma(4)
    assert got.failures == ("no non-conjugate pair attains a common factor of length |p|+|q|-2",)


@pytest.mark.parametrize("max_root_len", [0, 1])
def test_periodicity_lemma_needs_roots_of_length_two(max_root_len):
    # no pair of roots shorter than 2 can witness the sharp bound
    with pytest.raises(ParameterError):
        check_periodicity_lemma(max_root_len)


@pytest.mark.parametrize("max_word_len", [0, 1])
def test_cross_set_needs_an_exponent(max_word_len):
    # refused whether or not any code pair exists to try the exponent on
    with pytest.raises(ParameterError, match="max_exp must be >= 1"):
        check_cross_set(max_word_len, 0)


def test_suite_case_counts_at_knob_6():
    assert [r.cases for r in run_lemma_suite(6)] == [
        2483, 672750, 672750, 4262, 496, 842, 510, 842, 588, 1158, 6882, 3148, 2272, 2272,
    ]


def test_suite_case_counts_at_knob_7():
    assert [r.cases for r in run_lemma_suite(7)] == [
        10691, 6782738, 6782738, 16698, 1134, 3738, 1448, 3738, 1592, 2634, 27594, 8364, 6288, 6288,
    ]


@pytest.mark.parametrize("max_word_len, max_exp, max_code_len", [
    (0, 3, 3), (1, 1, 1), (2, 4, 6), (3, 5, 4), (3, 1, 7), (4, 6, 5), (4, 2, 0),
])
def test_code_pair_tables_match_each_codes_own(monkeypatch, max_word_len, max_exp, max_code_len):
    # the walk checks the first member of each class, with the table and
    # the cross-set hits that the code computes for itself
    read = []
    real = oracles._check_code

    def spy(code, table, hits, *args):
        read.append((code.x, code.y, table, hits))
        return real(code, table, hits, *args)

    monkeypatch.setattr(oracles, "_check_code", spy)
    assert all(r.passed for r in oracles._code_pair_checks(max_word_len, max_exp, max_code_len))
    assert [(x, y) for x, y, _, _ in read] == [members[0] for members in _symmetry_classes(max_word_len)]
    for x, y, table, hits in read:
        code = BinaryCode(x, y)
        assert table == naive_imprimitive_code_words(code, max_code_len), code
        assert hits == naive_cross_set(code, max_exp), code


def test_letter_count_groups_only_skip(monkeypatch):
    # with no group skipped the tables are the same; skipping the groups
    # whose counts have gcd 2 as well loses squares
    groups = codes.letter_count_groups(codes.lyndon_words(7))
    pairs = list(oracles._noncommuting_pairs(4))
    want = [oracles.imprimitive_table(x, y, groups) for x, y in pairs]
    monkeypatch.setattr(codes, "gcd", lambda *counts: 0)
    assert [oracles.imprimitive_table(x, y, groups) for x, y in pairs] == want
    monkeypatch.setattr(codes, "gcd", lambda *counts: 1 if math.gcd(*counts) == 2 else math.gcd(*counts))
    assert [oracles.imprimitive_table(x, y, groups) for x, y in pairs] != want


def _cyclic_factor_test(p):
    """A wrong power test: 2 when the expansion, read cyclically, has p or an image of p."""
    ab = str.maketrans("ab", "ba")
    factors = {p, p[::-1], p.translate(ab), p[::-1].translate(ab)}
    n = len(p)
    return lambda w: 2 if len(w) >= n and any(f in w + w[:n - 1] for f in factors) else exponent(w)


# wrong power tests that answer alike for the rotations of an expansion,
# its reversal and its a/b swap, so for the rotations of a code word and
# for the images of a code under the three symmetries: the walk may
# share them across a necklace and a symmetry class.  A wrong test
# without that invariance makes the walk and the reference differ by
# design.  So does one that calls a word an m-th power although m does
# not divide its letter counts, unless the walk's letter-count filter is
# switched off (_without_letter_count_filter), as the walk tests do.
# Binary necklaces of fewer than six letters are each a rotation of their
# reversal, so the code length must reach 6 before a test (the cyclic
# factor here) can see whether the walk reverses a table.
WRONG_POWER_TESTS = {
    "length-8k": lambda w: 2 if len(w) % 8 == 0 else exponent(w),
    "length-7k": lambda w: 2 if len(w) % 7 == 0 else exponent(w),
    "length-6": lambda w: 3 if len(w) == 6 else exponent(w),
    "balanced": lambda w: 2 if w.count("a") == w.count("b") else exponent(w),
    "cyclic-factor": _cyclic_factor_test("aabaabba"),
}


def _without_letter_count_filter(monkeypatch):
    """Let imprimitive_table expand every word: no letter-count group has gcd 1.

    The filter is sound for a true power test, which
    test_letter_count_groups_only_skip and the table tests check.
    """
    monkeypatch.setattr(codes, "gcd", lambda *counts: 0)


@pytest.mark.parametrize(
    "wrong, kept",
    [(w, 10 ** 9) for w in WRONG_POWER_TESTS.values()]
    + [(w, oracles.MAX_RECORDED_FAILURES) for w in WRONG_POWER_TESTS.values()],
    ids=[*WRONG_POWER_TESTS, *(f"{name}-default" for name in WRONG_POWER_TESTS)],
)
def test_code_pair_walk_checks_each_table(monkeypatch, wrong, kept):
    # with every failure kept and with the default cap, the four oracles
    # must give what a walk that checks every code with its own naive
    # table gives: the same counts and failures, in order
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", kept)
    _without_letter_count_filter(monkeypatch)
    monkeypatch.setattr(codes, "exponent", wrong)
    monkeypatch.setattr(support, "naive_exponent", wrong)
    got = oracles._code_pair_checks(4, 6, 6)
    assert got == naive_code_pair_checks(4, 6, 6)
    assert all(0 < len(r.failures) < r.cases for r in got)


@pytest.mark.parametrize("max_word_len, max_exp, max_code_len", list(dict.fromkeys(
    [(w, 6, c) for w in range(5) for c in range(6)]
    + [(max(1, n - 2), max(1, n), max(2, n - 1)) for n in range(1, 7)])))
def test_code_pair_walk_matches_every_codes_own_scan(max_word_len, max_exp, max_code_len):
    # under the real power test, with the letter-count filter on: word
    # caps 0-4, code caps 0-5 and the ranges of lemma knobs 1-6
    got = oracles._code_pair_checks(max_word_len, max_exp, max_code_len)
    assert got == naive_code_pair_checks(max_word_len, max_exp, max_code_len)
    assert all(r.passed for r in got)


def _symmetry_classes(max_word_len):
    """The code pairs in classes under the a/b swap, reversal and the x/y swap, in walk order."""
    ab = str.maketrans("ab", "ba")
    classes = {}
    for x, y in oracles._noncommuting_pairs(max_word_len):
        images = set()
        for gx, gy in ((x, y), (x[::-1], y[::-1])):
            for hx, hy in ((gx, gy), (gx.translate(ab), gy.translate(ab))):
                images |= {(hx, hy), (hy, hx)}
        classes.setdefault(min(images), []).append((x, y))
    return list(classes.values())


@pytest.mark.parametrize("max_word_len", range(6))
def test_code_classes_partition_the_walk(max_word_len):
    # each pair's class is the set of members of the class that holds
    # it, and the class sizes add up to every pair of the walk
    classes = _symmetry_classes(max_word_len)
    for members in classes:
        for x, y in members:
            assert oracles._symmetry_class(x, y) == set(members), (x, y)
    sizes = [len(oracles._symmetry_class(*members[0])) for members in classes]
    assert sum(sizes) == len(list(oracles._noncommuting_pairs(max_word_len)))


@pytest.mark.parametrize("power_test", [exponent, WRONG_POWER_TESTS["length-8k"]], ids=["real", "length-8k"])
def test_code_pair_pass_checks_each_clean_class_once(monkeypatch, power_test):
    # the first member of each class is checked until one fails; from
    # then on every later code is checked that no clean class counted
    _without_letter_count_filter(monkeypatch)
    monkeypatch.setattr(codes, "exponent", power_test)
    monkeypatch.setattr(support, "naive_exponent", power_test)
    starts = [members[0] for members in _symmetry_classes(4)]
    pairs = list(oracles._noncommuting_pairs(4))
    want = starts
    for n, (x, y) in enumerate(starts):
        code = BinaryCode(x, y)
        recorders = [oracles._Recorder() for _ in range(4)]
        table, hits = naive_imprimitive_code_words(code, 6), naive_cross_set(code, 6)
        oracles._check_code(code, table, hits, *recorders)
        if any(rec.failures for rec in recorders):
            counted = {p for members in _symmetry_classes(4) if members[0] in starts[:n] for p in members}
            want = starts[:n + 1] + [p for p in pairs[pairs.index((x, y)) + 1:] if p not in counted]
            break
    checked = []
    real = oracles.classify_imprimitive_set

    def spy(code, table):
        checked.append((code.x, code.y))
        return real(code, table)

    monkeypatch.setattr(oracles, "classify_imprimitive_set", spy)
    oracles._code_pair_checks(4, 6, 6)
    assert checked == want
    if power_test is exponent:
        assert len(checked) == len(starts) < len(pairs)
    else:
        assert len(starts) < len(checked) < len(pairs)


def test_cyclic_factor_test_tells_a_table_from_its_reversal(monkeypatch):
    # some failing code has a table unlike its reversal's, so the exact
    # comparison with the per-code walk would catch a walk that checked a
    # class member with its class's table
    _without_letter_count_filter(monkeypatch)
    monkeypatch.setattr(codes, "exponent", WRONG_POWER_TESTS["cyclic-factor"])
    chiral = 0
    for x, y in oracles._noncommuting_pairs(4):
        code = BinaryCode(x, y)
        table = imprimitive_code_words(code, 6)
        mirrored = imprimitive_code_words(BinaryCode(x[::-1], y[::-1]), 6)
        assert sorted(w[::-1] for w, _ in table) == sorted(w for w, _ in mirrored)
        recorders = [oracles._Recorder() for _ in range(4)]
        oracles._check_code(code, table, [], *recorders)
        chiral += sorted(table) != sorted(mirrored) and any(rec.failures for rec in recorders)
    assert chiral > 0


def test_cross_set_failures_list_each_codes_own_hits(monkeypatch):
    # a class's members have as many hits, but the x/y swap moves them
    # between x^n y and x y^n: each failing code lists its own
    monkeypatch.setattr(oracles, "MAX_RECORDED_FAILURES", 10 ** 9)
    wrong = WRONG_POWER_TESTS["length-7k"]
    monkeypatch.setattr(codes, "exponent", wrong)
    monkeypatch.setattr(support, "naive_exponent", wrong)
    got = check_cross_set(4, 6)
    own = {(x, y): naive_cross_set(BinaryCode(x, y), 6) for x, y in oracles._noncommuting_pairs(4)}
    want = [f"x={x!r} y={y!r}: {hits}" for (x, y), hits in own.items() if len(hits) > 1]
    assert list(got.failures) == want
    assert 0 < len(want) < got.cases
    assert own[("a", "bbb")] == ["xyy", "xxxxy"] and own[("bbb", "a")] == ["xxy", "xyyyy"]


def test_folded_code_word_pass_keeps_oracles_apart(monkeypatch):
    # a wrong power shape must fail power-shape alone; the other two
    # oracles read the same table and must not move
    honest = run_lemma_suite(5)
    monkeypatch.setattr(oracles, "classify_x_power", lambda c, i: PowerShape("x", 9, 9))
    broken = run_lemma_suite(5)
    for before, after in zip(honest, broken):
        if before.name == "power-shape":
            assert after.cases == before.cases > 0
            assert not after.passed and len(after.failures) == 3
        else:
            assert after == before


def test_violated_power_shape_lemma_is_recorded(monkeypatch, capsys):
    # a word breaking the lemma makes classify_x_power raise; the suite
    # must record that on power-shape and go on, not crash
    from wordeq import cli

    honest = run_lemma_suite(5)

    def violated(c, i):
        raise RuntimeError(f"power-shape violation: {c.letters}")

    monkeypatch.setattr(oracles, "classify_x_power", violated)
    broken = run_lemma_suite(5)
    for before, after in zip(honest, broken):
        if before.name == "power-shape":
            assert after.cases == before.cases > 0
            assert not after.passed and len(after.failures) <= 3
            assert after.failures[0].startswith("power-shape violation: ")
        else:
            assert after == before
    assert cli.main(["lemmas", "--max-len", "5"]) == 3
    assert "power-shape violated" in capsys.readouterr().err


def test_set_shape_failure_describes_the_classified_set(monkeypatch):
    # the description of a failing set is built only on failure, as the
    # set's JSON object
    wrong = ImprimitiveSet("x-centered", 2, ())
    monkeypatch.setattr(oracles, "classify_imprimitive_set", lambda code, table: wrong)
    result = check_imprimitive_set_shape(max_word_len=2, max_code_len=3)
    assert result.cases == 26
    assert result.failures == (
        "x='a' y='b': {'shape': 'x-centered', 'k': 2, 'members': []}",
        "x='a' y='ab': {'shape': 'x-centered', 'k': 2, 'members': []}",
        "x='a' y='ba': {'shape': 'x-centered', 'k': 2, 'members': []}",
    )


def test_code_word_oracles_at_code_length_one():
    # one-letter code words: the set-shape oracle needs length 2 to see a
    # member and refuses; the other two still scan the code letters
    with pytest.raises(ValueError):
        check_imprimitive_set_shape(max_word_len=3, max_code_len=1)
    conjugacy = check_imprimitive_conjugacy(max_word_len=3, max_code_len=1)
    power = check_power_shape(max_word_len=3, max_code_len=1)
    assert (conjugacy.cases, conjugacy.passed) == (88, True)
    assert (power.cases, power.passed) == (88, True)


def test_suite_rejects_bad_knob():
    with pytest.raises(ValueError):
        run_lemma_suite(0)


def test_cross_set_hit_is_detected():
    # the oracle must actually exercise codes where the single
    # imprimitive cross-set word exists
    result = check_cross_set(max_word_len=4, max_exp=6)
    assert result.passed
    from wordeq.codes import BinaryCode, imprimitive_in_cross_set

    assert len(imprimitive_in_cross_set(BinaryCode("aba", "baab"), 6)) == 1


def test_result_json_obj():
    result = check_overlap_commutation(max_word_len=4)
    obj = result.to_json_obj()
    assert obj["name"] == "overlap-commutation"
    assert obj["passed"] is True
    assert obj["failures"] == []
    assert obj["cases"] == result.cases
