from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordeq import equations
from wordeq.equations import (
    EquationInstance,
    Exponents,
    SolutionReport,
    _first_meetings,
    _first_occurrence_labels,
    _mirror_classes,
    _mirror_is_less,
    _named,
    _residue_labels,
    _restricted_growth,
    _side_positions,
    _sides,
    _tuple_solutions,
    _union_positions,
    _word_tuple,
    canonical_instance,
    check,
    conjecture_scan,
    enumerate_solutions,
    forcing_verdict,
    is_periodic_solution,
    iter_solutions,
    split_even_j,
    theorem_applies,
)
from wordeq.families import family_i1k1, family_j2
from wordeq.words import ParameterError
from support import (
    listed_report,
    naive_least_relabelling,
    naive_orbit_minimum,
    naive_position_classes,
    naive_primitive_root,
    naive_solutions,
)


def make(exps, x, y, u, v):
    return EquationInstance(Exponents(*exps), x, y, u, v)


def test_check_examples():
    # both sides spell out the same 17-letter word
    inst = make((1, 3, 1), "aabbbaa", "b", "a", "abbba")
    assert inst.lhs() == "aabbbaabbbaabbbaa"
    assert check(inst)
    # 25 letters, from the j=2 boundary family at alpha=a, beta=b, k=1
    inst2 = make((2, 2, 1), "aaababa", "ba", "a", "ababaaaabab")
    assert len(inst2.lhs()) == 25
    assert check(inst2)
    # equal lengths but different content
    inst3 = make((2, 3, 1), "ab", "a", "a", "ab")
    assert inst3.lhs() != inst3.rhs()
    assert not check(inst3)


def test_is_periodic_solution():
    # exponents chosen so the all-powers-of-a quadruple is an identity
    assert is_periodic_solution(make((1, 2, 1), "aa", "a", "a", "aa"))
    assert not is_periodic_solution(make((1, 3, 1), "aabbbaa", "b", "a", "abbba"))
    # trivial solutions are periodic exactly when x and y commute
    assert not is_periodic_solution(make((1, 2, 1), "ab", "ba", "ab", "ba"))
    assert is_periodic_solution(make((1, 2, 1), "ab", "abab", "ab", "abab"))
    with pytest.raises(ValueError):
        is_periodic_solution(make((2, 3, 1), "ab", "a", "a", "ab"))


@pytest.mark.parametrize("exps", [(1, 2, 1), (2, 1, 1), (1, 1, 1)])
@pytest.mark.parametrize("allow_empty", [False, True])
def test_periodic_iff_one_primitive_root(exps, allow_empty):
    for inst in iter_solutions(exps, 3, 9, distinct_only=False, allow_empty=allow_empty):
        roots = {naive_primitive_root(w) for w in inst.words() if w}
        assert is_periodic_solution(inst) == (len(roots) <= 1), inst


def test_theorem_applies():
    assert theorem_applies(Exponents(2, 3, 1))
    assert not theorem_applies(Exponents(1, 3, 1))  # i + k = 2
    assert not theorem_applies(Exponents(2, 2, 1))  # j = 2
    assert not theorem_applies(Exponents(3, 3, 0))  # ik = 0


def test_search_argument_validation():
    with pytest.raises(ValueError):
        enumerate_solutions((2, 3, 1), 2, 5)  # bound below i + j + k
    with pytest.raises(ValueError):
        enumerate_solutions((2, 3, 1), 1, 18)  # alphabet too small
    with pytest.raises(ValueError):
        enumerate_solutions((0, 3, 0), 2, 18)  # u would be unconstrained
    with pytest.raises(ValueError):
        enumerate_solutions((2, 0, 1), 2, 18)  # v would be unconstrained
    with pytest.raises(ValueError):
        enumerate_solutions((2, -1, 1), 2, 18)
    with pytest.raises(ValueError):
        enumerate_solutions((2, 3, 1), 2, 18, shards=0)


@pytest.mark.parametrize("exps", [(1, 1, 1), (2, 1, 2), (0, 2, 1), (1, 2, 1)],
                         ids=lambda e: "-".join(map(str, e)))
def test_bound_below_i_j_k_with_empty_words(exps):
    # with empty words the shortest common value has one letter, not i + j + k
    for bound in range(1, sum(exps)):
        for distinct_only in (True, False):
            expected = naive_solutions(exps, 2, bound, distinct_only, allow_empty=True)
            got = {s.words() for s in iter_solutions(
                exps, 2, bound, distinct_only=distinct_only, allow_empty=True)}
            assert got == expected, (bound, distinct_only)
            report = enumerate_solutions(exps, 2, bound, distinct_only=distinct_only,
                                         allow_empty=True)
            total, orbits = listed_report(exps, 2, bound, distinct_only, allow_empty=True)
            assert report.total_solutions == total == len(expected), (bound, distinct_only)
            assert [inst.words() for inst in report.nonperiodic] == orbits
    with pytest.raises(ParameterError, match="need at least 1"):
        enumerate_solutions(exps, 2, 0, allow_empty=True)
    with pytest.raises(ParameterError, match="need at least 1"):
        next(iter_solutions(exps, 2, 0, allow_empty=True))


def test_iter_solutions_checks_its_parameters_at_the_call():
    # the call itself raises, before any solution is asked for; a
    # report's solutions property re-runs the same search the same way
    with pytest.raises(ParameterError, match="need at least 1"):
        iter_solutions((1, 1, 1), 2, 0, allow_empty=True)
    with pytest.raises(ParameterError, match="i \\+ j \\+ k = 3"):
        iter_solutions((1, 1, 1), 2, 2)
    with pytest.raises(ParameterError):
        iter_solutions((1, 0, 1), 2, 5)
    report = enumerate_solutions((1, 1, 1), 2, 3)
    with pytest.raises(ParameterError):
        SolutionReport(report.exps, report.alphabet_size, 0, report.total_solutions,
                       report.nonperiodic, report.distinct_only, report.allow_empty).solutions


def test_forcing_desk_scale_sample():
    verdict = forcing_verdict((2, 3, 1), 2, 18)
    assert verdict.forced_up_to_bound
    assert verdict.witnesses == ()
    assert verdict.report.total_solutions == 84


def test_nonforcing_at_boundary():
    # i + k = 2: the odd-j family gives a witness of total length 17
    report = enumerate_solutions((1, 3, 1), 2, 17)
    assert not report.periodic_only
    raw = {inst.words() for inst in report.solutions}
    assert ("aabbbaa", "b", "a", "abbba") in raw
    fam = family_i1k1("a", "b", 3)
    assert canonical_instance(fam, 2) in report.nonperiodic


def test_nonforcing_j2():
    # j = 2: the k-parameterized family gives a witness of total length 25
    report = enumerate_solutions((2, 2, 1), 2, 25)
    assert not report.periodic_only
    fam = family_j2("a", "b", 1)
    assert fam.words() in {inst.words() for inst in report.solutions}
    assert canonical_instance(fam, 2) in report.nonperiodic


def test_aba_is_not_forcing():
    verdict = forcing_verdict((1, 1, 1), 2, 8)
    assert not verdict.forced_up_to_bound
    assert verdict.witnesses


def test_solutions_all_check_and_obey_bound():
    for inst in iter_solutions((1, 2, 1), 2, 10, distinct_only=False):
        assert check(inst)
        assert len(inst.lhs()) <= 10
        assert all(inst.words())


def test_engine_matches_naive_oracle_small():
    # independent four-loop reference on a small budget
    for exps in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
        got = {i.words() for i in iter_solutions(exps, 2, 8, distinct_only=False)}
        assert got == naive_solutions(exps, 2, 8)


SMALL_TRIPLES = [
    (i, j, k)
    for i in range(6) for j in range(1, 7) for k in range(6)
    if i + k >= 1 and i + j + k <= 6
]


@pytest.mark.parametrize("exps", SMALL_TRIPLES, ids=lambda e: "-".join(map(str, e)))
def test_engine_matches_naive_oracle_every_small_triple(exps):
    # the length-tuple solver against four free loops, i = 0 and k = 0 included
    for alphabet_size, floor in [(2, 7), (3, 5)]:
        bound = max(floor, sum(exps))
        for distinct_only in (True, False):
            got = {s.words() for s in iter_solutions(
                exps, alphabet_size, bound, distinct_only=distinct_only)}
            assert got == naive_solutions(exps, alphabet_size, bound, distinct_only), (
                alphabet_size, bound, distinct_only)
    for distinct_only in (True, False):
        got = {s.words() for s in iter_solutions(
            exps, 2, 6, distinct_only=distinct_only, allow_empty=True)}
        assert got == naive_solutions(exps, 2, 6, distinct_only, allow_empty=True), distinct_only


@pytest.mark.parametrize("exps", SMALL_TRIPLES, ids=lambda e: "-".join(map(str, e)))
def test_counted_report_matches_listed_every_small_triple(exps):
    # total_solutions comes from class counts; the reference lists every solution
    cases = [(a, max(floor, sum(exps)), d, False) for a, floor in [(2, 7), (3, 5)] for d in (True, False)]
    cases += [(2, 6, d, True) for d in (True, False)]
    for alphabet_size, bound, distinct_only, allow_empty in cases:
        report = enumerate_solutions(exps, alphabet_size, bound,
                                     distinct_only=distinct_only, allow_empty=allow_empty)
        total, orbits = listed_report(exps, alphabet_size, bound, distinct_only, allow_empty)
        assert report.total_solutions == total, (alphabet_size, bound, distinct_only, allow_empty)
        assert [inst.words() for inst in report.nonperiodic] == orbits


ALPHABET_CASES = [
    ((1, 2, 1), 12, True, False),
    ((2, 2, 1), 25, True, False),
    ((1, 3, 1), 17, True, False),
    ((1, 1, 1), 7, True, False),
    ((1, 1, 1), 5, False, False),
    ((2, 1, 1), 6, True, True),
    ((0, 1, 1), 4, True, False),
]
ALPHABET_26_CASES = [
    ((1, 2, 1), 10, True, False),
    ((1, 1, 1), 4, False, False),
    ((1, 1, 1), 4, True, True),
    ((2, 2, 1), 8, False, False),
    ((0, 1, 1), 3, True, False),
]
# each reaches a multiple g t0, g >= 2, of a primitive tuple t0 with
# c(t0) > 1: (2, 6, 4, 2) and (2, 6, 6, 2)
MULTIPLE_CASES = [
    ((1, 1, 1), 10, True, False),
    ((1, 2, 1), 20, True, False),
]
# i == k with empty words, where the mirror is judged on growth strings
# and x may be empty; alphabet 3 only, as listing them takes about a second
EMPTY_MIRROR_CASES = [
    ((1, 1, 1), 8, True, True),
    ((2, 1, 2), 10, False, True),
]


@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5, 6, 26])
def test_orbits_match_listed_reference_across_alphabets(monkeypatch, alphabet_size):
    # one restricted-growth assignment per relabelling orbit finds every
    # orbit, and a word tuple is built for that one growth string only
    built = 0
    word_tuple = equations._word_tuple

    def counting(*args):
        nonlocal built
        built += 1
        return word_tuple(*args)

    monkeypatch.setattr(equations, "_word_tuple", counting)
    cases = ALPHABET_26_CASES if alphabet_size == 26 else ALPHABET_CASES
    if alphabet_size == 2:
        cases = cases + MULTIPLE_CASES
    if alphabet_size == 3:
        cases = cases + EMPTY_MIRROR_CASES
    for exps, bound, distinct_only, allow_empty in cases:
        built = 0
        report = enumerate_solutions(exps, alphabet_size, bound,
                                     distinct_only=distinct_only, allow_empty=allow_empty)
        assert built == len(report.nonperiodic), exps
        total, orbits = listed_report(exps, alphabet_size, bound, distinct_only, allow_empty)
        assert report.total_solutions == total, exps
        assert [inst.words() for inst in report.nonperiodic] == orbits, exps


def spy(monkeypatch, name):
    """Replace ``equations.<name>`` by a wrapper that records each result; return the list."""
    results = []
    real = getattr(equations, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(equations, name, recording)
    return results


def test_side_swap_is_named_only_when_u_does_not_start_with_x(monkeypatch):
    # with i >= 1 x is a prefix of u in every solution, so nothing is named;
    # with i = 0 each candidate whose u does not start with x names its swap once
    named = spy(monkeypatch, "_named")
    built = spy(monkeypatch, "_word_tuple")
    no_swap = [(2, c) for c in MULTIPLE_CASES + ALPHABET_CASES if c[0][0] >= 1]
    no_swap += [(3, c) for c in EMPTY_MIRROR_CASES]
    for alphabet_size, (exps, bound, distinct_only, allow_empty) in no_swap:
        built.clear()
        enumerate_solutions(exps, alphabet_size, bound,
                            distinct_only=distinct_only, allow_empty=allow_empty)
        assert built and not named, exps
    for exps, bound, allow_empty in [((0, 1, 1), 10, True), ((0, 1, 2), 12, False)]:
        built.clear()
        enumerate_solutions(exps, 2, bound, allow_empty=allow_empty)
        expected = sum(not u.startswith(x) for x, _, u, _ in built)
        assert 0 < len(named) == expected < len(built), exps
        named.clear()


def test_counting_pins_1_2_1_at_alphabet_26():
    # counted, not listed: listing these solutions takes minutes and about 1 GB
    report = enumerate_solutions((1, 2, 1), 26, 16)
    assert report.total_solutions == 2_829_112
    assert len(report.nonperiodic) == 43


def test_enumerate_unions_each_primitive_tuple_once(monkeypatch):
    # multiples of a primitive tuple are decided from its one union-find;
    # each first-meeting list is traced back to the side it was built for
    calls = []
    built = {}
    first_meetings, union_positions = equations._first_meetings, equations._union_positions

    def building(exps, a, b):
        first = first_meetings(exps, a, b)
        built[id(first)] = first, (a, b)  # holding the list keeps its id unique
        return first

    def counting(first_xy, first_uv, count):
        calls.append(built[id(first_xy)][1] + built[id(first_uv)][1])
        return union_positions(first_xy, first_uv, count)

    monkeypatch.setattr(equations, "_first_meetings", building)
    monkeypatch.setattr(equations, "_union_positions", counting)
    for exps, scan, bound in [((1, 2, 1), enumerate_solutions, 20), ((3, 2, 1), conjecture_scan, 60)]:
        calls.clear()
        scan(exps, 2, bound)
        i, j, k = exps
        primitive = set()
        for lx in range(1, bound // (i + k) + 1):
            for ly in range(1, (bound - (i + k) * lx) // j + 1):
                n = (i + k) * lx + j * ly
                for lu in range(lx + 1, n // (i + k) + 1):  # |u| = |x| is trivial
                    lv, rem = divmod(n - (i + k) * lu, j)
                    if lv and not rem and gcd(lx, ly, lu, lv) == 1:
                        primitive.add((lx, ly, lu, lv))
        assert sorted(calls) == sorted(primitive), exps


@pytest.mark.parametrize("exps,bound,distinct_only,allow_empty", [
    ((3, 2, 1), 60, True, False),
    ((1, 2, 1), 14, False, True),
])
def test_enumerate_builds_each_sides_first_meetings_once_per_call(
        monkeypatch, exps, bound, distinct_only, allow_empty):
    # nothing is cached across calls: a second identical call builds every list again
    built = []
    first_meetings = equations._first_meetings

    def building(exps, a, b):
        built.append((a, b))
        return first_meetings(exps, a, b)

    monkeypatch.setattr(equations, "_first_meetings", building)
    lo = 0 if allow_empty else 1
    every_side = sorted(side for sides in _sides(Exponents(*exps), bound, lo).values() for side in sides)
    for _ in range(2):
        built.clear()
        enumerate_solutions(exps, 2, bound, distinct_only=distinct_only, allow_empty=allow_empty)
        assert sorted(built) == every_side  # each side once, and no side twice


@pytest.mark.parametrize("exps,alphabet_size,bound,distinct_only,allow_empty", [
    ((1, 2, 1), 2, 12, True, False),
    ((1, 3, 1), 3, 9, False, False),
    ((2, 1, 1), 2, 7, True, True),
    ((0, 1, 1), 2, 6, False, True),
])
def test_report_solutions_rerun_the_raw_search(exps, alphabet_size, bound, distinct_only, allow_empty):
    report = enumerate_solutions(exps, alphabet_size, bound,
                                 distinct_only=distinct_only, allow_empty=allow_empty)
    expected = list(iter_solutions(exps, alphabet_size, bound,
                                   distinct_only=distinct_only, allow_empty=allow_empty))
    assert list(report.solutions) == expected
    assert list(report.solutions) == expected  # each access searches afresh
    assert report.total_solutions == len(expected)


@pytest.mark.parametrize("i,j,k", [(i, j, k) for i in range(4) for j in range(1, 4) for k in range(4)
                                   if i + k >= 1])
def test_sides_solve_the_side_equation_in_ascending_order(i, j, k):
    exps = Exponents(i, j, k)
    for lo in (0, 1):
        brute = {n: [(a, b) for a in range(n + 1) for b in range(n + 1)
                     if a >= lo and b >= lo and (i + k) * a + j * b == n] for n in range(1, 41)}
        # brute lists a in ascending order; the keys are exactly the n that have a side
        assert _sides(exps, 40, lo) == {n: sides for n, sides in brute.items() if sides}, lo


@pytest.mark.parametrize("i,j,k", [(i, j, k) for i in range(4) for j in range(1, 4) for k in range(4)
                                   if i + k >= 1])
def test_first_meetings_are_the_first_occurrences_of_the_block_layout(i, j, k):
    # every side with common value up to 30, empty words included: the
    # side spells w^i z^j w^k, and position t first meets the first
    # position that holds the same letter of the same word
    exps = Exponents(i, j, k)
    for sides in _sides(exps, 30, 0).values():
        for a, b in sides:
            w, z = [("w", r) for r in range(a)], [("z", r) for r in range(b)]
            layout = w * i + z * j + w * k
            assert _first_meetings(exps, a, b) == [layout.index(letter) for letter in layout], (a, b)
            assert _side_positions(exps, a, b) == [layout.index(letter) for letter in w + z], (a, b)


def all_length_tuples(exps, bound):
    """Every length tuple, empty words allowed, with common value 1..bound, in ascending order."""
    return sorted((lx, ly, lu, lv) for sides in _sides(exps, bound, 0).values()
                  for lx, ly in sides for lu, lv in sides)


def union_classes(exps, t):
    """The class count and labels of t from the union over its two sides' first meetings."""
    lx, ly, lu, lv = t
    first_xy, first_uv = _first_meetings(exps, lx, ly), _first_meetings(exps, lu, lv)
    count, parent = _union_positions(first_xy, first_uv, lu + lv)
    return count, _first_occurrence_labels(parent, _side_positions(exps, lx, ly),
                                           _side_positions(exps, lu, lv))


def scaled_classes(exps, t):
    """The class count and labels of t as ``enumerate_solutions`` builds them.

    Only t / g, g = gcd(t), is unioned; ``_residue_labels`` copies its
    first-occurrence classes per residue mod g.
    """
    g = gcd(*t)
    count, label = union_classes(exps, [n // g for n in t])
    return g * count, _residue_labels(label, g)


@st.composite
def length_tuples(draw, bound=12, mirrored=False):
    """Exponents with j >= 1 and i + k >= 1, and one length tuple of theirs within the bound.

    With ``mirrored`` the exponents have i == k >= 1.
    """
    i = draw(st.integers(1 if mirrored else 0, 3))
    k = i if mirrored else draw(st.integers(0 if i else 1, 3))
    exps = Exponents(i, draw(st.integers(1, 3)), k)
    return exps, draw(st.sampled_from(all_length_tuples(exps, max(bound, sum(exps)))))


@pytest.mark.parametrize("i,j,k", [(i, j, k) for i in range(4) for j in range(1, 4) for k in range(4)
                                   if i + k >= 1])
def test_union_over_u_and_v_matches_the_full_position_union(i, j, k):
    # every length tuple with common value up to 30, empty words and |u| = |x| included
    exps = Exponents(i, j, k)
    for t in all_length_tuples(exps, 30):
        assert union_classes(exps, t) == naive_position_classes(exps, *t), t


@settings(max_examples=200, deadline=None)
@given(length_tuples(), st.integers(1, 4))
def test_class_count_scales_with_the_tuple(case, m):
    # the union-find over every position of the full tuple is the reference
    exps, t = case
    scaled = [m * n for n in t]
    count = naive_position_classes(exps, *scaled)[0]
    assert count == m * naive_position_classes(exps, *t)[0]
    assert scaled_classes(exps, scaled)[0] == count


@settings(max_examples=200, deadline=None)
@given(length_tuples(), st.integers(1, 4))
def test_scaled_labels_partition_the_positions_as_union_find_does(case, m):
    # enumerate_solutions unions t / g only; its labels must name the same
    # classes as the union-find over every position of the full tuple, by
    # first occurrence, which runs in restricted-growth order along x y
    exps, t = case
    scaled = [m * n for n in t]
    count, label = scaled_classes(exps, scaled)
    assert (count, label) == naive_position_classes(exps, *scaled)
    top = -1
    for c in label[:scaled[0] + scaled[1]]:
        assert c <= top + 1
        top = max(top, c)
    assert top == count - 1


@st.composite
def nonperiodic_tuples(draw, bound=12, mirrored=False):
    """Exponents and a length tuple of theirs with c(t / g) > 1 and at most 9 classes."""
    exps, _ = draw(length_tuples(bound, mirrored))
    tuples = [t for t in all_length_tuples(exps, bound)
              if gcd(*t) < union_classes(exps, t)[0] <= 9]
    assume(tuples)
    return exps, draw(st.sampled_from(tuples))


@settings(max_examples=60, deadline=None)
@given(nonperiodic_tuples(), st.sampled_from([2, 3]))
def test_residue_rule_agrees_with_the_periodicity_classifier(case, alphabet_size):
    # enumerate_solutions skips a growth string as periodic when the
    # letter of class C g + r depends on the residue r alone
    exps, t = case
    g = gcd(*t)
    count, label = scaled_classes(exps, t)
    a, b, c = t[0], t[0] + t[1], t[0] + t[1] + t[2]
    for growth in _restricted_growth(count, alphabet_size):
        s = "".join("abc"[growth[p]] for p in label)
        inst = EquationInstance(exps, s[:a], s[a:b], s[b:c], s[c:])
        assert (growth == growth[:g] * (count // g)) == is_periodic_solution(inst), inst


@settings(max_examples=60, deadline=None)
@given(nonperiodic_tuples(), st.sampled_from([2, 3]))
def test_growth_string_candidates_are_already_named(case, alphabet_size):
    # enumerate_solutions keeps a candidate's word tuple as built and names
    # at most its side swap, so the candidate itself must read a, b, c, ...
    exps, t = case
    count, label = scaled_classes(exps, t)
    a, b, c = t[0], t[0] + t[1], t[0] + t[1] + t[2]
    for growth in _restricted_growth(count, alphabet_size):
        s = "".join("abc"[growth[p]] for p in label)
        words = (s[:a], s[a:b], s[b:c], s[c:])
        naming = {letter: "abc"[n] for n, letter in enumerate(dict.fromkeys(s))}
        assert tuple("".join(naming[x] for x in w) for w in words) == words, (exps, t, growth)


def walk_orientation(t):
    """The tuple or its side swap, whichever has |x| <= |u|, as ``enumerate_solutions`` walks them."""
    lx, ly, lu, lv = t
    return t if lx <= lu else (lu, lv, lx, ly)


def candidates(exps, t, alphabet_size):
    """(growth string, word tuple) for every growth string of t, as ``enumerate_solutions`` builds them."""
    count, label = scaled_classes(exps, t)
    cuts = t[0], t[0] + t[1], t[0] + t[1] + t[2]
    for growth in _restricted_growth(count, alphabet_size):
        yield list(growth), _word_tuple("abc", growth, label, cuts)


def mirror(words):
    return tuple(w[::-1] for w in words)


@settings(max_examples=60, deadline=None)
@given(nonperiodic_tuples(), st.sampled_from([2, 3]))
def test_side_swap_never_wins_when_x_is_a_prefix_of_u(case, alphabet_size):
    # enumerate_solutions names a candidate's side swap only when u does
    # not start with x; with i >= 1 x always starts u, and with i == k it
    # also ends u, so no mirrored swap wins either
    exps, t = case
    t = walk_orientation(t)
    for _, words in candidates(exps, t, alphabet_size):
        x, _, u, _ = words
        assert exps.i == 0 or u.startswith(x), (exps, t, words)
        if not u.startswith(x):
            continue
        swap = words[2:] + words[:2]
        if swap == words:
            continue  # the diagonal, |u| = |x|: u = x and v = y
        assert naive_least_relabelling([swap], alphabet_size) > words, (exps, t, words)
        if exps.i == exps.k:
            named_mirror = naive_least_relabelling([mirror(words)], alphabet_size)
            assert naive_least_relabelling([mirror(swap)], alphabet_size) > named_mirror


def test_side_swap_loses_when_i_is_0_and_x_is_a_prefix_of_u():
    # with i = 0 the prefix test still decides: here u starts with x, so
    # the candidate is its orbit's least image and its swap is not named
    exps = Exponents(0, 1, 1)
    words = ("a", "ba", "aa", "b")
    inst = EquationInstance(exps, *words)
    assert check(inst) and not is_periodic_solution(inst)
    assert _named(words[2:] + words[:2]) == ("aa", "b", "a", "ba") > words
    assert canonical_instance(inst, 2).words() == words == naive_orbit_minimum(exps, words, 2)
    assert inst in enumerate_solutions(exps, 2, 3).nonperiodic


def test_side_swap_can_win_when_i_is_0():
    # |x| < |u| here too, but x is a suffix of u, not a prefix: with i = 0
    # the swap must still be named
    exps = Exponents(0, 1, 1)
    words = ("ab", "aa", "aab", "a")
    inst = EquationInstance(exps, *words)
    assert check(inst) and not is_periodic_solution(inst)
    swap = _named(words[2:] + words[:2])
    assert swap == ("aab", "a", "ab", "aa") < words
    assert canonical_instance(inst, 2).words() == swap == naive_orbit_minimum(exps, words, 2)
    assert EquationInstance(exps, *swap) in enumerate_solutions(exps, 2, 6).nonperiodic


def renormalised(r):
    names = {}
    return [names.setdefault(c, len(names)) for c in r]


@settings(max_examples=60, deadline=None)
@given(nonperiodic_tuples(mirrored=True), st.sampled_from([2, 3]))
def test_mirror_is_judged_on_growth_strings(case, alphabet_size):
    # with i == k, enumerate_solutions keeps r iff r <= renorm(r o sigma),
    # which must hold iff r's words are the least image of the tuple and
    # its mirror under every relabelling
    exps, t = case
    t = walk_orientation(t)
    count, label = scaled_classes(exps, t)
    sigma = _mirror_classes(label, (t[0], t[0] + t[1], t[0] + t[1] + t[2]))
    for growth, words in candidates(exps, t, alphabet_size):
        mirrored = renormalised([growth[m] for m in sigma])
        least = naive_least_relabelling([words, mirror(words)], alphabet_size)
        assert (growth <= mirrored) == (words == least), (exps, t, growth)
        assert _mirror_is_less(growth, sigma) == (mirrored < growth), (exps, t, growth)


@settings(max_examples=200, deadline=None)
@given(length_tuples())
def test_side_swap_keeps_the_class_count(case):
    # enumerate_solutions visits a tuple or its side swap, never both
    exps, (lx, ly, lu, lv) = case
    assert scaled_classes(exps, (lu, lv, lx, ly))[0] == scaled_classes(exps, (lx, ly, lu, lv))[0]


@settings(max_examples=100, deadline=None)
@given(length_tuples(bound=8), st.sampled_from([2, 3]))
def test_exactly_alphabet_to_the_gcd_assignments_are_periodic(case, alphabet_size):
    exps, t = case
    count = scaled_classes(exps, t)[0]
    solutions = [EquationInstance(exps, x, y, u, v)
                 for x, y, _, u, v in _tuple_solutions(exps, "abc"[:alphabet_size], *t)]
    assert len(solutions) == alphabet_size ** count
    periodic = sum(is_periodic_solution(inst) for inst in solutions)
    assert periodic == alphabet_size ** gcd(*t)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TRIPLES), st.integers(0, 4), st.integers(3, 6))
def test_verdict_does_not_depend_on_the_alphabet(exps, extra, alphabet_size):
    bound = sum(exps) + extra
    binary = forcing_verdict(exps, 2, bound).forced_up_to_bound
    assert forcing_verdict(exps, alphabet_size, bound).forced_up_to_bound == binary


@pytest.mark.parametrize("exps,alphabet_size,bound,allow_empty", [
    ((1, 2, 1), 2, 12, False),
    ((0, 2, 1), 3, 8, False),
    ((2, 1, 1), 2, 9, True),
])
def test_solution_order_is_lengths_then_words(exps, alphabet_size, bound, allow_empty):
    sols = list(iter_solutions(exps, alphabet_size, bound, distinct_only=False,
                               allow_empty=allow_empty))
    assert sols == sorted(sols, key=lambda s: (len(s.x), len(s.y), s.x, s.y, len(s.u)))


def test_known_witness_in_1_2_1():
    report = enumerate_solutions((1, 2, 1), 2, 12)
    raw = {inst.words() for inst in report.solutions}
    assert ("babab", "a", "bab", "aba") in raw
    rep = canonical_instance(make((1, 2, 1), "babab", "a", "bab", "aba"), 2)
    assert rep in report.nonperiodic


def test_distinct_only_filter():
    with_trivial = {i.words() for i in iter_solutions((1, 2, 1), 2, 8, distinct_only=False)}
    without = {i.words() for i in iter_solutions((1, 2, 1), 2, 8, distinct_only=True)}
    assert without < with_trivial
    assert all((x, y) != (u, v) for x, y, u, v in without)
    assert any((x, y) == (u, v) for x, y, u, v in with_trivial)


def test_empty_word_solutions_are_periodic():
    # degenerate route: whenever one of the four words is empty the
    # solution must still be periodic, here swept at a small bound
    for exps in [(2, 3, 1), (1, 3, 1)]:
        report = enumerate_solutions(exps, 2, 10, allow_empty=True)
        for inst in report.solutions:
            if "" in inst.words():
                assert is_periodic_solution(inst), inst


def test_report_json_shape():
    report = enumerate_solutions((1, 3, 1), 2, 17)
    obj = report.to_json_obj()
    assert list(obj) == [
        "i", "j", "k", "alphabet", "bound", "total_solutions", "periodic_only", "nonperiodic",
    ]
    assert obj["i"] == 1 and obj["j"] == 3 and obj["k"] == 1
    assert obj["alphabet"] == 2 and obj["bound"] == 17
    assert obj["periodic_only"] is False
    assert {"x": "a", "y": "abbba", "u": "aabbbaa", "v": "b"} in obj["nonperiodic"]


def test_shard_counts_do_not_change_reports():
    base = enumerate_solutions((1, 3, 1), 2, 17, shards=1).to_json()
    for shards in (2, 3):
        assert enumerate_solutions((1, 3, 1), 2, 17, shards=shards).to_json() == base
    v1 = forcing_verdict((2, 3, 1), 2, 14, shards=1).to_json()
    v3 = forcing_verdict((2, 3, 1), 2, 14, shards=3).to_json()
    assert v1 == v3


def test_canonical_instance_is_orbit_minimum():
    inst = make((1, 2, 1), "babab", "a", "bab", "aba")
    rep = canonical_instance(inst, 2)
    assert rep.words() == ("aba", "bab", "ababa", "b")
    # canonical form is stable across the orbit
    swapped = make((1, 2, 1), "bab", "aba", "babab", "a")
    assert canonical_instance(swapped, 2) == rep
    relabeled = make((1, 2, 1), "ababa", "b", "aba", "bab")
    assert canonical_instance(relabeled, 2) == rep


@pytest.mark.parametrize("exps,alphabet_size,bound,allow_empty", [
    ((1, 2, 1), 4, 12, False),
    ((1, 1, 1), 3, 7, True),
    ((2, 2, 1), 2, 25, False),
    ((1, 2, 2), 2, 25, False),  # i != k: no mirror in the orbit
])
def test_canonical_instance_matches_brute_force_orbit(exps, alphabet_size, bound, allow_empty):
    report = enumerate_solutions(exps, alphabet_size, bound, allow_empty=allow_empty)
    nonperiodic = [inst for inst in report.solutions if not is_periodic_solution(inst)]
    assert nonperiodic
    for inst in nonperiodic:
        expected = naive_orbit_minimum(exps, inst.words(), alphabet_size)
        assert canonical_instance(inst, alphabet_size).words() == expected, inst


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1, 1, 1), (0, 1, 1), (1, 2, 2)]),
       st.lists(st.text("abc", max_size=4), min_size=4, max_size=4))
@example((1, 1, 1), ["ab", "a", "abb", "b"])  # x a prefix, not a suffix, of u: the mirrored swap wins
def test_canonical_instance_is_orbit_minimum_of_any_tuple(exps, words):
    # canonical_instance names every image, so it is the orbit minimum of
    # tuples that solve nothing too, where x can be a prefix of u and not
    # a suffix
    inst = make(exps, *words)
    assert canonical_instance(inst, 3).words() == naive_orbit_minimum(exps, tuple(words), 3)


def test_canonical_instance_ignores_unused_letters_and_rejects_overflow():
    inst = make((1, 2, 1), "babab", "a", "bab", "aba")
    assert canonical_instance(inst, 26) == canonical_instance(inst, 2)
    with pytest.raises(ValueError):
        canonical_instance(make((1, 2, 1), "abc", "a", "abc", "a"), 2)


def test_nonperiodic_reps_invariant_under_symmetries():
    report = enumerate_solutions((1, 2, 1), 2, 12)
    reps = {i.words() for i in report.nonperiodic}
    swap = str.maketrans("ab", "ba")
    relabeled = {
        canonical_instance(make((1, 2, 1), *(w.translate(swap) for w in i.words())), 2).words()
        for i in report.nonperiodic
    }
    assert relabeled == reps
    mirrored = {
        canonical_instance(make((1, 2, 1), *(w[::-1] for w in i.words())), 2).words()
        for i in report.nonperiodic
    }
    assert mirrored == reps


def test_mirror_maps_between_swapped_exponent_reports():
    left = enumerate_solutions((2, 2, 1), 2, 25)
    right = enumerate_solutions((1, 2, 2), 2, 25)
    assert left.nonperiodic and right.nonperiodic
    mirrored = {
        canonical_instance(make((1, 2, 2), *(w[::-1] for w in i.words())), 2).words()
        for i in left.nonperiodic
    }
    assert mirrored == {i.words() for i in right.nonperiodic}


def test_split_even_j():
    inst = make((1, 2, 1), "babab", "a", "bab", "aba")
    halves = split_even_j(inst)
    assert halves == (("bababa", "bababa"), ("ababab", "ababab"))
    assert all(lhs == rhs for lhs, rhs in halves)
    # mismatched exponents refuse to split
    assert split_even_j(make((2, 2, 1), "a", "a", "a", "a")) is None
    assert split_even_j(make((1, 3, 1), "a", "a", "a", "a")) is None
    # trivial x=u, y=v instances satisfy both halves
    triv = make((2, 4, 2), "ab", "ba", "ab", "ba")
    assert all(lhs == rhs for lhs, rhs in split_even_j(triv))


def test_split_equivalence_small():
    # check(inst) iff both halves hold, over every quadruple at a small bound
    from support import words_up_to

    exps = Exponents(1, 2, 1)
    for x in words_up_to(3):
        for y in words_up_to(3):
            for u in words_up_to(3):
                for v in words_up_to(3):
                    inst = EquationInstance(exps, x, y, u, v)
                    halves = split_even_j(inst)
                    both = all(lhs == rhs for lhs, rhs in halves)
                    assert both == check(inst)


def test_conjecture_scan():
    report = conjecture_scan((3, 2, 1), 2, 16)
    assert report.periodic_only
    with pytest.raises(ValueError):
        conjecture_scan((2, 2, 1), 2, 25)  # |i - k| = 1
    with pytest.raises(ValueError):
        conjecture_scan((3, 3, 1), 2, 16)  # j != 2
    with pytest.raises(ValueError):
        conjecture_scan((3, 2, 0), 2, 16)  # ik = 0
    with pytest.raises(ParameterError):
        conjecture_scan((1, 2, 1), 2, 16)  # i == k
