import pytest

from wordeq import equations, families
from wordeq.equations import Exponents, check, is_periodic_solution
from wordeq.families import (
    CommutingParametersError,
    family_i1k1,
    family_j2,
    validate_family_grid,
)
from wordeq.words import ParameterError, all_words, commutes
from support import naive_family_grid


def test_family_j2_base_case():
    inst = family_j2("a", "b", 1)
    assert inst.exps == Exponents(2, 2, 1)
    assert (inst.x, inst.y, inst.u, inst.v) == ("aaababa", "ba", "a", "ababaaaabab")
    assert len(inst.lhs()) == 25
    assert check(inst) and not is_periodic_solution(inst)


def test_family_j2_more_parameters():
    inst = family_j2("a", "b", 2)
    assert inst.exps == Exponents(3, 2, 2)
    assert check(inst) and not is_periodic_solution(inst)
    inst2 = family_j2("ab", "ba", 1)
    assert check(inst2) and not is_periodic_solution(inst2)


def test_family_j2_rejects_bad_parameters():
    with pytest.raises(CommutingParametersError):
        family_j2("a", "aa", 1)
    with pytest.raises(CommutingParametersError):
        family_j2("", "b", 1)
    with pytest.raises(ValueError):
        family_j2("a", "b", 0)


def test_family_i1k1_base_case():
    inst = family_i1k1("a", "b", 3)
    assert inst.exps == Exponents(1, 3, 1)
    assert (inst.x, inst.y, inst.u, inst.v) == ("aabbbaa", "b", "a", "abbba")
    assert inst.lhs() == "aabbbaabbbaabbbaa"
    assert check(inst) and not is_periodic_solution(inst)


def test_family_i1k1_larger_j():
    inst = family_i1k1("a", "b", 5)
    assert inst.v == "abbbbba"
    assert inst.x == "a" + inst.v * 2 + "a"
    assert check(inst) and not is_periodic_solution(inst)
    inst2 = family_i1k1("ab", "a", 3)
    assert check(inst2) and not is_periodic_solution(inst2)


def test_family_i1k1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        family_i1k1("a", "b", 4)  # even j has no square root for v^(j-1)
    with pytest.raises(ValueError):
        family_i1k1("a", "b", 1)
    with pytest.raises(CommutingParametersError):
        family_i1k1("ab", "abab", 3)


def test_families_sit_outside_the_forcing_range():
    from wordeq.equations import theorem_applies

    for k in (1, 2, 3):
        assert not theorem_applies(family_j2("a", "b", k).exps)
    for j in (3, 5):
        assert not theorem_applies(family_i1k1("a", "b", j).exps)


def test_grid_tiny():
    summary = validate_family_grid(1, 1, 3)
    assert summary.pairs == 2  # ("a","b") and ("b","a")
    assert summary.j2_instances == 2
    assert summary.i1k1_instances == 2
    assert summary.total == 4


def test_grid_counts_match_commutation_oracle():
    summary = validate_family_grid(2, 2, 5)
    pairs = sum(
        1
        for p in all_words(2, "ab")
        for q in all_words(2, "ab")
        if not commutes(p, q)
    )
    assert summary.pairs == pairs == 26
    assert summary.j2_instances == pairs * 2  # k in {1, 2}
    assert summary.i1k1_instances == pairs * 2  # j in {3, 5}


def test_grid_wider_parameters():
    summary = validate_family_grid(3, 1, 3)
    assert summary.total == summary.pairs * 2
    with pytest.raises(ValueError):
        validate_family_grid(0, 1, 3)


@pytest.mark.parametrize("alphabet_size, max_len", [(2, 6), (3, 4), (4, 3)])
def test_grid_matches_naive_sweep(alphabet_size, max_len):
    for n in range(1, max_len + 1):
        for k in (1, 2, 3):
            for j in (1, 2, 3, 4, 5, 7):
                got = validate_family_grid(n, k, j, alphabet_size)
                assert got == naive_family_grid(n, k, j, alphabet_size), (n, k, j)


def _image(w, p, q):
    return "".join(p if c == "a" else q for c in w)


def test_families_are_images_of_the_base_pair():
    # family(p, q) == h(family("a", "b")) for h: a -> p, b -> q, the
    # identity that lets one certificate per k and j cover the grid.
    pairs = [(p, q) for p in all_words(4, "ab") for q in all_words(4, "ab")
             if not commutes(p, q)]
    builds = [(family_j2, k) for k in (1, 2, 3)] + [(family_i1k1, j) for j in (3, 5)]
    checked = 0
    for build, n in builds:
        base = build("a", "b", n).words()
        for p, q in pairs:
            assert build(p, q, n).words() == tuple(_image(w, p, q) for w in base)
            checked += 1
    assert checked == 5 * len(pairs) == 4210


def test_grid_pair_counts_beyond_the_sweep():
    assert validate_family_grid(6, 1, 3, 3).pairs == 1_191_198
    assert validate_family_grid(7, 1, 3, 3).pairs == 10_748_352


# the common value has 17 |alpha| + 8 |beta| letters (j2, k = 1) and
# 8 |alpha| + 9 |gamma| letters (i1k1, j = 3)
@pytest.mark.parametrize("build, alpha, second, n", [
    (family_j2, "a" * 8, "b" * 1_249_983, 1),
    (family_i1k1, "a" * 1_249_991, "b" * 8, 3),
], ids=["j2", "i1k1"])
def test_family_builds_a_common_value_of_the_letter_budget(build, alpha, second, n):
    assert len(build(alpha, second, n).lhs()) == families._MAX_LETTERS == 10**7


@pytest.mark.parametrize("build, alpha, second, n, letters", [
    (family_j2, "a", "b" * 1_249_998, 1, 10_000_001),
    (family_i1k1, "a" * 1_249_999, "b", 3, 10_000_001),
    (family_j2, "a", "aa", 1118, 10_017_289),
    (family_i1k1, "a", "aa", 2237, 10_012_814),
], ids=["j2", "i1k1", "j2-commuting", "i1k1-commuting"])
def test_family_refuses_a_common_value_over_the_letter_budget(build, alpha, second, n, letters):
    # refused from the parameter lengths, before the words are checked or built
    with pytest.raises(ParameterError, match=f"would have {letters} letters, more than 10000000$"):
        build(alpha, second, n)


def test_letter_budget_keeps_the_grids_instances():
    # the longest instances validate_family_grid builds, at max_k 500 and max_j 1001
    assert len(family_j2("a", "b", 500).lhs()) == 2_006_005
    assert len(family_i1k1("a", "b", 1001).lhs()) == 1_004_005


WORDS_FUNCTIONS = [f for name, f in vars(families).items() if name.endswith("_words")]


def test_every_family_has_a_words_function():
    assert WORDS_FUNCTIONS == [families._j2_words, families._i1k1_words]


@pytest.mark.parametrize("words", WORDS_FUNCTIONS, ids=lambda f: f.__name__)
def test_words_function_on_lengths_gives_the_lengths_it_builds(words):
    # the letter budget reads words(len(p), len(q), n) in place of the built words
    params = list(all_words(3, "ab", 0))
    cases = 0
    for p in params:
        for q in params:
            for n in range(1, 8):
                built = words(p, q, n)
                assert words(len(p), len(q), n) == tuple(len(w) for w in built), (p, q, n)
                cases += 1
    assert cases == 15 * 15 * 7


def test_each_instance_checks_the_equation_once(monkeypatch):
    calls = []
    real = equations.check

    def spy(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(equations, "check", spy)
    # a family module that imported check itself would call it past the first spy
    monkeypatch.setattr(families, "check", spy, raising=False)
    for build, second, n in [(family_j2, "ba", 2), (family_i1k1, "b", 5)]:
        calls.clear()
        inst = build("a", second, n)
        assert calls == [inst]


def test_a_failed_certificate_names_what_failed():
    exps = Exponents(1, 1, 1)
    with pytest.raises(ValueError, match="^not a solution$"):
        families._family("t", exps, lambda p, q, n: (p, q, q, p), "a", "b", 1, "p and q")
    with pytest.raises(RuntimeError, match="^family t produced a periodic solution"):
        families._family("t", exps, lambda p, q, n: (p, p, p, p), "a", "b", 1, "p and q")
