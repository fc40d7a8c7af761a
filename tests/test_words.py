import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordeq.words import (
    ConjugacyDecomposition,
    ParameterError,
    all_words,
    alphabet,
    are_conjugate,
    border_table,
    check_letters,
    commutes,
    exponent,
    is_factor_of_power,
    is_primitive,
    longest_common_prefix,
    longest_common_suffix,
    periodicity_lemma_check,
    power_factors,
    primitive_root,
    smallest_period,
    transfer_decomposition,
)
from support import naive_primitive_root, naive_smallest_period

binary_words = st.text(alphabet="ab", min_size=1, max_size=40)


def test_alphabet():
    assert alphabet(2) == "ab"
    assert alphabet(26) == "abcdefghijklmnopqrstuvwxyz"
    for bad in (1, 0, 27):
        with pytest.raises(ValueError):
            alphabet(bad)


def test_check_letters():
    check_letters("abba", 2)
    check_letters("", 2)
    with pytest.raises(ValueError):
        check_letters("abc", 2)


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ("abc", "abd", "ab"),
        ("", "abc", ""),
        ("aabaa", "aabab", "aaba"),  # letterwise scan
    ],
)
def test_longest_common_prefix(u, v, expected):
    assert longest_common_prefix(u, v) == expected


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ("cab", "dab", "ab"),
        ("a", "b", ""),
        ("ababa", "ba", "ba"),  # scan from the right
    ],
)
def test_longest_common_suffix(u, v, expected):
    assert longest_common_suffix(u, v) == expected


def test_suffix_is_reversed_prefix():
    # both against their definitions: the longest shared end, empty word included
    words = list(all_words(5, "ab", min_len=0))
    for u in words:
        for v in words:
            n = min(len(u), len(v))
            prefix = max((u[:m] for m in range(n + 1) if u[:m] == v[:m]), key=len)
            suffix = max((u[len(u) - m:] for m in range(n + 1) if u[len(u) - m:] == v[len(v) - m:]), key=len)
            assert longest_common_prefix(u, v) == prefix
            assert longest_common_suffix(u, v) == suffix


@pytest.mark.parametrize(
    "w, root",
    [
        ("abab", "ab"),
        ("a", "a"),
        ("aabaab", "aab"),  # frozen from the naive divisor-prefix oracle
    ],
)
def test_primitive_root(w, root):
    assert naive_primitive_root(w) == root
    assert primitive_root(w) == root


def test_rotation_search_root_matches_naive_exhaustive():
    # binary words up to length 12 and ternary words up to length 7
    for w in [*all_words(12, "ab"), *all_words(7, "abc")]:
        root = naive_primitive_root(w)
        assert primitive_root(w) == root
        assert is_primitive(w) == (root == w)
        assert exponent(w) == len(w) // len(root)


def test_primitive_root_empty():
    with pytest.raises(ValueError):
        primitive_root("")
    with pytest.raises(ValueError):
        smallest_period("")


@pytest.mark.parametrize("w, expected", [("ab", True), ("aa", False), ("abaab", True)])
def test_is_primitive(w, expected):
    assert is_primitive(w) is expected


def test_root_idempotent_and_reconstructs_exhaustive():
    # binary words up to length 12
    for w in all_words(12, "ab"):
        r = primitive_root(w)
        assert primitive_root(r) == r
        assert r * (len(w) // len(r)) == w


def test_border_table_against_naive_periods():
    for w in all_words(9, "ab"):
        assert smallest_period(w) == naive_smallest_period(w)
        table = border_table(w)
        for idx in range(len(w)):
            pref = w[:idx + 1]
            borders = [b for b in range(idx + 1) if pref[:b] == pref[idx + 1 - b:]]
            assert table[idx] == max(borders)


@settings(max_examples=300)
@given(binary_words)
def test_root_reconstruction_random(w):
    r = primitive_root(w)
    assert len(w) % len(r) == 0
    assert r * (len(w) // len(r)) == w
    assert primitive_root(r) == r
    assert smallest_period(w) == naive_smallest_period(w)


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ("ab", "abab", True),
        ("a", "b", False),
        ("aba", "baab", False),  # direct concatenation compare
    ],
)
def test_commutes(u, v, expected):
    assert commutes(u, v) is expected


def test_commutes_iff_same_root_exhaustive():
    # |u|, |v| <= 6 over the binary alphabet
    words = list(all_words(6, "ab"))
    for u in words:
        for v in words:
            assert commutes(u, v) == (primitive_root(u) == primitive_root(v))
    assert commutes("", "abc") and commutes("abc", "")


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ("ab", "ba", True),
        ("ab", "ab", True),
        ("aab", "abb", False),  # scan factors of "aabaab"
        ("", "", True),
        ("a", "ab", False),
    ],
)
def test_are_conjugate(u, v, expected):
    assert are_conjugate(u, v) is expected


def test_conjugate_means_rotation():
    for u in all_words(6, "ab"):
        rotations = {u[r:] + u[:r] for r in range(len(u))}
        for v in all_words(6, "ab"):
            assert are_conjugate(u, v) == (v in rotations)


def test_transfer_decomposition_examples():
    assert transfer_decomposition("ab", "a", "ba") == ConjugacyDecomposition("a", "b", 0, 1)
    assert transfer_decomposition("ab", "ab", "ab") == ConjugacyDecomposition("ab", "", 0, 1)
    assert transfer_decomposition("abab", "a", "baba") == ConjugacyDecomposition("a", "b", 0, 2)
    assert transfer_decomposition("ab", "", "ab") == ConjugacyDecomposition("", "ab", 0, 1)


def test_transfer_decomposition_rejects_non_relations():
    with pytest.raises(ValueError):
        transfer_decomposition("ab", "a", "ab")
    with pytest.raises(ValueError):
        transfer_decomposition("", "a", "a")


@settings(max_examples=300)
@given(st.text(alphabet="ab", min_size=1, max_size=8), st.integers(0, 8), st.integers(0, 5))
def test_transfer_decomposition_roundtrip_random(u, zcut, reps):
    # build z as a prefix of u^omega so that u z = z v has a solution
    z = (u * (reps + 1))[:reps * len(u) + min(zcut, len(u))]
    v = (u + z)[len(z):]
    d = transfer_decomposition(u, z, v)
    assert (d.u, d.z, d.v) == (u, z, v)
    assert is_primitive(d.sigma + d.tau)
    assert d.m >= 1 and d.ell >= 0


def test_is_factor_of_power():
    assert is_factor_of_power("abaab", "aab")
    assert not is_factor_of_power("abaab", "ab")
    assert is_factor_of_power("", "ab")
    assert is_factor_of_power("", "")
    assert not is_factor_of_power("a", "")


def test_power_factors_small():
    assert power_factors("ab", 3) == {"aba", "bab"}
    assert power_factors("ab", 0) == {""}


def test_power_factors_of_the_empty_word():
    # its only power is empty, as is_factor_of_power assumes
    assert power_factors("", 0) == {""}
    for length in range(1, 4):
        assert power_factors("", length) == set()
        assert not is_factor_of_power("a" * length, "")


@pytest.mark.parametrize("p", ["", "a", "ab"])
def test_power_factors_rejects_a_negative_length(p):
    with pytest.raises(ParameterError, match="length must be >= 0"):
        power_factors(p, -1)


def test_periodicity_lemma_check_examples():
    assert periodicity_lemma_check("ab", "ba", "abab") is True
    assert are_conjugate("ab", "ba")
    assert periodicity_lemma_check("ab", "b", "b") is False  # too short
    # "abaab" is a factor of (aab)^2 but of no power of "ab"
    assert periodicity_lemma_check("aab", "ab", "abaab") is False


def test_periodicity_lemma_check_requires_primitive():
    with pytest.raises(ValueError):
        periodicity_lemma_check("aa", "b", "ab")
    with pytest.raises(ValueError):
        periodicity_lemma_check("b", "abab", "ab")


def test_fine_wilf_conclusion_small():
    # wherever the hypothesis test passes, the conclusion must hold
    prims = [w for w in all_words(4, "ab") if is_primitive(w)]
    for p in prims:
        for q in prims:
            length = len(p) + len(q) - 1
            for w in power_factors(p, length):
                if periodicity_lemma_check(p, q, w):
                    assert are_conjugate(p, q)
