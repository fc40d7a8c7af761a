from itertools import product

import pytest

from wordeq.codes import (
    BinaryCode,
    CodeWord,
    PowerShape,
    classify_x_power,
    code_words,
    count_factorizations,
    decode,
    imprimitive_code_words,
    imprimitive_in_cross_set,
    lyndon_words,
    x_primitive_imprimitive_set,
)
from wordeq.oracles import check_imprimitive_set_shape
from wordeq.words import ParameterError, all_words, commutes, is_primitive
from support import naive_cross_set, naive_imprimitive_code_words


def test_binary_code_rejects_commuting_or_empty():
    with pytest.raises(ValueError):
        BinaryCode("ab", "abab")
    with pytest.raises(ValueError):
        BinaryCode("", "a")
    with pytest.raises(ValueError):
        BinaryCode("a", "")
    BinaryCode("ab", "a")  # fine


def test_code_word_expansion():
    code = BinaryCode("ab", "a")
    w = CodeWord(code, "xyx")
    assert w.expansion == "abaab"
    assert len(w.letters) == 3
    with pytest.raises(ValueError):
        CodeWord(code, "xz")


def test_expand_rejects_letters_outside_xy():
    # a letter other than x is not read as y
    code = BinaryCode("ab", "a")
    assert code.expand("") == ""
    assert code.expand("yxy") == "aaba"
    for letters in ("xz", "zx", "xzy", "X"):
        with pytest.raises(ValueError, match="code letters must be over 'xy'"):
            code.expand(letters)


def test_decode_examples():
    code = BinaryCode("ab", "a")
    assert decode("abaab", code).letters == "xyx"
    assert decode("", code).letters == ""
    assert decode("b", code) is None


def test_decode_agrees_with_factorization_count():
    # every w of length <= 12 for every code with |x|, |y| <= 2 and a
    # handful of longer ones, checking the none/unique split against the
    # independent counting DP
    short = [(x, y) for x in all_words(2, "ab") for y in all_words(2, "ab") if not commutes(x, y)]
    for x, y in short + [("aba", "baab"), ("aab", "b"), ("a", "bab")]:
        code = BinaryCode(x, y)
        for w in all_words(12, "ab", min_len=0):
            n = count_factorizations(w, x, y)
            assert n <= 1
            got = decode(w, code)
            if n == 0:
                assert got is None
            else:
                assert got is not None and got.expansion == w


def test_decode_long_words_without_recursion():
    # words far longer than the default recursion limit of 1000
    code = BinaryCode("a", "ab")
    assert decode("a" * 1200 + "b", code).letters == "x" * 1199 + "y"
    assert decode("a" * 2000 + "bb", code) is None
    letters = ("xxy" * 700 + "yx" * 300)[:2500]
    for x, y in [("a", "ab"), ("ab", "a"), ("aba", "baab"), ("a", "b")]:
        code = BinaryCode(x, y)
        assert decode(code.expand(letters), code).letters == letters


def test_unique_decoding_all_small_codes():
    # all non-commuting codes with |x|, |y| <= 4, every w of length 12
    # (the count DP covers each prefix of w along the way, so length 12
    # subsumes the shorter words); quotient by the two symmetries that
    # preserve factorization counts: swapping x and y, and relabelling
    # the alphabet letters
    swap = str.maketrans("ab", "ba")
    words = [w for w in all_words(4, "ab")]
    seen = set()
    codes = []
    for x in words:
        for y in words:
            if commutes(x, y):
                continue
            orbit = {(x, y), (y, x), (x.translate(swap), y.translate(swap)),
                     (y.translate(swap), x.translate(swap))}
            rep = min(orbit)
            if rep in seen:
                continue
            seen.add(rep)
            codes.append(rep)
    for x, y in codes:
        code = BinaryCode(x, y)
        for w in map("".join, product("ab", repeat=12)):
            n = count_factorizations(w, x, y)
            assert n <= 1, (x, y, w)
            if n == 1:
                got = decode(w, code)
                assert got is not None and got.expansion == w


def test_cross_set_examples():
    hits = imprimitive_in_cross_set(BinaryCode("aba", "baab"), 6)
    assert [c.letters for c in hits] == ["xxy"]
    assert hits[0].expansion == "abaab" * 2
    assert imprimitive_in_cross_set(BinaryCode("a", "ab"), 6) == []
    assert imprimitive_in_cross_set(BinaryCode("ab", "ba"), 1) == []
    assert is_primitive("abba")
    with pytest.raises(ValueError):
        imprimitive_in_cross_set(BinaryCode("a", "b"), 0)


def test_cross_set_matches_naive_reference():
    hits = 0
    for x in all_words(3, "ab"):
        for y in all_words(3, "ab"):
            if commutes(x, y):
                continue
            code = BinaryCode(x, y)
            for max_exp in range(1, 7):
                got = [c.letters for c in imprimitive_in_cross_set(code, max_exp)]
                assert got == naive_cross_set(code, max_exp), (x, y, max_exp)
                hits += len(got)
    assert hits > 0


def test_imprimitive_set_example():
    result = x_primitive_imprimitive_set(BinaryCode("aba", "baab"), 3)
    assert result.shape == "x-centered"
    assert result.k == 2
    assert [c.letters for c in result.members] == ["xxy", "xyx", "yxx"]
    assert [c.expansion for c in result.members] == [
        "abaab" * 2,
        "ababa" * 2,
        "baaba" * 2,
    ]
    assert result.to_json_obj() == {
        "shape": "x-centered",
        "k": 2,
        "members": ["xxy", "xyx", "yxx"],
    }


def test_imprimitive_set_empty_cases():
    assert x_primitive_imprimitive_set(BinaryCode("a", "b"), 4).shape == "empty"
    assert x_primitive_imprimitive_set(BinaryCode("ab", "a"), 3).shape == "empty"
    with pytest.raises(ValueError):
        x_primitive_imprimitive_set(BinaryCode("a", "b"), 1)


def test_imprimitive_set_y_centered_exists():
    # same construction with the roles of x and y exchanged
    result = x_primitive_imprimitive_set(BinaryCode("baab", "aba"), 3)
    assert result.shape == "y-centered"
    assert result.k == 2


def test_classify_x_power():
    code = BinaryCode("aba", "baab")
    assert classify_x_power(CodeWord(code, "xxy"), 2) == PowerShape("x", 2, 0)
    assert classify_x_power(CodeWord(code, "xyx"), 2) == PowerShape("x", 1, 1)
    mirror = BinaryCode("baab", "aba")
    assert classify_x_power(CodeWord(mirror, "yyx"), 2) == PowerShape("y", 2, 0)
    with pytest.raises(ValueError):
        classify_x_power(CodeWord(code, "xyxy"), 2)
    with pytest.raises(ValueError):
        classify_x_power(CodeWord(code, "xy"), 2)  # expansion "ababaab" is primitive
    with pytest.raises(ValueError):
        classify_x_power(CodeWord(code, "xxy"), 1)


@pytest.mark.parametrize("call", [
    lambda: imprimitive_in_cross_set(BinaryCode("a", "b"), 0),
    lambda: x_primitive_imprimitive_set(BinaryCode("a", "b"), 1),
    lambda: check_imprimitive_set_shape(max_word_len=3, max_code_len=1),
    lambda: classify_x_power(CodeWord(BinaryCode("aba", "baab"), "xxy"), 1),
    # an empty code word fits anywhere, so the factorization count is unbounded
    lambda: count_factorizations("aa", "a", ""),
    lambda: count_factorizations("a", "", "a"),
    lambda: count_factorizations("", "", ""),
])
def test_parameter_range_errors_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_classify_single_letter_powers():
    # an imprimitive code word itself: x = aa is a square
    code = BinaryCode("aa", "ab")
    assert classify_x_power(CodeWord(code, "x"), 2) == PowerShape("y", 0, 0)


def test_code_words_enumeration():
    code = BinaryCode("a", "b")
    got = [c.letters for c in code_words(code, 2)]
    assert got == ["x", "y", "xx", "xy", "yx", "yy"]
    for max_code_len in range(0, 7):
        want = ["".join(t) for n in range(1, max_code_len + 1) for t in product("xy", repeat=n)]
        got = list(code_words(code, max_code_len))
        assert [c.letters for c in got] == want
        assert all(c.code is code for c in got)


def test_expansion_table_matches_code_words():
    # every non-commuting pair with |x|, |y| <= 3, code lengths 1 to 7:
    # one expansion per necklace stands for all of its rotations
    pairs = [(x, y) for x in all_words(3, "ab") for y in all_words(3, "ab") if not commutes(x, y)]
    assert len(pairs) == 170
    members = 0
    for x, y in pairs:
        code = BinaryCode(x, y)
        for max_code_len in range(1, 8):
            table = imprimitive_code_words(code, max_code_len)
            assert table == naive_imprimitive_code_words(code, max_code_len), (x, y, max_code_len)
            members += len(table)
    assert members > 0


def test_expansion_table_takes_code_letters_in_either_word():
    # an x that holds the letter y is expanded by the translate table, any
    # other code by the two replaces; y = "x" is expanded once either way
    assert x_primitive_imprimitive_set(BinaryCode("y", "yz"), 3).shape == "empty"
    assert imprimitive_code_words(BinaryCode("xy", "x"), 3) == []
    for x, y in [("y", "yz"), ("xy", "x"), ("y", "x"), ("yxy", "x"), ("axa", "x")]:
        code = BinaryCode(x, y)
        for max_code_len in range(8):
            assert imprimitive_code_words(code, max_code_len) == naive_imprimitive_code_words(
                code, max_code_len), (x, y, max_code_len)
    for x in ("yxy", "axa"):
        assert imprimitive_code_words(BinaryCode(x, "x"), 3) == [("xy", 2), ("yx", 2)]


@pytest.mark.parametrize("max_len", range(-1, 10))
def test_lyndon_words_are_the_least_rotations(max_len):
    # a Lyndon word is primitive and strictly below its other rotations
    want = [w for w in all_words(max_len, "xy")
            if all(w < w[r:] + w[:r] for r in range(1, len(w)))]
    assert lyndon_words(max_len) == sorted(want)
    assert len(lyndon_words(4)) == 8 and len(lyndon_words(7)) == 41
