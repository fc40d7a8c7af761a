"""Binary codes {x, y}: decoding and imprimitive expansions.

Two non-commuting words form a code, so every product of x's and y's
has a unique factorization.  Words of the free monoid over the code are
represented by their code-letter sequence, a string over "xy".
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple

from .words import ParameterError, all_words, commutes, exponent, is_primitive

CODE_LETTERS = "xy"

SHAPE_EMPTY = "empty"
SHAPE_X_CENTERED = "x-centered"
SHAPE_Y_CENTERED = "y-centered"


# A NamedTuple body may not define __new__, so the checked types subclass one.
class _Code(NamedTuple):
    x: str
    y: str


class BinaryCode(_Code):
    """An ordered pair of non-commuting words regarded as the code {x, y}."""

    __slots__ = ()

    def __new__(cls, x: str, y: str) -> BinaryCode:
        if not x or not y:
            raise ValueError("code words must be non-empty")
        if commutes(x, y):
            raise ValueError(f"{x!r} and {y!r} commute, not a code")
        return super().__new__(cls, x, y)

    def expand(self, letters: str) -> str:
        """Substitute x and y into a code-letter sequence."""
        if letters.strip(CODE_LETTERS):
            raise ValueError(f"code letters must be over {CODE_LETTERS!r}")
        return letters.translate({ord("x"): self.x, ord("y"): self.y})


class _CodeLetters(NamedTuple):
    code: BinaryCode
    letters: str


class CodeWord(_CodeLetters):
    """An element of {x, y}* given by its sequence of code letters."""

    __slots__ = ()

    def __new__(cls, code: BinaryCode, letters: str) -> CodeWord:
        if letters.strip(CODE_LETTERS):
            raise ValueError(f"code letters must be over {CODE_LETTERS!r}")
        return super().__new__(cls, code, letters)

    @property
    def expansion(self) -> str:
        return self.code.expand(self.letters)


def decode(w: str, code: BinaryCode) -> CodeWord | None:
    """Factor w over {x, y}, or None when no factorization exists.

    A forward pass marks every position at which a product of x's and
    y's can end, and the factorization is read back from the end of w.
    Since {x, y} is a code every marked prefix has a unique
    factorization, so at most one code letter ends it at a marked
    position and the read-back follows that one; the property suite
    certifies uniqueness independently.
    """
    x, y = code.x, code.y
    reach = [True] + [False] * len(w)
    for pos in range(len(w)):
        if reach[pos]:
            for c in (x, y):
                if w.startswith(c, pos):
                    reach[pos + len(c)] = True
    if not reach[-1]:
        return None
    out = []
    pos = len(w)
    while pos:
        if w.endswith(x, 0, pos) and reach[pos - len(x)]:
            out.append("x")
            pos -= len(x)
        else:
            out.append("y")
            pos -= len(y)
    return CodeWord(code, "".join(reversed(out)))


def count_factorizations(w: str, x: str, y: str) -> int:
    """Number of ways to write w as a product of copies of x and y.

    Plain dynamic program, independent of decode; used to certify that
    non-commuting words admit at most one factorization.  An empty x or
    y would make the count unbounded, so it raises ParameterError.
    """
    if not x or not y:
        raise ParameterError("x and y must be non-empty")
    ways = [0] * (len(w) + 1)
    ways[0] = 1
    for pos in range(1, len(w) + 1):
        if len(x) <= pos and w[pos - len(x):pos] == x:
            ways[pos] += ways[pos - len(x)]
        if y != x and len(y) <= pos and w[pos - len(y):pos] == y:
            ways[pos] += ways[pos - len(y)]
    return ways[len(w)]


def code_words(code: BinaryCode, max_code_len: int) -> Iterator[CodeWord]:
    """All code words of code length 1..max_code_len, shortest first."""
    for w in all_words(max_code_len, CODE_LETTERS):
        yield CodeWord(code, w)


def imprimitive_in_cross_set(code: BinaryCode, max_exp: int) -> list[CodeWord]:
    """Members of {x y^n} u {x^n y}, 1 <= n <= max_exp, whose expansion is imprimitive.

    By the Lentin and Schuetzenberger result the whole (unbounded) cross
    set contains at most one imprimitive word, so this list has length
    0 or 1; the property suite asserts that.
    """
    if max_exp < 1:
        raise ParameterError("max_exp must be >= 1")
    x, y = code.x, code.y
    found = []
    for n in range(1, max_exp + 1):
        if exponent(x * n + y) > 1:
            found.append(CodeWord(code, "x" * n + "y"))
        if n > 1 and exponent(x + y * n) > 1:
            found.append(CodeWord(code, "x" + "y" * n))
    return found


class ImprimitiveSet(NamedTuple):
    """The code-primitive words beyond x and y whose expansions are proper powers.

    The set is either empty or, for a single k >= 1, consists of exactly
    the k+1 arrangements of one y among k x's (x-centered) or of one x
    among k y's (y-centered).
    """

    shape: str
    k: int | None
    members: tuple[CodeWord, ...]

    def to_json_obj(self) -> dict:
        return {
            "shape": self.shape,
            "k": self.k,
            "members": [c.letters for c in self.members],
        }


def _centered_family(repeated: str, single: str, k: int) -> set[str]:
    return {repeated * i + single + repeated * (k - i) for i in range(k + 1)}


def lyndon_words(max_len: int) -> list[str]:
    """The Lyndon words over "xy" of 1..max_len letters, in lexicographic order.

    Duval's generation: repeat the last word up to max_len letters, drop
    the trailing "y"s and turn the last "x" into "y".

    >>> lyndon_words(3)
    ['x', 'xxy', 'xy', 'xyy', 'y']
    """
    found = []
    w = "x" if max_len >= 1 else ""
    while w:
        found.append(w)
        w = (w * (max_len // len(w) + 1))[:max_len].rstrip("y")
        if w:
            w = w[:-1] + "y"
    return found


def letter_count_groups(lyndon: list[str]) -> list[tuple[int, int, list[str]]]:
    """The words of ``lyndon`` as (p, q, words): those with p x's and q y's, in first-met order.

    >>> letter_count_groups(["x", "xxy", "xy", "xyy", "y"])
    [(1, 0, ['x']), (2, 1, ['xxy']), (1, 1, ['xy']), (1, 2, ['xyy']), (0, 1, ['y'])]
    """
    groups: dict[tuple[int, int], list[str]] = {}
    for w in lyndon:
        groups.setdefault((w.count("x"), w.count("y")), []).append(w)
    return [(p, q, words) for (p, q), words in groups.items()]


def imprimitive_table(x: str, y: str, groups: list[tuple[int, int, list[str]]]) -> list[tuple[str, int]]:
    """imprimitive_code_words of the code {x, y}, given letter_count_groups(lyndon_words(max_code_len)).

    Rotating a code word by one code letter rotates its expansion, and a
    conjugate of an m-th power is an m-th power.  The code-primitive
    words are the rotations of the Lyndon words, each necklace of n
    letters having n of them, so one expansion per necklace decides all
    of its words.  An m-th power has a length and letter counts that m
    divides.  A word with p x's and q y's expands to p |x| + q |y|
    letters, p #c(x) + q #c(y) of them the first letter c of x, so a
    group where these two numbers have gcd 1 holds no power and is
    skipped whole.  Over two letters that is the gcd of the two letter
    counts.  Two replaces expand a word faster than a translate, but
    when x holds the letter y the second would expand it again, so such
    a code takes the translate.
    """
    table = {ord("x"): x, ord("y"): y} if "y" in x else None
    c = x[0]
    cx, cy, nx, ny = x.count(c), y.count(c), len(x), len(y)
    found = []
    for p, q, words in groups:
        if gcd(p * cx + q * cy, p * nx + q * ny) == 1:
            continue
        for w in words:
            m = exponent(w.translate(table) if table else w.replace("x", x).replace("y", y))
            if m > 1:
                found.extend((w[r:] + w[:r], m) for r in range(len(w)))
    found.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return found


def imprimitive_code_words(code: BinaryCode, max_code_len: int) -> list[tuple[str, int]]:
    """Code-primitive words up to max_code_len letters whose expansion is a proper power.

    Returns (letters, exponent of the expansion) in code_words order.
    """
    return imprimitive_table(code.x, code.y, letter_count_groups(lyndon_words(max_code_len)))


def classify_imprimitive_set(code: BinaryCode, table: list[tuple[str, int]]) -> ImprimitiveSet:
    """Classify the members of code length >= 2 of an imprimitive_code_words table.

    All members share one code length k+1, so the bounded view either
    sees the complete family or nothing.  A set that matches neither
    centered family would contradict the classification and raises; that
    path is unreachable.
    """
    members = [letters for letters, _ in table if len(letters) >= 2]
    if not members:
        return ImprimitiveSet(SHAPE_EMPTY, None, ())
    k = len(members[0]) - 1
    found = set(members)
    for shape, repeated, single in ((SHAPE_X_CENTERED, "x", "y"), (SHAPE_Y_CENTERED, "y", "x")):
        if found == _centered_family(repeated, single, k):
            return ImprimitiveSet(shape, k, tuple(CodeWord(code, c) for c in sorted(members)))
    raise RuntimeError(
        f"imprimitive-set shape violation for x={code.x!r} y={code.y!r}: {sorted(found)}"
    )


def x_primitive_imprimitive_set(code: BinaryCode, max_code_len: int) -> ImprimitiveSet:
    """Collect and classify the code-primitive imprimitive words up to a code length."""
    if max_code_len < 2:
        raise ParameterError("max_code_len must be >= 2")
    return classify_imprimitive_set(code, imprimitive_code_words(code, max_code_len))


class PowerShape(NamedTuple):
    """Shape of a code word: `repeated`^k single `repeated`^ell."""

    repeated: str
    k: int
    ell: int


def classify_x_power(c: CodeWord, i: int) -> PowerShape:
    """Shape of a code-primitive word whose expansion is an i-th power.

    Such a word carries exactly one occurrence of one code letter; the
    result names the other, repeated letter and the split around the
    single one.  Raises if c is not code-primitive or its expansion is
    not an i-th power.
    """
    if i < 2:
        raise ParameterError("exponent must be >= 2")
    if not c.letters or not is_primitive(c.letters) or exponent(c.expansion) % i:
        raise ValueError("not an imprimitive X-primitive word")
    for single, repeated in (("y", "x"), ("x", "y")):
        if c.letters.count(single) == 1:
            k = c.letters.index(single)
            return PowerShape(repeated, k, len(c.letters) - k - 1)
    raise RuntimeError(f"power-shape violation: {c.letters}")
