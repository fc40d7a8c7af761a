"""Bounded exhaustive solver for x^i y^j x^k = u^i v^j u^k.

Two morphisms g, h on the letters a, b agree on the pattern a^i b^j a^k
exactly when the images (x, y) = (g(a), g(b)) and (u, v) = (h(a), h(b))
satisfy the equation above.  The pattern forces periodicity up to a
length bound when every solution with (x, y) != (u, v) found within the
bound is periodic, i.e. all four images are powers of a single word.

The search fixes the four lengths first.  Both sides have the same
shape, so a length tuple (|x|, |y|, |u|, |v|) is an ordered pair of
sides (a, b) with (i + k) a + j b = n, the length of the common value,
and the side swap swaps the pair.  For each n within the bound the two
sides spell one word of length n, so the positions of x, y, u and v
that meet at each of its n positions must carry the same letter.  A
side names each position of the common value by its first meeting, the
first position that carries the same letter of the same word.  So
union-find over the common value's positions, started from the u/v
first meetings and joining each position to its x/y first meeting,
gives the c classes, and the solutions are exactly the alphabet^c
letter assignments to the classes; no word is guessed and checked.  A
tuple with |u| = |x| forces u = x and v = y, so the trivial solutions
are skipped without looking at any word.

``enumerate_solutions`` never lists the solutions: it walks n = 1, 2,
... and, for each n, the unordered pairs of its sides, so a tuple and its
side swap are one visit.  It builds each side's first meetings once,
for its own n only, and unions each primitive tuple (gcd 1) once from
its two sides' lists.  It decides the tuple's multiples within the bound
from the same classes copied per residue, computes ``total_solutions``
as the sum of alphabet^c over the tuples, once per pair of common-value
length and class count, and builds words only for non-periodic
assignments, told by their class labels, one per symmetry orbit (see
``enumerate_solutions`` for why that is exact and which images it
names).  ``iter_solutions`` stays the raw enumerator.

The search runs in one process.  The ``shards`` argument is accepted and
validated for compatibility but starts no processes, so reports are
byte-identical for every shard count by construction.
"""

from __future__ import annotations

import json
from collections import Counter
from heapq import merge
from itertools import chain, combinations, combinations_with_replacement, product
from math import gcd
from typing import Iterator, NamedTuple

from .words import LETTERS, ParameterError, alphabet, commutes


class Exponents(NamedTuple):
    i: int
    j: int
    k: int


class EquationInstance(NamedTuple):
    """A candidate quadruple (x, y, u, v) for given exponents."""

    exps: Exponents
    x: str
    y: str
    u: str
    v: str

    def lhs(self) -> str:
        i, j, k = self.exps
        return self.x * i + self.y * j + self.x * k

    def rhs(self) -> str:
        i, j, k = self.exps
        return self.u * i + self.v * j + self.u * k

    def words(self) -> tuple[str, str, str, str]:
        return (self.x, self.y, self.u, self.v)

    def to_json_obj(self) -> dict:
        return {"x": self.x, "y": self.y, "u": self.u, "v": self.v}


def check(inst: EquationInstance) -> bool:
    """Letter-for-letter equality of the two sides."""
    return inst.lhs() == inst.rhs()


def is_periodic_solution(inst: EquationInstance) -> bool:
    """True iff the non-empty words among x, y, u, v share one primitive root.

    Non-empty words share a primitive root iff they commute, so every
    word is tested against the first non-empty one.
    """
    if not check(inst):
        raise ValueError("not a solution")
    first = next((w for w in inst.words() if w), "")
    return all(commutes(first, w) for w in inst.words())


def theorem_applies(exps: Exponents) -> bool:
    """Exponent range in which the pattern is known to force periodicity."""
    i, j, k = exps
    return j >= 3 and i + k >= 3 and i >= 1 and k >= 1


def _validate_search_args(exps: Exponents, alphabet_size: int, max_total_len: int,
                          shards: int = 1, *, allow_empty: bool = False) -> str:
    """Raise ParameterError unless the search parameters are in range; return the letters.

    The least bound is the shortest common value: i + j + k, or 1 with empty words.
    """
    i, j, k = exps
    if i < 0 or j < 0 or k < 0:
        raise ParameterError("exponents must be non-negative")
    if j == 0 or i + k == 0:
        raise ParameterError(
            "need j >= 1 and i + k >= 1, otherwise one unknown pair is unconstrained")
    letters = alphabet(alphabet_size)
    if max_total_len < (1 if allow_empty else i + j + k):
        need = "1 with empty words" if allow_empty else f"i + j + k = {i + j + k}"
        raise ParameterError(f"bound too small: need at least {need}")
    if shards < 1:
        raise ParameterError("shards must be >= 1")
    return letters


def _sides(exps: Exponents, bound: int, lo: int) -> dict[int, list[tuple[int, int]]]:
    """For 1 <= n <= bound, n -> every (a, b) with (i + k) a + j b = n and a, b >= lo.

    Each list is in ascending a, and the keys are exactly the n that
    have a side.
    """
    i, j, k = exps
    table: dict[int, list[tuple[int, int]]] = {}
    for a in range(lo, (bound - j * lo) // (i + k) + 1):
        for b in range(lo, (bound - (i + k) * a) // j + 1):
            if n := (i + k) * a + j * b:
                table.setdefault(n, []).append((a, b))
    return table


def _side_positions(exps: Exponents, a: int, b: int) -> list[int]:
    """Where each letter of the side (a, b)'s two words first occurs in the common value.

    The side spells w^i z^j w^k with |w| = a and |z| = b.  The list
    holds w's letters, then z's: w first occurs at letter 0, or with
    i = 0 at the first letter of the trailing w^k, and z at letter i a.
    """
    i, j, _ = exps
    a0 = 0 if i else j * b
    return [*range(a0, a0 + a), *range(i * a, i * a + b)]


def _first_meetings(exps: Exponents, a: int, b: int) -> list[int]:
    """The first meeting of each position t of the common value the side (a, b) spells.

    That is the first position that carries the same letter of the same
    word as t, so first[t] <= t and first[first[t]] == first[t].
    """
    i, j, k = exps
    first = _side_positions(exps, a, b)
    ws, zs = first[:a], first[a:]
    return ws * i + zs * j + ws * k


def _union_positions(first_xy: list[int], first_uv: list[int], count: int) -> tuple[int, list[int]]:
    """Union the positions of the common value that carry one letter of x^i y^j x^k = u^i v^j u^k.

    ``first_xy`` and ``first_uv`` are the two sides' ``_first_meetings``,
    and ``count`` is |u| + |v|.  Positions t and first_xy[t] carry the
    same letter of x or y, and t and first_uv[t] the same of u or v, so
    the classes of the letters of x, y, u and v are the classes of the
    common value's positions under both relations.  The forest starts
    as a copy of first_uv: every position already points at its u or v
    first meeting, a root, so it holds |u| + |v| trees and
    parent[t] <= t.  Then each t joins first_xy[t], as the pair of their
    u/v first meetings; a pair that is one position is skipped.  The walk
    runs from the end of the common value: at the start, x and y first
    meet u and v at pairs that often are one position already, so going
    backward reaches a single tree in fewer pairs.  The smaller index
    becomes the root, so parent[t] <= t stays.  Returns the class count
    and the forest.
    """
    parent = first_uv.copy()
    for p, q in zip(map(first_uv.__getitem__, reversed(first_xy)), reversed(first_uv)):
        if p == q:
            continue
        while p != parent[p]:
            parent[p] = p = parent[parent[p]]
        while q != parent[q]:
            parent[q] = q = parent[parent[q]]
        if p < q:
            parent[q] = p
        elif q < p:
            parent[p] = q
        else:
            continue
        count -= 1
        if count == 1:
            break  # a single tree joins every later pair
    return count, parent


def _first_occurrence_labels(parent: list[int], xy: list[int], uv: list[int]) -> list[int]:
    """The class of every letter of x, y, u and v, numbered by first occurrence.

    ``parent`` is a ``_union_positions`` forest, and ``xy`` and ``uv``
    are the two sides' ``_side_positions``: where each letter of x and
    y, then of u and v, first occurs in the common value.  Each is
    followed to its root, halving the path on the way, and the roots
    are named 0, 1, 2, ... in the order the letters reach them along
    x y u v, so the labels depend on the partition alone.
    """
    names: dict[int, int] = {}
    label = []
    for q in chain(xy, uv):
        while q != parent[q]:
            parent[q] = q = parent[parent[q]]
        label.append(names.setdefault(q, len(names)))
    return label


def _residue_labels(label: list[int], g: int) -> list[int]:
    """The classes of the g-scaled tuple, given the labels of the unscaled one.

    Every word of the scaled tuple starts at a multiple of g, so position
    q g + r joins as position q of the unscaled tuple does, within
    residue r.  Class C g + r is (unscaled class C, residue r).  An
    unscaled class's g residues first occur together and in order, so
    first-occurrence labels stay first-occurrence labels.
    """
    return [C * g + r for C in label for r in range(g)]


def _tuple_solutions(
    exps: Exponents, letters: str, lx: int, ly: int, lu: int, lv: int
) -> Iterator[tuple[str, str, int, str, str]]:
    """Every solution with the given four lengths as (x, y, |u|, u, v), sorted by (x, y).

    The solutions are exactly the letter assignments to the position
    classes.  Classes are numbered by first occurrence, and each meets
    x y, since every position of u and v meets one of x or y; so the
    assignments in product order give x y in lexicographic order.
    """
    first_xy, first_uv = _first_meetings(exps, lx, ly), _first_meetings(exps, lu, lv)
    count, parent = _union_positions(first_xy, first_uv, lu + lv)
    label = _first_occurrence_labels(parent, _side_positions(exps, lx, ly),
                                     _side_positions(exps, lu, lv))
    a, b, c = lx, lx + ly, lx + ly + lu
    for assignment in product(letters, repeat=count):
        s = "".join([assignment[t] for t in label])
        yield s[:a], s[a:b], lu, s[b:c], s[c:]


def _word_tuple(
    letters: str, growth: list[int], scaled: list[int], cuts: tuple[int, int, int]
) -> tuple[str, str, str, str]:
    """(x, y, u, v) when class c carries letters[growth[c]], cut at |x|, |x y| and |x y u|."""
    a, b, c = cuts
    s = "".join([letters[growth[t]] for t in scaled])
    return s[:a], s[a:b], s[b:c], s[c:]


def _restricted_growth(count: int, size: int) -> Iterator[list[int]]:
    """Every restricted-growth string of the given length with at most ``size`` blocks.

    ``r[0] = 0`` and each later ``r[t]`` is at most ``1 + max(r[:t])`` and
    below ``size``.  Every map from ``count`` classes into ``size``
    letters is a relabelling of exactly one such string.  One list is
    yielded each time, updated in place.
    """
    r = [0] * count
    top = [0] * count  # top[t] == max(r[:t + 1])
    while True:
        yield r
        t = count - 1
        while t > 0 and (r[t] > top[t - 1] or r[t] == size - 1):
            t -= 1
        if t == 0:
            return
        r[t] += 1
        top[t] = max(top[t - 1], r[t])
        r[t + 1:] = [0] * (count - t - 1)
        top[t + 1:] = [top[t]] * (count - t - 1)


def iter_solutions(
    exps: Exponents | tuple[int, int, int],
    alphabet_size: int,
    max_total_len: int,
    *,
    distinct_only: bool = True,
    allow_empty: bool = False,
) -> Iterator[EquationInstance]:
    """Every solution quadruple within the bound, sorted by (|x|, |y|, x, y, |u|).

    The search takes the sides (|x|, |y|) of all common-value lengths
    within the bound in ascending order, lazily one at a time: the
    length tuples each makes with the sides (|u|, |v|) of its own length
    are merged in (x, y, |u|) order.  The parameters are checked at the
    call, before the first solution is asked for.
    """
    exps = Exponents(*exps)
    letters = _validate_search_args(exps, alphabet_size, max_total_len, allow_empty=allow_empty)
    return _solutions(exps, letters, max_total_len, distinct_only, allow_empty)


def _solutions(exps: Exponents, letters: str, max_total_len: int, distinct_only: bool,
               allow_empty: bool) -> Iterator[EquationInstance]:
    """The generator behind ``iter_solutions``, given parameters already checked."""
    i, j, k = exps
    lo = 0 if allow_empty else 1
    sides = _sides(exps, max_total_len, lo)
    for lx, ly in sorted(side for uv in sides.values() for side in uv):
        # |u| = |x| forces u = x and v = y; every other tuple gives distinct solutions
        streams = [_tuple_solutions(exps, letters, lx, ly, lu, lv)
                   for lu, lv in sides[(i + k) * lx + j * ly] if not (distinct_only and lu == lx)]
        for x, y, _, u, v in merge(*streams):
            yield EquationInstance(exps, x, y, u, v)


def _named(words: tuple[str, ...]) -> tuple[str, ...]:
    """``words`` with their letters renamed a, b, c, ... in order of first occurrence."""
    seen = "".join(dict.fromkeys("".join(words)))
    table = str.maketrans(seen, LETTERS[:len(seen)])
    return tuple(w.translate(table) for w in words)


def _mirror_classes(scaled: list[int], cuts: tuple[int, int, int]) -> list[int]:
    """sigma[c], the class at the mirrored position of each class c of ``scaled``.

    The mirror reverses each of the four words, which the cuts delimit.
    It maps a solution of an i == k length tuple to another, so it maps
    whole classes to classes; ``scaled`` is numbered by first occurrence,
    so the dict's keys come in the order 0, 1, 2, ...
    """
    a, b, c = cuts
    mirrored = scaled[:a][::-1] + scaled[a:b][::-1] + scaled[b:c][::-1] + scaled[c:][::-1]
    return list(dict(zip(scaled, mirrored)).values())


def _mirror_is_less(r: list[int], sigma: list[int]) -> bool:
    """True iff the growth string of the named mirror of ``r`` is less than ``r``.

    The mirror assigns r[sigma[c]] to class c, and naming it by first
    occurrence renumbers that string as a restricted-growth string; the
    two are compared up to their first difference.
    """
    names: dict[int, int] = {}
    for c, m in zip(r, sigma):
        d = names.setdefault(r[m], len(names))
        if d != c:
            return d < c
    return False


def canonical_instance(inst: EquationInstance, alphabet_size: int) -> EquationInstance:
    """Lexicographically least member of the instance's symmetry orbit.

    Symmetries: relabelling the alphabet, swapping the two sides of the
    equation, and, when i == k, mirroring (reversing every word).  The
    mirror of a solution with i != k solves the reversed exponents and
    therefore stays out of this orbit.

    Relabelling keeps word lengths, so the least relabelling of a tuple
    names its letters a, b, c, ... in order of first occurrence; the
    cost does not depend on the alphabet.  The result is the least of
    the named tuple, its named side swap and, when i == k, the named
    mirrors of both.
    """
    alphabet(alphabet_size)  # raises ParameterError on a bad size
    used = len(set("".join(inst.words())))
    if used > alphabet_size:
        raise ValueError(f"{used} distinct letters exceed the alphabet of {alphabet_size}")
    i, _, k = inst.exps
    words = inst.words()
    images = [words, words[2:] + words[:2]]
    if i == k:
        images += [tuple(w[::-1] for w in image) for image in images]
    return EquationInstance(inst.exps, *min(map(_named, images)))


class SolutionReport(NamedTuple):
    """Classified output of the enumeration.

    ``total_solutions`` counts the raw quadruples; ``nonperiodic`` holds
    one canonical representative per symmetry orbit of the non-periodic
    ones.  ``solutions`` re-runs the raw search on each access.
    """

    exps: Exponents
    alphabet_size: int
    bound: int
    total_solutions: int
    nonperiodic: tuple[EquationInstance, ...]
    distinct_only: bool
    allow_empty: bool

    @property
    def solutions(self) -> Iterator[EquationInstance]:
        """Every raw quadruple in ``iter_solutions`` order, found afresh."""
        return iter_solutions(self.exps, self.alphabet_size, self.bound,
                              distinct_only=self.distinct_only, allow_empty=self.allow_empty)

    @property
    def periodic_only(self) -> bool:
        return not self.nonperiodic

    def to_json_obj(self) -> dict:
        i, j, k = self.exps
        return {
            "i": i,
            "j": j,
            "k": k,
            "alphabet": self.alphabet_size,
            "bound": self.bound,
            "total_solutions": self.total_solutions,
            "periodic_only": self.periodic_only,
            "nonperiodic": [inst.to_json_obj() for inst in self.nonperiodic],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def enumerate_solutions(
    exps: Exponents | tuple[int, int, int],
    alphabet_size: int,
    max_total_len: int,
    *,
    distinct_only: bool = True,
    allow_empty: bool = False,
    shards: int = 1,
) -> SolutionReport:
    """Count the solutions within the bound and find the non-periodic orbits.

    The bound limits the length of the common value x^i y^j x^k.  With
    ``distinct_only`` the trivial solutions (x, y) == (u, v) are skipped.
    ``shards`` must be >= 1 and is otherwise ignored: the search runs in
    one process, so the report is the same for any shard count.

    Each length tuple t = (|x|, |y|, |u|, |v|) is decided from its class
    count c(t), without listing its a^c(t) solutions (a the alphabet
    size).  Let g = gcd(t).

    - c(m t) = m c(t).  In the m-scaled system every word starts at a
      multiple of m in the common value, so each position equality joins
      two positions of the same residue mod m, and the positions of
      residue r join exactly as the unscaled positions do.  So
      c(t) = g c(t / g): only primitive tuples t0 (gcd 1) are unioned,
      once each, and every multiple g t0 within the bound is decided
      from c(t0), with the classes of ``_residue_labels``.
    - Exactly a^g solutions of t are periodic: every common root has a
      length dividing g, so they are the powers of the a^g words s of
      length g.  Each s gives the one solution whose class C g + r (see
      ``_residue_labels``) carries s[r].
    - So t has a non-periodic solution iff c(t / g) > 1, and only those
      tuples get assignments, one per relabelling orbit; a growth string
      that repeats its first g letters is periodic and skipped unbuilt.
      The growth string names the classes by first occurrence, so its
      word tuple is already named a, b, c, ... in reading order.
    - The side swap (|u|, |v|, |x|, |y|) joins the same positions, so it
      has the same class count, and swapping the sides maps its solutions
      one to one onto those of t, keeping periodicity.  The swapped
      solutions lie in the orbits ``canonical_instance`` already folds,
      so the walk visits the unordered pairs of sides of each length n
      (the diagonal pairs, |u| = |x|, only without ``distinct_only``),
      and an off-diagonal pair counts twice.  So the walk meets each
      orbit in one growth string, and when i == k also in that of its
      mirror, which keeps every length.
    - The side swap is named only when u does not start with x.  The
      walk has |x| <= |u|, and if x is a prefix of u, the named swap
      starts with named u, whose first |x| letters are named exactly as
      x is, so the swap is not less than the candidate.  With i >= 1
      every solution has x as a prefix of u, so no swap is ever named;
      with i = 0 a candidate whose u does not start with x is replaced
      by its named swap when that is less.  With i == k (so k >= 1) x
      is also a suffix of u, so each mirrored swap is likewise not less
      than its mirror, and only the mirror is left to judge.
    - With i == k the mirror permutes the classes: sigma[c] is the class
      at the mirrored position of class c.  The named mirror of growth
      string r is r o sigma renumbered by first occurrence, and since the
      classes are numbered by first occurrence, two named word tuples of
      one length tuple compare as their growth strings do.  So r is kept,
      and built, iff r is at most its mirror's growth string.  Each
      orbit's word tuple is then built exactly once, so the
      representatives are collected in a list, not a set.
    """
    exps = Exponents(*exps)
    letters = _validate_search_args(exps, alphabet_size, max_total_len, shards,
                                    allow_empty=allow_empty)
    i, _, k = exps
    lo = 0 if allow_empty else 1
    pairs = combinations if distinct_only else combinations_with_replacement
    tally: Counter[tuple[int, int]] = Counter()  # (n, c(t0)): primitive tuples, side swaps included
    reps: list[tuple[str, str, str, str]] = []
    for n, sides in _sides(exps, max_total_len, lo).items():
        multiples = range(1, max_total_len // n + 1)
        first = {side: _first_meetings(exps, *side) for side in sides}  # dropped with n
        for (lx, ly), (lu, lv) in pairs(sides, 2):
            if gcd(lx, ly, lu, lv) > 1:
                continue
            count, parent = _union_positions(first[lx, ly], first[lu, lv], lu + lv)
            tally[n, count] += 2 if lu > lx else 1
            if count == 1:
                continue
            label = _first_occurrence_labels(parent, _side_positions(exps, lx, ly),
                                             _side_positions(exps, lu, lv))
            for g in multiples:
                scaled = _residue_labels(label, g)
                cuts = g * lx, g * (lx + ly), g * (lx + ly + lu)
                sigma = _mirror_classes(scaled, cuts) if i == k else None
                for growth in _restricted_growth(g * count, alphabet_size):
                    if growth == growth[:g] * count:
                        continue  # the letter depends on the residue alone: periodic
                    if sigma and _mirror_is_less(growth, sigma):
                        continue  # the mirror is the less named image
                    words = _word_tuple(letters, growth, scaled, cuts)
                    if not words[2].startswith(words[0]):
                        words = min(words, _named(words[2:] + words[:2]))
                    reps.append(words)
    total = sum(tuples * sum(alphabet_size ** (g * count) for g in range(1, max_total_len // n + 1))
                for (n, count), tuples in tally.items())
    reps.sort()
    nonperiodic = tuple(EquationInstance(exps, *words) for words in reps)
    return SolutionReport(exps, alphabet_size, max_total_len, total, nonperiodic,
                          distinct_only, allow_empty)


class ForcingVerdict(NamedTuple):
    """Outcome of the bounded periodicity-forcing check for a^i b^j a^k."""

    report: SolutionReport

    @property
    def forced_up_to_bound(self) -> bool:
        return self.report.periodic_only

    @property
    def witnesses(self) -> tuple[EquationInstance, ...]:
        return self.report.nonperiodic

    def to_json_obj(self) -> dict:
        obj = self.report.to_json_obj()
        witnesses = obj.pop("nonperiodic")
        obj["forced_up_to_bound"] = obj.pop("periodic_only")
        obj["witnesses"] = witnesses
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def forcing_verdict(
    exps: Exponents | tuple[int, int, int],
    alphabet_size: int,
    max_total_len: int,
    *,
    shards: int = 1,
) -> ForcingVerdict:
    """Decide whether a^i b^j a^k forces periodicity within the bound.

    Forced means every pair of morphisms agreeing on the pattern, with
    (x, y) != (u, v), has all images powers of one word.
    """
    report = enumerate_solutions(
        exps, alphabet_size, max_total_len, distinct_only=True, shards=shards
    )
    return ForcingVerdict(report)


def split_even_j(inst: EquationInstance) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """Halve the equation when i == k and j is even; None otherwise.

    Returns the word pairs (x^i y^h, u^i v^h) and (y^h x^i, v^h u^i)
    with h = j // 2.  The instance solves the full equation iff both
    pairs are equal: matching halves have equal length, so the full
    value splits in the middle.
    """
    i, j, k = inst.exps
    if i != k or j % 2:
        return None
    h = j // 2
    first = (inst.x * i + inst.y * h, inst.u * i + inst.v * h)
    second = (inst.y * h + inst.x * i, inst.v * h + inst.u * i)
    return first, second


def conjecture_scan(
    exps: Exponents | tuple[int, int, int],
    alphabet_size: int,
    max_total_len: int,
    *,
    shards: int = 1,
) -> SolutionReport:
    """Scan x^i y^2 x^k = u^i v^2 u^k with |i - k| >= 2 for non-periodic solutions.

    These exponents are conjectured to force periodicity; any
    non-periodic entry in the returned report is a counterexample.
    """
    i, j, k = Exponents(*exps)
    if j != 2 or abs(i - k) < 2 or i == 0 or k == 0:
        raise ParameterError("conjecture scan needs j == 2, |i - k| >= 2 and i, k >= 1")
    return enumerate_solutions(
        exps, alphabet_size, max_total_len, distinct_only=True, shards=shards
    )
