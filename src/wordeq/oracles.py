"""Bounded oracles for the classical word-combinatorics lemmas.

Each check asserts the lemma's conclusion verbatim on every input
within its bound, counting some cases in closed form or by symmetry,
each way proven equal to the enumeration.  The largest pass, the walk
over code pairs, checks the first member of each symmetry class of
codes and counts its cases by the class's size, checks every code not
yet counted on its own from the first failure on, and expands only
the code words whose letter counts leave room for a power.  The checks
are universally quantified statements, so shrinking a bound can only
shrink the case count, never flip a verdict.  ``run_lemma_suite`` runs
all fourteen with bounds derived from a single size knob whose default
reproduces the documented desk-scale ranges.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .codes import (
    SHAPE_EMPTY,
    SHAPE_X_CENTERED,
    BinaryCode,
    CodeWord,
    classify_imprimitive_set,
    classify_x_power,
    imprimitive_in_cross_set,
    imprimitive_table,
    letter_count_groups,
    lyndon_words,
)
from .words import (
    ParameterError,
    all_words,
    alphabet,
    are_conjugate,
    commutes,
    is_primitive,
    power_factors,
    primitive_root,
    transfer_decomposition,
    words_of_length,
)

MAX_RECORDED_FAILURES = 3

_XY_TO_AB = str.maketrans("xy", "ab")

class OracleResult(NamedTuple):
    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "failures": list(self.failures),
        }


class _Recorder:
    """Counts cases, and keeps the first MAX_RECORDED_FAILURES failures.

    A description is a format string and its arguments, joined with
    ``%`` only when a failure is kept, so passing cases cost no string
    formatting.  An argument that costs a list or a dict to build is
    built only for a failing case: a passing one just counts.
    """

    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[str] = []

    def record(self, ok: bool, fmt: str, *args: object) -> None:
        self.cases += 1
        if not ok and len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(fmt % args)

    def tally(self, failed: int, fmt: str, *args: object) -> None:
        """Keep ``failed`` failures with one description; their cases are counted apart."""
        kept = min(failed, MAX_RECORDED_FAILURES - len(self.failures))
        if kept > 0:
            self.failures.extend([fmt % args] * kept)

    def result(self, name: str) -> OracleResult:
        return OracleResult(name, self.cases, tuple(self.failures))


def _noncommuting_pairs(max_len: int) -> Iterator[tuple[str, str]]:
    letters = alphabet(2)
    for x in all_words(max_len, letters):
        for y in all_words(max_len, letters):
            if not commutes(x, y):
                yield x, y


def check_periodicity_lemma(max_root_len: int = 5) -> OracleResult:
    """Primitive p, q sharing a factor of length |p|+|q|-1 must be conjugate.

    Distinct prefix-comparable words differ in length, so the main claim
    covers them.  Also checks that the bound is sharp: some non-conjugate
    pair shares a factor of length |p|+|q|-2.  The first pair with
    |p|+|q|-2 >= 1 has roots of length 2, so shorter roots cannot witness
    sharpness and are refused.

    Every rotation of p has the factor sets of p, and two primitive words
    are conjugate iff they lie in one necklace.  So the walk takes one
    Lyndon word per necklace, compares each unordered pair of distinct
    necklaces once and counts its |p|*|q| ordered member pairs both ways.
    A failing necklace pair is expanded into its member pairs, sorted by
    (|p|, p, |q|, q), the order of a walk over every pair of words.
    """
    if max_root_len < 2:
        raise ParameterError("max_root_len must be >= 2")
    rec = _Recorder()
    sharp = False
    roots = [w.translate(_XY_TO_AB) for w in lyndon_words(max_root_len)]
    # factors[p][n] is power_factors(p, n) for every length n a pair with p reads
    factors = {p: [power_factors(p, n) for n in range(len(p) + max_root_len)] for p in roots}
    failed = []
    for a, p in enumerate(roots):
        for q in roots[a + 1:]:
            rec.cases += 2 * len(p) * len(q)
            long_len = len(p) + len(q) - 1
            if factors[p][long_len] & factors[q][long_len]:
                failed += [(p, q), (q, p)]
            short_len = long_len - 1
            if not sharp and short_len >= 1:
                if factors[p][short_len] & factors[q][short_len]:
                    sharp = True
    members = sorted((len(p), p[i:] + p[:i], len(q), q[j:] + q[:j])
                     for p, q in failed for i in range(len(p)) for j in range(len(q)))
    for _, p, _, q in members:
        rec.tally(1, "non-conjugate p=%r q=%r share a long factor", p, q)
    rec.record(sharp, "no non-conjugate pair attains a common factor of length |p|+|q|-2")
    return rec.result("periodicity-lemma")


def _head_clashes(x: str, y: str, limit: int, code_len: int) -> int:
    """Pairs of code words x t, y t' whose expansions share their first ``limit`` letters.

    t and t' range over code words of fewer than ``code_len`` letters,
    the empty word included, and a word shorter than ``limit`` letters
    clashes with nothing.  One depth-first walk builds both expansions
    at once: each step extends the shorter one by x or by y, and a
    branch lives only while the two agree on their first ``limit``
    letters.  When both reach ``limit`` letters, at code depths d and
    d', every extension of either word keeps its head, so the pair adds
    (2**(code_len-d+1) - 1) * (2**(code_len-d'+1) - 1) clashes at once.
    A pair that is not prefix-comparable has no common head: x and y
    already differ within their first min(|x|, |y|, limit) letters.
    """
    m = min(len(x), len(y), limit)
    if x[:m] != y[:m]:
        return 0
    clashes = 0
    stack = [(x, 1, y, 1)]
    while stack:
        e, d, f, g = stack.pop()
        if len(e) > len(f):
            e, d, f, g = f, g, e, d
        n = len(e)
        if n >= limit:
            clashes += ((2 << (code_len - d)) - 1) * ((2 << (code_len - g)) - 1)
        elif d < code_len:
            for w in (x, y):
                cut = min(n + len(w), len(f), limit)
                if f[n:cut] == w[:cut - n]:
                    stack.append((e + w, d + 1, f, g))
    return clashes


def _code_bounds(max_xy_total: int, max_code_len: int) -> list[OracleResult]:
    """Count expansions sharing their first, or last, |x|+|y| letters across code letters.

    The prefix bound compares x t with y t' and the suffix bound t x with
    t' y, for tails t, t' of fewer than max_code_len code letters (at
    least the empty tail); every pair of tails is one case, and every
    pair sharing |x|+|y| letters a failure.  The cases are counted in
    closed form: x has 2**(rest+1) - 2 partners y of 1..rest letters,
    rest = max_xy_total - |x|, and rest // |r| of them, the powers of
    x's primitive root r, commute with x.

    Clashes are counted once per pair (x, xw), w not commuting with x,
    and read off for its three twins.  A pair that is not
    prefix-comparable has no common head, so the prefix side needs only
    (x, xw) and (xw, x); swapping x and y swaps the two tails of each
    pair, so both have the same count.  Reversal maps the tail set onto
    itself, so the suffix clashes of a pair are the head clashes of its
    reversal.  Each side tallies its clashing pairs sorted by
    (|x|, x, |y|, y), the length-lex order of a walk over every pair.
    """
    code_len = max(1, max_code_len)
    noncommuting = 0
    clashing = []
    for x in all_words(max_xy_total - 1, alphabet(2)):
        rest = max_xy_total - len(x)
        noncommuting += (2 << rest) - 2 - rest // len(primitive_root(x))
        for w in all_words(rest - len(x), alphabet(2)):
            y = x + w
            clashes = 0 if commutes(x, w) else _head_clashes(x, y, len(x) + len(y), code_len)
            if clashes:
                clashing += [(x, y, clashes), (y, x, clashes)]
    results = []
    for side, step in (("prefix", 1), ("suffix", -1)):
        rec = _Recorder()
        rec.cases = noncommuting * (2 ** code_len - 1) ** 2
        for _, x, _, y, n in sorted((len(x), x[::step], len(y), y[::step], n) for x, y, n in clashing):
            rec.tally(n, "x=%r y=%r: common %s reaches %d", x, y, side, len(x) + len(y))
        results.append(rec.result(f"code-{side}-bound"))
    return results


def check_code_prefix_bound(max_xy_total: int = 8, max_code_len: int = 4) -> OracleResult:
    """Expansions starting with different code letters branch before |x|+|y| letters."""
    return _code_bounds(max_xy_total, max_code_len)[0]


def check_code_suffix_bound(max_xy_total: int = 8, max_code_len: int = 4) -> OracleResult:
    """Mirror bound: expansions ending with different code letters branch from the right."""
    return _code_bounds(max_xy_total, max_code_len)[1]


def check_overlap_commutation(max_word_len: int = 10) -> OracleResult:
    """If s = s1 s2 with s1 a suffix of s and s2 a prefix of s, then s1 and s2 commute.

    A cut c qualifies iff s has the periods c and |s| - c.  The cuts 0
    and |s| qualify on every word and pair it with the empty word, so
    they are counted in closed form, 2 per non-empty word.  A proper cut
    with q = min(c, |s| - c) makes s the |s|-letter prefix of w w w ...
    for w = s[:q], ending in w.  So the walk takes n, then q <= n/2, then
    the 2**q words w, and meets each proper cut exactly once.  The
    failures are sorted by (|s|, s, cut), the order of a walk over every
    word and cut.
    """
    rec = _Recorder()
    if max_word_len >= 1:
        rec.cases = 2 * ((2 << max_word_len) - 2)
    failed = []
    for n in range(2, max_word_len + 1):
        for q in range(1, n // 2 + 1):
            cuts = (q,) if 2 * q == n else (q, n - q)
            for w in words_of_length(q, alphabet(2)):
                s = (w * (n // q + 1))[:n]
                if s.endswith(w):
                    for cut in cuts:
                        rec.cases += 1
                        if not commutes(s[:cut], s[cut:]):
                            failed.append((n, s, cut))
    for _, s, cut in sorted(failed):
        rec.tally(1, "s=%r cut=%d", s, cut)
    return rec.result("overlap-commutation")


def check_conjugacy_transfer(max_u_len: int = 5, max_z_len: int = 7) -> OracleResult:
    """Round-trip and canonical-choice invariants of the u z = z v decomposition.

    Some v completes u z = z v exactly when u z starts with z, and that
    holds exactly when z is a prefix of u u u ...: for |z| <= |u| it
    says that z is a prefix of u, and beyond that that z starts with u
    and z minus that u is again such a prefix.  So each length up to
    ``max_z_len`` has one z, and the walk takes the prefixes of a long
    enough power of u, shortest first, as a walk over every word would
    meet them.
    """
    rec = _Recorder()
    for u in all_words(max_u_len, alphabet(2)):
        root = primitive_root(u)
        power = u * (max_z_len // len(u) + 1)
        for n in range(max_z_len + 1):
            z = power[:n]
            v = (u + z)[n:]
            d = transfer_decomposition(u, z, v)
            seed = d.sigma + d.tau
            ok = (
                d.u == u
                and d.z == z
                and d.v == v
                and d.m >= 1
                and d.ell >= 0
                and is_primitive(seed)
                and seed == root
                and (0 < len(d.sigma) <= len(seed) if z else d.sigma == "")
            )
            rec.record(ok, "u=%r z=%r: got %s", u, z, d)
    return rec.result("conjugacy-transfer")


_AB_SWAP = str.maketrans("ab", "ba")


def _symmetry_class(x: str, y: str) -> set[tuple[str, str]]:
    """The symmetry class of a code pair: its images under the a/b swap, reversal and the x/y swap.

    Up to eight pairs, at least two since x != y, each a non-commuting
    pair of the same lengths as (x, y).
    """
    sx, sy = x.translate(_AB_SWAP), y.translate(_AB_SWAP)
    images = {(x, y), (x[::-1], y[::-1]), (sx, sy), (sx[::-1], sy[::-1])}
    return images | {(gy, gx) for gx, gy in images}


def _check_code(
    code: BinaryCode, table: list[tuple[str, int]], hits: list[str],
    cross: _Recorder, conjugacy: _Recorder, set_shape: _Recorder, power_shape: _Recorder,
) -> None:
    """The four checks on one code, given its table and the code letters of its cross-set hits."""
    x, y = code.x, code.y
    cross.record(len(hits) <= 1, "x=%r y=%r: %s", x, y, hits)
    for letters, e in table:
        n = len(letters)
        in_cross = are_conjugate(letters, "x" * (n - 1) + "y") or are_conjugate(
            letters, "y" * (n - 1) + "x"
        )
        conjugacy.record(in_cross, "x=%r y=%r: %s not conjugate into the cross set", x, y, letters)
        c = CodeWord(code, letters)
        for i in range(2, e + 1):
            if e % i:
                continue
            try:
                shape = classify_x_power(c, i)
            except RuntimeError as err:
                power_shape.record(False, "%s", err)
                continue
            single = "y" if shape.repeated == "x" else "x"
            rebuilt = shape.repeated * shape.k + single + shape.repeated * shape.ell
            power_shape.record(rebuilt == letters, "x=%r y=%r: %s vs %s", x, y, letters, shape)
    if any(len(letters) >= 2 for letters, _ in table):
        roots_apart = not are_conjugate(primitive_root(x), primitive_root(y))
        conjugacy.record(roots_apart, "x=%r y=%r: roots conjugate despite a member", x, y)
    try:
        result = classify_imprimitive_set(code, table)
    except RuntimeError as err:
        set_shape.record(False, "%s", err)
        return
    if result.shape == SHAPE_EMPTY:
        ok = result.k is None and not result.members
    else:
        repeated, single = ("x", "y") if result.shape == SHAPE_X_CENTERED else ("y", "x")
        k = result.k or 0
        expected = {repeated * i + single + repeated * (k - i) for i in range(k + 1)}
        ok = k >= 1 and {c.letters for c in result.members} == expected
    if ok:
        set_shape.cases += 1
    else:
        set_shape.record(False, "x=%r y=%r: %s", x, y, result.to_json_obj())


def _code_pair_checks(max_word_len: int, max_exp: int, max_code_len: int) -> list[OracleResult]:
    """The cross-set oracle and the three code-word oracles in one walk over the code pairs.

    Each code's table of code-primitive words with imprimitive expansions
    is read by the three code-word oracles: conjugacy into the cross set,
    the centered shape of the set, and the power shape of each member.
    max_code_len 0 leaves every table empty.  A cross-set count above
    one lists that code's own hits for its failure description.

    The four checks run on the first member met of each symmetry class
    (``_symmetry_class``), and its case counts are counted once per
    member, by the class's size; the walk then skips the other members,
    which come later, as it meets them.
    That is exact: a member's table is the first one's with each code
    word w mapped to its image w' (reversed and/or x and y swapped), so
    the cases, one per entry and per divisor of its exponent, match,
    and each verdict does too:

    - the cross set's conjugacy classes, those of x^(n-1) y and
      y^(n-1) x, are closed under reversal and under the x/y swap, so w
      is conjugate into the cross set iff w' is; the a/b swap and
      reversal keep the roots of x and y conjugate or not, and the x/y
      swap only exchanges them;
    - w = r^k s r^ell maps to r^ell s r^k or to the shape with r and s
      swapped, so the power shape rebuilds w iff it rebuilds w', and w
      has a single odd letter iff w' has;
    - the centered family of size k maps onto a centered family of size
      k, so the set has a centered shape on every member or on none;
    - each cross-set word lands on a conjugate of a cross-set word, so
      every member has as many hits.

    So a class whose first member fails nothing has no failing member.
    From the first failure on, every code not yet counted is checked
    with its own table, so the counts, the failure texts and their order
    are those of a walk that checks every code.
    """
    groups = letter_count_groups(lyndon_words(max_code_len))
    recorders = cross, conjugacy, set_shape, power_shape = [_Recorder() for _ in range(4)]
    counted: set[tuple[str, str]] = set()
    for x, y in _noncommuting_pairs(max_word_len):
        if (x, y) in counted:
            counted.remove((x, y))
            continue
        cases = [rec.cases for rec in recorders]
        code = BinaryCode(x, y)
        hits = [c.letters for c in imprimitive_in_cross_set(code, max_exp)]
        _check_code(code, imprimitive_table(x, y, groups), hits, *recorders)
        if any(rec.failures for rec in recorders):
            continue
        others = _symmetry_class(x, y) - {(x, y)}
        counted |= others
        for rec, n in zip(recorders, cases):
            rec.cases += (rec.cases - n) * len(others)
    return [
        cross.result("cross-set-imprimitivity"),
        conjugacy.result("imprimitive-conjugacy"),
        set_shape.result("imprimitive-set-shape"),
        power_shape.result("power-shape"),
    ]


def check_cross_set(max_word_len: int = 4, max_exp: int = 6) -> OracleResult:
    """The cross set x y^+ u x^+ y holds at most one imprimitive word."""
    if max_exp < 1:
        raise ParameterError("max_exp must be >= 1")
    return _code_pair_checks(max_word_len, max_exp, 0)[0]


def check_imprimitive_conjugacy(max_word_len: int = 4, max_code_len: int = 5) -> OracleResult:
    """Code-primitive imprimitive words are code-conjugate to a cross-set word.

    Beyond the code letters themselves, their existence also forces the
    primitive roots of x and y to be non-conjugate.
    """
    return _code_pair_checks(max_word_len, 1, max_code_len)[1]


def check_imprimitive_set_shape(max_word_len: int = 4, max_code_len: int = 5) -> OracleResult:
    """The collected code-primitive imprimitive set always has a centered shape."""
    if max_code_len < 2:
        raise ParameterError("max_code_len must be >= 2")
    return _code_pair_checks(max_word_len, 1, max_code_len)[2]


def check_power_shape(max_word_len: int = 4, max_code_len: int = 5) -> OracleResult:
    """A code-primitive word whose expansion is a proper power carries a single odd letter."""
    return _code_pair_checks(max_word_len, 1, max_code_len)[3]


def _absorbed(w: str, t: str, root: str) -> bool:
    """True iff w lies in t root^*, given that w starts with t."""
    rest = w[len(t):]
    return rest == root * (len(rest) // len(root))


def check_prefix_power_absorption(max_word_len: int = 4, max_exp: int = 3) -> OracleResult:
    """If z is a suffix of v and u v a prefix of z v^i, then u v lies in z root(v)^*.

    The walk meets only the hypothesis: the |v| + 1 suffixes z of v,
    shortest first, and one scan of z v^i for v per exponent i.
    """
    prefix_power = _Recorder()
    for v in all_words(max_word_len, alphabet(2)):
        pv, lv = primitive_root(v), len(v)
        for cut in range(lv, -1, -1):
            z = v[cut:]
            for i in range(1, max_exp + 1):
                base = z + v * i
                pos = base.find(v)
                while pos >= 0:
                    prefix_power.record(_absorbed(base[:pos + lv], z, pv),
                                        "v=%r z=%r i=%d |u|=%d", v, z, i, pos)
                    pos = base.find(v, pos + 1)
    return prefix_power.result("prefix-power-absorption")


def check_short_prefix_absorption(max_word_len: int = 4, max_exp: int = 3) -> OracleResult:
    """If |t| <= |w| and w v is a prefix of t v^i, then w lies in t root(v)^*.

    The walk reads t v^i only from position |t| on, where it is v^i: an
    occurrence of v at r in v^i is the case w = t v^i[:r], and w lies in
    t root(v)^* iff v^i[:r] lies in root(v)^*, whatever the front t.  So
    v^i is scanned once, each occurrence counts once per front t up to
    ``max_word_len`` (the empty word included), and a failure is named
    once per front with |w| = |t| + r.
    """
    short_prefix = _Recorder()
    letters = alphabet(2)
    fronts = list(all_words(max_word_len, letters, min_len=0))
    for v in all_words(max_word_len, letters):
        pv = primitive_root(v)
        short_failed = []
        for i in range(1, max_exp + 1):
            power = v * i
            r = power.find(v)
            while r >= 0:
                short_prefix.cases += len(fronts)
                if not _absorbed(power[:r], "", pv):
                    short_failed.append((i, r))
                r = power.find(v, r + 1)
        if short_failed:
            for t in fronts:
                for i, r in short_failed:
                    short_prefix.tally(1, "v=%r t=%r i=%d |w|=%d", v, t, i, len(t) + r)
    return short_prefix.result("short-prefix-absorption")


def _factor_pair_checks(max_v_len: int, max_exp: int) -> list[OracleResult]:
    """The three oracles on pairs of equal factors of v^i, each statement decided once per key.

    A case is a factor length |u| >= m = |v| and two starts a, b of equal
    factors u of s = v^i, n = |s|.  Since s has period m, two factors of
    length |u| >= m are equal iff their first m letters are, so the
    starts are grouped by their m-letter window: a pair (a, b) with equal
    windows is a case for every |u| from m to n - max(a, b).  Each
    statement reads only one key of a case, decides it once and adds its
    cases in closed form:

    - aligned-prefix compares the fronts s[:a] and s[:b], so its key is
      the start pair with a <= b: n - b - m + 1 cases;
    - straddling tests s[:A] s[B:] and aligned-suffix the tails after
      the ends (A, B) = (a + |u|, b + |u|).  By the same period argument
      read from the right, the end pairs are the equal-window start
      pairs shifted by m, and each is a case for every |u| from m to
      min(A, B): all of them for straddling, those with A >= B for
      aligned-suffix.  The suffix descriptions give the positions n - A
      and n - B counted from the end.

    A failing key is expanded into its cases.  Within each (v, i) they
    are kept in the order of a walk over |u|, then over the groups by
    first start, then over a, then over b.
    """
    straddling, prefix, suffix = _Recorder(), _Recorder(), _Recorder()
    for v in all_words(max_v_len, alphabet(2)):
        m = len(v)
        for i in range(1, max_exp + 1):
            s = v * i
            n = len(s)
            groups: dict[str, list[int]] = {}
            for a in range(n - m + 1):
                groups.setdefault(s[a:a + m], []).append(a)
            # failing cases as (|u|, a, b, description arguments)
            failed_straddling, failed_prefix, failed_suffix = [], [], []
            for starts in groups.values():
                for a in starts:
                    for b in starts:
                        A, B = a + m, b + m
                        straddling.cases += min(A, B) - m + 1
                        if not commutes(s[:A] + s[B:], v):
                            failed_straddling += [(lu, A - lu, B - lu, (v, i, A - lu, lu, n - B))
                                                  for lu in range(m, min(A, B) + 1)]
                        if a <= b:
                            prefix.cases += n - b - m + 1
                            if not (s[:b].endswith(s[:a]) and commutes(s[:b - a], v)):
                                failed_prefix += [(lu, a, b, (v, i, lu, a, b))
                                                  for lu in range(m, n - b + 1)]
                        if A >= B:
                            suffix.cases += B - m + 1
                            if not (s[B:].startswith(s[A:]) and commutes(s[n - (A - B):], v)):
                                failed_suffix += [(lu, A - lu, B - lu, (v, i, lu, n - A, n - B))
                                                  for lu in range(m, B + 1)]
            if failed_straddling or failed_prefix or failed_suffix:
                first = {a: starts[0] for starts in groups.values() for a in starts}
                for rec, failed, fmt in (
                        (straddling, failed_straddling, "v=%r i=%d a=%d |u|=%d b=%d"),
                        (prefix, failed_prefix, "v=%r i=%d |u|=%d a=%d b=%d"),
                        (suffix, failed_suffix, "v=%r i=%d |u|=%d a=%d b=%d")):
                    for *_, args in sorted((lu, first[a], a, b, args) for lu, a, b, args in failed):
                        rec.tally(1, fmt, *args)
    return [straddling.result("straddling-factor-commutation"),
            prefix.result("aligned-prefix-difference"), suffix.result("aligned-suffix-difference")]


def check_straddling_factor_commutation(max_v_len: int = 4, max_exp: int = 3) -> OracleResult:
    """With |u| >= |v|, a u a prefix of v^i and u b a suffix of v^i force a u b to commute with v."""
    return _factor_pair_checks(max_v_len, max_exp)[0]


def check_aligned_prefix_difference(max_v_len: int = 4, max_exp: int = 3) -> OracleResult:
    """Two prefix occurrences a u, b u in v^i with |u| >= |v| differ by a word commuting with v.

    The shorter front a is then a suffix of the longer front b, and b
    with that suffix removed commutes with v.
    """
    return _factor_pair_checks(max_v_len, max_exp)[1]


def check_aligned_suffix_difference(max_v_len: int = 4, max_exp: int = 3) -> OracleResult:
    """Mirror statement for suffix occurrences u a, u b of v^i."""
    return _factor_pair_checks(max_v_len, max_exp)[2]


def run_lemma_suite(max_len: int = 6) -> list[OracleResult]:
    """Run every bounded oracle with ranges derived from one size knob.

    The default knob value reproduces the documented desk-scale ranges:
    roots up to 5 letters, code pairs up to 4 letters each, overlap
    words up to 10 letters, cross-set exponents up to 6.
    """
    if max_len < 1:
        raise ParameterError("max_len must be >= 1")
    word_cap = max(1, max_len - 2)
    code_cap = max(2, max_len - 1)
    return [
        check_periodicity_lemma(max_root_len=max(2, max_len - 1)),
        *_code_bounds(max_xy_total=max_len + 2, max_code_len=max(1, max_len - 2)),
        check_overlap_commutation(max_word_len=max(2, 2 * (max_len - 1))),
        check_conjugacy_transfer(max_u_len=max(1, max_len - 1), max_z_len=max_len + 1),
        *_code_pair_checks(max_word_len=word_cap, max_exp=max(1, max_len), max_code_len=code_cap),
        check_prefix_power_absorption(max_word_len=word_cap, max_exp=3),
        check_short_prefix_absorption(max_word_len=word_cap, max_exp=3),
        *_factor_pair_checks(max_v_len=word_cap, max_exp=3),
    ]
