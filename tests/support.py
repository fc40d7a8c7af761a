"""Shared slow-path oracles for the test suite.

These deliberately avoid the library's optimized code paths so the
fast implementations are checked against independent computations.
"""

from collections import Counter
from itertools import permutations, product

from wordeq.codes import BinaryCode
from wordeq.equations import canonical_instance, is_periodic_solution, iter_solutions
from wordeq.families import FamilyGridSummary, family_i1k1, family_j2
from wordeq.oracles import MAX_RECORDED_FAILURES, OracleResult, _check_code, _Recorder
from wordeq.words import (
    ParameterError,
    all_words,
    alphabet,
    are_conjugate,
    commutes,
    is_primitive,
    power_factors,
    primitive_root,
    transfer_decomposition,
)


def naive_primitive_root(w: str) -> str:
    """Try every divisor-length prefix by direct repetition."""
    for d in range(1, len(w) + 1):
        if len(w) % d == 0 and w[:d] * (len(w) // d) == w:
            return w[:d]
    raise ValueError("empty word")


def naive_smallest_period(w: str) -> int:
    for p in range(1, len(w) + 1):
        if all(w[t] == w[t + p] for t in range(len(w) - p)):
            return p
    raise ValueError("empty word")


def naive_exponent(w: str) -> int:
    """The power w is of its divisor-prefix root: the expansion test of the code references."""
    return len(w) // len(naive_primitive_root(w))


def naive_imprimitive_code_words(code, max_code_len: int):
    """(letters, exponent) of the code-primitive words with imprimitive expansions.

    Builds every code word, joins its expansion from scratch and takes
    roots by divisor-prefix repetition.
    """
    found = []
    for letters in words_up_to(max_code_len, "xy"):
        e = naive_exponent(code.expand(letters))
        if naive_primitive_root(letters) == letters and e > 1:
            found.append((letters, e))
    return found


def naive_cross_set(code, max_exp: int):
    """Code letters of the imprimitive members of {x y^n} u {x^n y}, 1 <= n <= max_exp.

    Walks every code word up to max_exp + 1 code letters, keeps the
    cross-set members and takes roots by divisor-prefix repetition.
    """
    members = {"x" * n + "y" for n in range(1, max_exp + 1)}
    members |= {"x" + "y" * n for n in range(1, max_exp + 1)}
    return [letters for letters in words_up_to(max_exp + 1, "xy")
            if letters in members and naive_exponent(code.expand(letters)) > 1]


def naive_code_pair_checks(max_word_len: int, max_exp: int, max_code_len: int):
    """[cross set, imprimitive conjugacy, set shape, power shape] from every code's own scan.

    A stand-in for oracles._code_pair_checks with no symmetry classes, no
    Lyndon words and no letter-count groups: every non-commuting pair
    over "ab", in the same order, is checked by oracles._check_code on
    its naive table and its naive cross-set hits.
    """
    recorders = [_Recorder() for _ in range(4)]
    for x in all_words(max_word_len, "ab"):
        for y in all_words(max_word_len, "ab"):
            if x + y == y + x:
                continue
            code = BinaryCode(x, y)
            table = naive_imprimitive_code_words(code, max_code_len)
            _check_code(code, table, naive_cross_set(code, max_exp), *recorders)
    names = ("cross-set-imprimitivity", "imprimitive-conjugacy", "imprimitive-set-shape", "power-shape")
    return [rec.result(name) for rec, name in zip(recorders, names)]


def naive_code_bounds(max_xy_total: int, max_code_len: int):
    """[code-prefix-bound, code-suffix-bound] from a full table of every code.

    Every code word up to the code length is built and its expansion
    joined from scratch; heads (first |x|+|y| letters) are grouped by
    first code letter and tails by last, and each group is a multiset
    whose products count the clashing pairs.
    """
    cases = {"prefix": 0, "suffix": 0}
    failures = {"prefix": [], "suffix": []}
    code_len = max(1, max_code_len)
    for x in words_up_to(max_xy_total - 1):
        for y in words_up_to(max_xy_total - len(x)):
            if x + y == y + x:
                continue
            limit = len(x) + len(y)
            code = BinaryCode(x, y)
            table = [(s, code.expand(s)) for s in words_up_to(code_len, "xy")]
            table = [(s, e) for s, e in table if len(e) >= limit]
            for side, end, cut in (("prefix", 0, slice(limit)), ("suffix", -1, slice(-limit, None))):
                ends_x, ends_y = (Counter(e[cut] for s, e in table if s[end] == c) for c in "xy")
                clashes = sum(n * ends_y[h] for h, n in ends_x.items())
                cases[side] += (2 ** code_len - 1) ** 2
                room = MAX_RECORDED_FAILURES - len(failures[side])
                failures[side] += [f"x={x!r} y={y!r}: common {side} reaches {limit}"] * min(clashes, room)
    return [OracleResult(f"code-{side}-bound", cases[side], tuple(failures[side]))
            for side in ("prefix", "suffix")]


def naive_periodicity_lemma(max_root_len: int) -> OracleResult:
    """The periodicity-lemma oracle, building every factor set per pair."""
    if max_root_len < 2:
        raise ParameterError("max_root_len must be >= 2")
    rec = _Recorder()
    sharp = False
    prims = [w for w in all_words(max_root_len, alphabet(2)) if is_primitive(w)]
    for p in prims:
        for q in prims:
            long_len = len(p) + len(q) - 1
            shared = power_factors(p, long_len) & power_factors(q, long_len)
            if not are_conjugate(p, q):
                rec.record(not shared, "non-conjugate p=%r q=%r share a long factor", p, q)
                short_len = long_len - 1
                if not sharp and short_len >= 1:
                    if power_factors(p, short_len) & power_factors(q, short_len):
                        sharp = True
    rec.record(sharp, "no non-conjugate pair attains a common factor of length |p|+|q|-2")
    return rec.result("periodicity-lemma")


def naive_overlap_commutation(max_word_len: int) -> OracleResult:
    """The overlap-commutation oracle, trying every cut of every word."""
    rec = _Recorder()
    for s in all_words(max_word_len, alphabet(2)):
        for cut in range(len(s) + 1):
            s1, s2 = s[:cut], s[cut:]
            if s.endswith(s1) and s.startswith(s2):
                rec.record(commutes(s1, s2), "s=%r cut=%d", s, cut)
    return rec.result("overlap-commutation")


def naive_conjugacy_transfer(max_u_len: int, max_z_len: int) -> OracleResult:
    """The conjugacy-transfer oracle over every word z, kept when u z starts with z."""
    rec = _Recorder()
    letters = alphabet(2)
    for u in all_words(max_u_len, letters):
        root = primitive_root(u)
        for z in all_words(max_z_len, letters, min_len=0):
            uz = u + z
            if not uz.startswith(z):
                continue  # no v completes u z = z v
            v = uz[len(z):]
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
            )
            if z:
                r = len(z) % len(seed)
                ok = ok and len(d.sigma) == (r if r else len(seed))
            else:
                ok = ok and d.sigma == ""
            rec.record(ok, "u=%r z=%r: got %s", u, z, d)
    return rec.result("conjugacy-transfer")


def naive_absorption_checks(max_word_len: int, max_exp: int):
    """[prefix-power-absorption, short-prefix-absorption], one scan each.

    The prefix-power scan walks every suffix z of v, shortest first; the
    short-prefix scan walks every front t, from position |t| on.
    """
    prefix_power = _Recorder()
    for v in all_words(max_word_len, alphabet(2)):
        pv = primitive_root(v)
        for zcut in range(len(v), -1, -1):
            z = v[zcut:]
            for i in range(1, max_exp + 1):
                base = z + v * i
                for t in range(len(base) - len(v) + 1):
                    if base[t:t + len(v)] != v:
                        continue
                    uv = base[:t + len(v)]
                    rest = uv[len(z):]
                    ok = (
                        uv.startswith(z)
                        and len(rest) % len(pv) == 0
                        and rest == pv * (len(rest) // len(pv))
                    )
                    prefix_power.record(ok, "v=%r z=%r i=%d |u|=%d", v, z, i, t)
    short_prefix = _Recorder()
    letters = alphabet(2)
    for v in all_words(max_word_len, letters):
        pv = primitive_root(v)
        for t in all_words(max_word_len, letters, min_len=0):
            for i in range(1, max_exp + 1):
                base = t + v * i
                for pos in range(len(t), len(base) - len(v) + 1):
                    if base[pos:pos + len(v)] != v:
                        continue
                    w = base[:pos]
                    rest = w[len(t):]
                    ok = (
                        w.startswith(t)
                        and len(rest) % len(pv) == 0
                        and rest == pv * (len(rest) // len(pv))
                    )
                    short_prefix.record(ok, "v=%r t=%r i=%d |w|=%d", v, t, i, pos)
    return [prefix_power.result("prefix-power-absorption"),
            short_prefix.result("short-prefix-absorption")]


def _naive_aligned_difference(max_v_len: int, max_exp: int, mirror: bool) -> OracleResult:
    """Compare the fronts of equal factors u of v^i, grouped by u.

    The mirror scans (v reversed)^i, whose fronts are the reversed
    tails of v^i; descriptions name the original v.
    """
    rec = _Recorder()
    for v in all_words(max_v_len, alphabet(2)):
        w = v[::-1] if mirror else v
        for i in range(1, max_exp + 1):
            s = w * i
            n = len(s)
            for lu in range(len(w), n + 1):
                spots: dict[str, list[int]] = {}
                for a in range(n - lu + 1):
                    spots.setdefault(s[a:a + lu], []).append(a)
                for positions in spots.values():
                    for ai in positions:
                        for bi in positions:
                            if ai > bi:
                                continue
                            front_a, front_b = s[:ai], s[:bi]
                            ok = front_b.endswith(front_a) and commutes(front_b[:bi - ai], w)
                            rec.record(ok, "v=%r i=%d |u|=%d a=%d b=%d", v, i, lu, ai, bi)
    return rec.result(f"aligned-{'suffix' if mirror else 'prefix'}-difference")


def naive_factor_pair_checks(max_v_len: int, max_exp: int):
    """[straddling-factor-commutation, aligned-prefix-difference, aligned-suffix-difference].

    Straddling walks every start a and length |u| >= |v| and then every
    matching distance b from the end; the aligned oracles scan v^i and
    (v reversed)^i separately.
    """
    straddling = _Recorder()
    for v in all_words(max_v_len, alphabet(2)):
        for i in range(1, max_exp + 1):
            s = v * i
            n = len(s)
            for a in range(n + 1):
                for lu in range(len(v), n - a + 1):
                    u = s[a:a + lu]
                    for b in range(n - lu + 1):
                        if s[n - b - lu:n - b] != u:
                            continue
                        straddling.record(
                            commutes(s[:a] + u + s[n - b:], v),
                            "v=%r i=%d a=%d |u|=%d b=%d", v, i, a, lu, b,
                        )
    return [straddling.result("straddling-factor-commutation"),
            _naive_aligned_difference(max_v_len, max_exp, mirror=False),
            _naive_aligned_difference(max_v_len, max_exp, mirror=True)]


def grouped_factor_pair_checks(max_v_len: int, max_exp: int):
    """The three factor-pair oracles in one walk over every case, in the library's order.

    For each |u| >= |v| the starts of the factors u of s = v^i are
    grouped by u, groups in order of first start, and every ordered pair
    (a, b) of starts in a group is read: straddling always, the prefix
    statement when a <= b, the suffix statement when a >= b.  Each case
    is decided on its own, so the failures come out in the order of the
    walk over |u|, then groups, then a, then b.
    """
    straddling, prefix, suffix = _Recorder(), _Recorder(), _Recorder()
    for v in all_words(max_v_len, alphabet(2)):
        for i in range(1, max_exp + 1):
            s = v * i
            n = len(s)
            for lu in range(len(v), n + 1):
                spots: dict[str, list[int]] = {}
                for a in range(n - lu + 1):
                    spots.setdefault(s[a:a + lu], []).append(a)
                for starts in spots.values():
                    for a in starts:
                        for b in starts:
                            straddling.record(commutes(s[:a + lu] + s[b + lu:], v),
                                              "v=%r i=%d a=%d |u|=%d b=%d", v, i, a, lu, n - b - lu)
                            if a <= b:
                                ok = s[:b].endswith(s[:a]) and commutes(s[:b - a], v)
                                prefix.record(ok, "v=%r i=%d |u|=%d a=%d b=%d", v, i, lu, a, b)
                            if a >= b:
                                ok = s[b + lu:].startswith(s[a + lu:]) and commutes(s[n - (a - b):], v)
                                suffix.record(ok, "v=%r i=%d |u|=%d a=%d b=%d",
                                              v, i, lu, n - a - lu, n - b - lu)
    return [straddling.result("straddling-factor-commutation"),
            prefix.result("aligned-prefix-difference"), suffix.result("aligned-suffix-difference")]


def naive_head_clashes(x: str, y: str, limit: int, code_len: int) -> int:
    """Pairs (x t, y t') of code words whose expansions agree on their first ``limit`` letters.

    Compares every pair of code words of at most ``code_len`` letters
    directly.
    """
    heads = {"x": [], "y": []}
    code = BinaryCode(x, y)
    for letters in words_up_to(code_len, "xy"):
        e = code.expand(letters)
        if len(e) >= limit:
            heads[letters[0]].append(e[:limit])
    return sum(s == t for s in heads["x"] for t in heads["y"])


def naive_tail_clashes(x: str, y: str, limit: int, code_len: int) -> int:
    """Pairs (t x, t' y) of code words whose expansions agree on their last ``limit`` letters.

    The mirror of ``naive_head_clashes``: every pair of code words of at
    most ``code_len`` letters, grouped by their last code letter.
    """
    tails = {"x": [], "y": []}
    code = BinaryCode(x, y)
    for letters in words_up_to(code_len, "xy"):
        e = code.expand(letters)
        if len(e) >= limit:
            tails[letters[-1]].append(e[len(e) - limit:])
    return sum(s == t for s in tails["x"] for t in tails["y"])


def words_up_to(max_len: int, letters: str = "ab", min_len: int = 1):
    for n in range(min_len, max_len + 1):
        for tup in product(letters, repeat=n):
            yield "".join(tup)


def naive_solutions(
    exps, alphabet_size: int, max_total_len: int, distinct_only: bool = False,
    allow_empty: bool = False,
):
    """Four independent loops over words; the slow reference path.

    Unlike the engine, u and v are enumerated freely (only pruned by the
    length budget) and the two sides are compared verbatim.  Words are
    non-empty unless ``allow_empty``, which still skips the all-empty
    sides.
    """
    i, j, k = exps
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet_size]
    lo = 0 if allow_empty else 1
    sols = set()
    max_side = max_total_len // (i + k)
    for x in words_up_to(max_side, letters, min_len=lo):
        y_budget = (max_total_len - (i + k) * len(x)) // j
        for y in words_up_to(y_budget, letters, min_len=lo):
            lhs = x * i + y * j + x * k
            if not lhs:
                continue
            for u in words_up_to((len(lhs) - j * lo) // (i + k), letters, min_len=lo):
                rem = len(lhs) - (i + k) * len(u)
                if rem % j:
                    continue
                lv = rem // j
                if lv < lo:
                    continue
                for v in words_up_to(lv, letters, min_len=lv):
                    if distinct_only and (u, v) == (x, y):
                        continue
                    if u * i + v * j + u * k == lhs:
                        sols.add((x, y, u, v))
    return sols


def naive_orbit_minimum(exps, words, alphabet_size: int):
    """Least image of (x, y, u, v) over the whole symmetry orbit, by brute force.

    Tries every injective map from the occurring letters into the
    alphabet, on the tuple, its side swap and, when i == k, the mirrors
    of both.
    """
    i, _, k = exps
    x, y, u, v = words
    base = [(x, y, u, v), (u, v, x, y)]
    if i == k:
        base += [tuple(w[::-1] for w in t) for t in base]
    return naive_least_relabelling(base, alphabet_size)


def naive_least_relabelling(tuples, alphabet_size: int):
    """Least image of the word tuples under every injective map of their letters into the alphabet."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet_size]
    images = []
    for t in tuples:
        occurring = sorted(set("".join(t)))
        for image in permutations(letters, len(occurring)):
            mapping = dict(zip(occurring, image))
            images.append(tuple("".join(mapping[c] for c in w) for w in t))
    return min(images)


def listed_report(
    exps, alphabet_size: int, max_total_len: int, distinct_only: bool = True,
    allow_empty: bool = False,
):
    """(total, orbits) of the bounded search by listing every raw solution.

    Counts the solutions of ``iter_solutions`` one by one and classifies
    each with ``is_periodic_solution``; ``orbits`` holds the sorted
    canonical representatives of the non-periodic ones.
    """
    total = 0
    reps = set()
    for inst in iter_solutions(exps, alphabet_size, max_total_len,
                               distinct_only=distinct_only, allow_empty=allow_empty):
        total += 1
        if not is_periodic_solution(inst):
            reps.add(canonical_instance(inst, alphabet_size).words())
    return total, sorted(reps)


def naive_family_grid(
    max_param_len: int, max_k: int, max_j: int, alphabet_size: int = 2
) -> FamilyGridSummary:
    """Build every family instance over a parameter grid and certify it.

    Parameters range over all ordered non-commuting pairs of non-empty
    words up to max_param_len, k over 1..max_k, and j over the odd
    values 3..max_j.  Each generated instance is certified to solve its
    equation and to be non-periodic; any failure raises immediately,
    naming the parameters.
    """
    if max_param_len < 1 or max_k < 1 or max_j < 1:
        raise ParameterError("grid bounds must be >= 1")
    letters = alphabet(alphabet_size)
    pairs = [
        (p, q)
        for p in all_words(max_param_len, letters)
        for q in all_words(max_param_len, letters)
        if not commutes(p, q)
    ]
    n_j2 = n_i1k1 = 0
    for p, q in pairs:
        for k in range(1, max_k + 1):
            family_j2(p, q, k)
            n_j2 += 1
        for j in range(3, max_j + 1, 2):
            family_i1k1(p, q, j)
            n_i1k1 += 1
    return FamilyGridSummary(len(pairs), n_j2, n_i1k1)
