"""Shared slow-path oracles for the test suite.

These deliberately avoid the library's optimized code paths so the
fast implementations are checked against independent computations.
"""

from itertools import permutations, product

from wordeq.codes import code_words
from wordeq.equations import canonical_instance, is_periodic_solution, iter_solutions


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


def naive_imprimitive_code_words(code, max_code_len: int):
    """(letters, exponent) of the code-primitive words with imprimitive expansions.

    Builds every code word, joins its expansion from scratch and takes
    roots by divisor-prefix repetition.
    """
    found = []
    for c in code_words(code, max_code_len):
        root = naive_primitive_root(c.expansion)
        if naive_primitive_root(c.letters) == c.letters and root != c.expansion:
            found.append((c.letters, len(c.expansion) // len(root)))
    return found


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
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet_size]
    images = []
    for t in base:
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
