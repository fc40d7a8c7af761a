"""Exact primitives on finite words.

Words are plain Python strings over a lowercase alphabet.  The empty
string is a valid word and acts as the identity for concatenation.  All
functions here are pure; nothing is mutated, so everything is safe to
call concurrently.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ParameterError(ValueError):
    """A caller-supplied parameter (exponent, alphabet, bound, count) is out of range."""


def alphabet(size: int) -> str:
    """Return the first ``size`` lowercase letters."""
    if not 2 <= size <= 26:
        raise ParameterError(f"alphabet size must be between 2 and 26, got {size}")
    return LETTERS[:size]


def check_letters(w: str, alphabet_size: int) -> None:
    """Raise ParameterError unless every letter of ``w`` is in the declared alphabet."""
    allowed = alphabet(alphabet_size)
    for ch in w:
        if ch not in allowed:
            raise ParameterError(f"letter {ch!r} outside alphabet of size {alphabet_size}")


def words_of_length(n: int, letters: str) -> Iterator[str]:
    """All words of length exactly ``n``, in lexicographic order."""
    for tup in product(letters, repeat=n):
        yield "".join(tup)


def all_words(max_len: int, letters: str, min_len: int = 1) -> Iterator[str]:
    """All words with ``min_len <= length <= max_len``, shortest first."""
    for n in range(min_len, max_len + 1):
        yield from words_of_length(n, letters)


def longest_common_prefix(u: str, v: str) -> str:
    """The longest word that is a prefix of both ``u`` and ``v``.

    >>> longest_common_prefix("abc", "abd")
    'ab'
    >>> longest_common_prefix("", "abc")
    ''
    """
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return u[:i]
    return u[:n]


def longest_common_suffix(u: str, v: str) -> str:
    """The longest word that is a suffix of both ``u`` and ``v``."""
    return longest_common_prefix(u[::-1], v[::-1])[::-1]


def border_table(w: str) -> list[int]:
    """Failure function: entry i is the length of the longest proper border of w[:i+1].

    A border is a word that is both a proper prefix and a proper suffix.
    Classic linear-time computation.
    """
    table = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = table[k - 1]
        if w[i] == w[k]:
            k += 1
        table[i] = k
    return table


def smallest_period(w: str) -> int:
    """Smallest p >= 1 with w[t] == w[t + p] wherever both positions exist."""
    if not w:
        raise ValueError("empty word has no period")
    return len(w) - border_table(w)[-1]


def primitive_root(w: str) -> str:
    """The shortest r with w == r**k for some k >= 1; |r| divides |w|.

    Found by rotation search: w equals its rotation by p exactly when p
    is a multiple of the root length, so the first p >= 1 at which w
    occurs in w w is that length (p == |w| when w is primitive).

    >>> primitive_root("abab")
    'ab'
    >>> primitive_root("abaab")
    'abaab'
    """
    if not w:
        raise ValueError("empty word has no primitive root")
    return w[:(w + w).find(w, 1)]


def exponent(w: str) -> int:
    """The e with w == primitive_root(w) ** e.

    The root length is the first p >= 1 at which w occurs in w w, as in
    ``primitive_root``, read without slicing the root off.
    """
    if not w:
        raise ValueError("empty word has no primitive root")
    return len(w) // (w + w).find(w, 1)


def is_primitive(w: str) -> bool:
    """True iff w is not a proper power of a shorter word."""
    return primitive_root(w) == w


def commutes(u: str, v: str) -> bool:
    """True iff u v == v u.

    For non-empty words this is equivalent to u and v having the same
    primitive root; the empty word commutes with everything.
    """
    return u + v == v + u


def are_conjugate(u: str, v: str) -> bool:
    """True iff u == ab and v == ba for some words a, b.

    Equivalently: equal lengths and v occurs inside u u.
    """
    return len(u) == len(v) and v in u + u


def is_factor_of_power(w: str, p: str) -> bool:
    """True iff w occurs in p**n for some n.

    It suffices to look inside a power spanning |w| plus two extra
    copies of p, which covers every possible alignment.
    """
    if not p:
        return w == ""
    return w in p * (len(w) // len(p) + 2)


def power_factors(p: str, length: int) -> set[str]:
    """All distinct factors of the given length of the infinite repetition of p."""
    if length < 0:
        raise ParameterError("length must be >= 0")
    if not p:
        return set() if length else {""}  # every power of the empty word is empty
    s = p * (length // len(p) + 2)
    return {s[a:a + length] for a in range(len(p))}


def periodicity_lemma_check(p: str, q: str, w: str) -> bool:
    """Hypothesis test for the periodicity lemma of Fine and Wilf.

    True iff w is a factor of a power of p, a factor of a power of q,
    and |w| >= |p| + |q| - 1.  When this holds p and q must be
    conjugate; that conclusion is asserted by the property suite, not
    here.  Both p and q must be primitive.
    """
    if not is_primitive(p):
        raise ValueError("p must be primitive")
    if not is_primitive(q):
        raise ValueError("q must be primitive")
    return (
        len(w) >= len(p) + len(q) - 1
        and is_factor_of_power(w, p)
        and is_factor_of_power(w, q)
    )


class ConjugacyDecomposition(NamedTuple):
    """The structure of all solutions of u z == z v.

    Every such relation is generated by a primitive seed sigma tau:
    u == (sigma tau)^m, z == (sigma tau)^ell sigma, v == (tau sigma)^m.
    tau may be empty, in which case sigma itself is primitive.
    """

    sigma: str
    tau: str
    ell: int
    m: int

    @property
    def u(self) -> str:
        return (self.sigma + self.tau) * self.m

    @property
    def z(self) -> str:
        return (self.sigma + self.tau) * self.ell + self.sigma

    @property
    def v(self) -> str:
        return (self.tau + self.sigma) * self.m


def transfer_decomposition(u: str, z: str, v: str) -> ConjugacyDecomposition:
    """Decompose a relation u z == z v into its primitive seed.

    The seed sigma tau is pinned to the primitive root of u, and sigma
    to the prefix of the root of length |z| mod |root|; this makes the
    output canonical.  A non-empty z that is a whole power of the root
    takes the remainder |root|, so sigma is the root itself and tau is
    empty; an empty z takes 0, so sigma is empty.

    >>> transfer_decomposition("ab", "a", "ba")
    ConjugacyDecomposition(sigma='a', tau='b', ell=0, m=1)
    """
    if not u or u + z != z + v:
        raise ValueError("not a transfer relation")
    root = primitive_root(u)
    m = len(u) // len(root)
    ell, r = divmod(len(z), len(root))
    if z and not r:
        ell, r = ell - 1, len(root)
    return ConjugacyDecomposition(root[:r], root[r:], ell, m)
