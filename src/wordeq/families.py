"""Closed-form non-periodic solutions at the boundary exponents.

Two constructions witness that the forcing bounds j >= 3 and i + k >= 3
are tight: one family solves the equation with j = 2 and i = k + 1, the
other with i = k = 1 and odd j >= 3.  Both take a pair of non-commuting
parameter words and always produce a valid non-periodic solution.

Each family writes its words once, as one function of its parameter
words and its exponent that only concatenates and repeats; on the
parameter lengths the same function gives the word lengths, which the
letter budget reads.  One equation check certifies an instance: it
raises ValueError for a non-solution, RuntimeError for a periodic one.
"""

from __future__ import annotations

from math import log10
from typing import NamedTuple

from .equations import EquationInstance, Exponents, is_periodic_solution
from .words import ParameterError, alphabet, commutes


# CPython's default limit on the digits of an int converted to str; a
# grid whose counts need more could not be printed.
_MAX_DIGITS = 4300
_TOO_LARGE = 10**_MAX_DIGITS
# The longest common value a single family instance may have, about 60 MB
# at peak; the grid's longest, family_j2("a", "b", 500), has 2,006,005.
_MAX_LETTERS = 10**7


class CommutingParametersError(ValueError):
    """Family parameters must be non-empty and non-commuting."""


# Each family's x, y, u and v from its parameter words (or their lengths) and its exponent.
def _j2_words(alpha, beta, k):
    ak = alpha * k
    x = alpha * (2 * k + 1) + (beta + ak) * 2
    y = beta + ak
    v = (ak + beta) * 2 + (alpha * (3 * k + 1) + beta + ak + beta) * k
    return x, y, alpha, v


def _i1k1_words(alpha, gamma, j):
    v = alpha + gamma * j + alpha
    x = alpha + v * ((j - 1) // 2) + alpha
    return x, gamma, alpha, v


def _family(label: str, exps: Exponents, words, p: str, q: str, n: int, names: str) -> EquationInstance:
    # len maps concatenation to + and repetition to *: a morphism, as in validate_family_grid
    lx, ly, _, _ = words(len(p), len(q), n)
    letters = (exps.i + exps.k) * lx + exps.j * ly
    if letters > _MAX_LETTERS:
        raise ParameterError(f"the common value would have {letters} letters, more than {_MAX_LETTERS}")
    if not p or not q:
        raise CommutingParametersError(f"{names} must be non-empty")
    if commutes(p, q):
        raise CommutingParametersError(f"{names} = {p!r}, {q!r} commute")
    inst = EquationInstance(exps, *words(p, q, n))
    if is_periodic_solution(inst):
        raise RuntimeError(f"family {label} produced a periodic solution: {inst}")
    return inst


def family_j2(alpha: str, beta: str, k: int = 1) -> EquationInstance:
    """Non-periodic solution of x^(k+1) y^2 x^k = u^(k+1) v^2 u^k.

    x = alpha^(2k+1) (beta alpha^k)^2        u = alpha
    y = beta alpha^k                         v = (alpha^k beta)^2 (alpha^(3k+1) beta alpha^k beta)^k

    A common value of more than ten million letters raises ParameterError.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    return _family("j2", Exponents(k + 1, 2, k), _j2_words, alpha, beta, k, "alpha and beta")


def family_i1k1(alpha: str, gamma: str, j: int = 3) -> EquationInstance:
    """Non-periodic solution of x y^j x = u v^j u for odd j >= 3.

    u = alpha, y = gamma, v = alpha gamma^j alpha, and x = alpha beta alpha
    where beta = v^((j-1)/2) is the word square root of v^(j-1).
    A common value of more than ten million letters raises ParameterError.
    """
    if j < 3 or j % 2 == 0:
        raise ParameterError("beta^2 = v^(j-1) has a word solution only for odd j >= 3")
    return _family("i1k1", Exponents(1, j, 1), _i1k1_words, alpha, gamma, j, "alpha and gamma")


class FamilyGridSummary(NamedTuple):
    """Parameter pairs and instances covered by one grid validation.

    ``pairs`` counts the ordered non-commuting pairs of non-empty words
    up to the parameter length; each pair stands for one instance per k
    (family j2) and one per odd j (family i1k1).
    """

    pairs: int
    j2_instances: int
    i1k1_instances: int

    @property
    def total(self) -> int:
        return self.j2_instances + self.i1k1_instances


def validate_family_grid(
    max_param_len: int, max_k: int, max_j: int, alphabet_size: int = 2
) -> FamilyGridSummary:
    """Certify both families over a parameter grid without building its pairs.

    The grid is every ordered non-commuting pair (p, q) of non-empty
    words up to max_param_len over the alphabet, with k over 1..max_k
    and j over the odd values 3..max_j.

    One certificate per k and per j covers all pairs.  The argument
    needs one condition: both families build x, y, u and v from their
    two parameters by concatenation alone.  Then family(p, q) is the
    image of family("a", "b") under the morphism h: a -> p, b -> q.
    Non-commuting p and q form a binary code (defect theorem), so h is
    injective.  A morphism maps a solution to a solution, and an
    injective one keeps non-commuting words non-commuting, so it keeps
    a non-periodic solution non-periodic.  Certifying
    family_j2("a", "b", k) and family_i1k1("a", "b", j) therefore
    certifies the whole grid.  A certificate that fails raises ValueError
    for a non-solution and RuntimeError for a periodic solution.

    The pairs are counted in closed form.  Non-empty words commute
    exactly when they are powers of one primitive word.  With
    L = max_param_len, W words of length 1..L and psi(d) primitive
    words of length d, the commuting pairs number
    sum_{d <= L} psi(d) * (L // d)^2, and the grid has W^2 minus that.
    psi comes from a sieve over multiples (a^d minus psi of each proper
    divisor), O(L log L) integer operations.  Counts of more than 4300
    digits raise ParameterError.  Each word commutes with at most L
    words, so the grid has at least W (W - L) >= a^L pairs, and a long
    max_param_len is refused before any count is built.
    """
    if max_param_len < 1 or max_k < 1 or max_j < 1:
        raise ParameterError("grid bounds must be >= 1")
    if max_k > 500 or max_j > 1001:
        raise ParameterError("grid needs max_k <= 500 and max_j <= 1001: its cost is cubic in both")
    a, n = len(alphabet(alphabet_size)), max_param_len
    too_long = f"grid counts must have at most {_MAX_DIGITS} digits"
    if n * log10(a) > _MAX_DIGITS:
        raise ParameterError(too_long)
    odd_js = range(3, max_j + 1, 2)
    for k in range(1, max_k + 1):
        family_j2("a", "b", k)
    for j in odd_js:
        family_i1k1("a", "b", j)
    psi = [a**d for d in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(2 * d, n + 1, d):
            psi[m] -= psi[d]
    words = sum(a**d for d in range(1, n + 1))
    pairs = words**2 - sum(psi[d] * (n // d) ** 2 for d in range(1, n + 1))
    summary = FamilyGridSummary(pairs, pairs * max_k, pairs * len(odd_js))
    if summary.total >= _TOO_LARGE:
        raise ParameterError(too_long)
    return summary
