"""Closed-form non-periodic solutions at the boundary exponents.

Two constructions witness that the forcing bounds j >= 3 and i + k >= 3
are tight: one family solves the equation with j = 2 and i = k + 1, the
other with i = k = 1 and odd j >= 3.  Both take a pair of non-commuting
parameter words and always produce a valid non-periodic solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import EquationInstance, Exponents, check, is_periodic_solution
from .words import ParameterError, all_words, alphabet, commutes


class CommutingParametersError(ValueError):
    """Family parameters must be non-empty and non-commuting."""


def _require_noncommuting(p: str, q: str, names: str) -> None:
    if not p or not q:
        raise CommutingParametersError(f"{names} must be non-empty")
    if commutes(p, q):
        raise CommutingParametersError(f"{names} = {p!r}, {q!r} commute")


def _certify(inst: EquationInstance, label: str) -> EquationInstance:
    # Both guarantees hold for every non-commuting parameter choice;
    # failing here would mean the construction itself is wrong.
    if not check(inst):
        raise RuntimeError(f"family {label} produced a non-solution: {inst}")
    if is_periodic_solution(inst):
        raise RuntimeError(f"family {label} produced a periodic solution: {inst}")
    return inst


def family_j2(alpha: str, beta: str, k: int = 1) -> EquationInstance:
    """Non-periodic solution of x^(k+1) y^2 x^k = u^(k+1) v^2 u^k.

    x = alpha^(2k+1) (beta alpha^k)^2        u = alpha
    y = beta alpha^k                         v = (alpha^k beta)^2 (alpha^(3k+1) beta alpha^k beta)^k
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    _require_noncommuting(alpha, beta, "alpha and beta")
    ak = alpha * k
    x = alpha * (2 * k + 1) + (beta + ak) * 2
    y = beta + ak
    v = (ak + beta) * 2 + (alpha * (3 * k + 1) + beta + ak + beta) * k
    inst = EquationInstance(Exponents(k + 1, 2, k), x, y, alpha, v)
    return _certify(inst, "j2")


def family_i1k1(alpha: str, gamma: str, j: int = 3) -> EquationInstance:
    """Non-periodic solution of x y^j x = u v^j u for odd j >= 3.

    u = alpha, y = gamma, v = alpha gamma^j alpha, and x = alpha beta alpha
    where beta = v^((j-1)/2) is the word square root of v^(j-1).
    """
    if j < 3 or j % 2 == 0:
        raise ParameterError("beta^2 = v^(j-1) has a word solution only for odd j >= 3")
    _require_noncommuting(alpha, gamma, "alpha and gamma")
    v = alpha + gamma * j + alpha
    beta = v * ((j - 1) // 2)
    x = alpha + beta + alpha
    inst = EquationInstance(Exponents(1, j, 1), x, gamma, alpha, v)
    return _certify(inst, "i1k1")


@dataclass(frozen=True)
class FamilyGridSummary:
    """Counts from a validation sweep over both families."""

    pairs: int
    j2_instances: int
    i1k1_instances: int

    @property
    def total(self) -> int:
        return self.j2_instances + self.i1k1_instances


def validate_family_grid(
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
