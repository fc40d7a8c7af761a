"""Combinatorics on finite words and bounded word-equation verification.

The library has four layers: exact word primitives (periods, primitive
roots, conjugacy), binary-code machinery (unique decoding, imprimitive
expansions), an exhaustive bounded solver for x^i y^j x^k = u^i v^j u^k
with a periodicity-forcing verdict, and closed-form non-periodic
solution families at the boundary exponents.  A small CLI exposes all
of it; see the README.
"""

from .words import (
    ConjugacyDecomposition,
    ParameterError,
    all_words,
    alphabet,
    are_conjugate,
    border_table,
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
    words_of_length,
)
from .codes import (
    BinaryCode,
    CodeWord,
    ImprimitiveSet,
    PowerShape,
    classify_x_power,
    code_words,
    count_factorizations,
    decode,
    imprimitive_in_cross_set,
    x_primitive_imprimitive_set,
)
from .equations import (
    EquationInstance,
    Exponents,
    ForcingVerdict,
    SolutionReport,
    canonical_instance,
    check,
    conjecture_scan,
    enumerate_solutions,
    forcing_verdict,
    is_periodic_solution,
    iter_solutions,
    split_even_j,
    theorem_applies,
)
from .families import (
    CommutingParametersError,
    FamilyGridSummary,
    family_i1k1,
    family_j2,
    validate_family_grid,
)
from .oracles import OracleResult, run_lemma_suite

__version__ = "0.1.0"
