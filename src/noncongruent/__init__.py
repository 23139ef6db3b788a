"""Non-congruent number criteria with second-minimal 2-primary Sha.

Classifies square-free integers whose odd prime factors are +-1 mod 8, via
F2 descent matrices, Redei 4-ranks, a closed-form Cassels pairing, and tame
kernel 4-ranks, all backed by independent brute-force oracles.
"""

from .arith import (
    Place,
    REAL_PLACE,
    SquareFreeN,
    additive_jacobi,
    factor_squarefree,
    hilbert,
    is_norm,
    jacobi,
    legendre,
    sqrt_mod,
)
from .criteria import Verdict, VerdictKind, classify, distinguished_divisor
from .f2linalg import F2Matrix
from .matrices import (
    SelmerTriple,
    h2,
    h4,
    redei_matrix,
    s2,
    selmer_elements,
    symbol_table,
)
from .oracles import (
    BQForm,
    ClassGroupReport,
    CongruentCurve,
    class_group,
    h4_oracle,
    point_search,
    selmer_oracle,
)
from .reps import rep_2mu2_tau2, rep_a2_8b2, rep_neg, rep_u2_2w2
from .tame import TameKernelReport, r2_tame, r4_tame, tame_report, v_sets

__version__ = "0.1.0"

__all__ = [
    "Place",
    "REAL_PLACE",
    "SquareFreeN",
    "additive_jacobi",
    "factor_squarefree",
    "hilbert",
    "is_norm",
    "jacobi",
    "legendre",
    "sqrt_mod",
    "Verdict",
    "VerdictKind",
    "classify",
    "distinguished_divisor",
    "F2Matrix",
    "SelmerTriple",
    "h2",
    "h4",
    "redei_matrix",
    "s2",
    "selmer_elements",
    "symbol_table",
    "BQForm",
    "ClassGroupReport",
    "CongruentCurve",
    "class_group",
    "h4_oracle",
    "point_search",
    "selmer_oracle",
    "rep_2mu2_tau2",
    "rep_a2_8b2",
    "rep_neg",
    "rep_u2_2w2",
    "TameKernelReport",
    "r2_tame",
    "r4_tame",
    "tame_report",
    "v_sets",
]
