"""Non-congruent number criteria with second-minimal 2-primary Sha.

Classifies square-free integers whose odd prime factors are +-1 mod 8, via
F2 descent matrices, Redei 4-ranks, a closed-form Cassels pairing, and tame
kernel 4-ranks, all backed by independent brute-force oracles.  The rest of
the library is reached through its modules (``noncongruent.matrices`` and
so on).
"""

from .arith import factor_squarefree
from .criteria import classify
from .matrices import selmer_elements
from .reps import rep_2mu2_tau2

__version__ = "0.1.0"

__all__ = [
    "classify",
    "factor_squarefree",
    "rep_2mu2_tau2",
    "selmer_elements",
]
