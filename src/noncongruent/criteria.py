"""Classification of square-free n as non-congruent with Sha[2^oo] = (Z/2)^2.

The sufficient-and-necessary criterion in the rank-two regime combines three
ingredients: the Redei 4-ranks of the attached quadratic fields, the
distinguished divisor d (the unique nontrivial divisor with all Hilbert
symbols (d, n)_v trivial), and one Jacobi-type symbol built from a Pell
representation of n.  ``classify`` never claims congruence: a failed
criterion only means the sufficient condition does not hold.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from . import matrices
from .arith import SquareFreeN, factor_squarefree, hilbert
from .errors import NotCoprime, NotRankTwo, NotSquareFree, VerificationFailed
from .reps import rep_2mu2_tau2


class VerdictKind(enum.Enum):
    NON_CONGRUENT_SHA22 = "NonCongruentSha22"
    CRITERION_FAILS = "CriterionFails"
    S2_NOT_TWO = "S2NotTwo"
    NOT_ELIGIBLE = "NotEligible"


# The kinds as module globals, in definition order: reading a member off the
# enum class costs far more per row.
_NON_CONGRUENT, _FAILS, _NOT_TWO, _NOT_ELIGIBLE = VerdictKind


class Verdict(namedtuple("Verdict", "n verdict s2 h4_minus h4_plus d mu pairing_symbol trace")):
    """Full classification record with per-field provenance trace: the
    fields in the key order of ``to_dict``, the trace its exit's constant."""

    __slots__ = ()

    def to_dict(self) -> dict:
        out = self._asdict()
        out["verdict"] = self.verdict.value
        out["trace"] = [list(t) for t in self.trace]
        return out


# The trace of each exit of ``classify``: its (field, method) pairs in stage order.
_NOT_SQUAREFREE = (("n", "not_squarefree"),)
_SIEVED_OUT = (("n", "eligibility_sieve"),)
_MONSKY = (("s2", "monsky_rank"),)
_EVEN_TWO = _MONSKY + (("h4_minus", "redei_rank"), ("d", "kernel_psi"),
                       ("pairing_symbol", "quad_jacobi_closed_form"))
_ODD_TWO = _MONSKY + (("h4_minus", "redei_rank"), ("h4_plus", "redei_rank"), ("d", "kernel_psi"),
                      ("mu", "z2_euclid"), ("pairing_symbol", "jacobi_closed_form"))


def distinguished_divisor(sf: SquareFreeN) -> int:
    """The unique divisor d != 1 of n with (d, n)_v = +1 at every place.

    Odd n: d is the positive divisor read off the one-dimensional kernel of
    A + D_(-1).  Even n: |d| comes from the kernel of A^T and the sign is
    fixed by d = 1 mod 8.  The matrix comes from the symbol table of n,
    and d is re-checked before it is returned.
    """
    return _checked_divisor(sf, matrices.symbol_table(sf).divisor_kernel())


def _odd_places_hold(d: int, sf: SquareFreeN) -> bool:
    """(d, n)_p = +1 at every odd p | n for d | n, by one Euler criterion each:
    n is square-free, so (d, n)_p is (d/p) for p not dividing d, else (-(n/d)/p)."""
    q = -(sf.n // d)
    for p in sf.primes:
        if pow(d if d % p else q, p >> 1, p) != 1:
            return False
    return True


def _checked_divisor(sf: SquareFreeN, kernel: list[int] | tuple[int, ...]) -> int:
    """d = psi of the nonzero vector of the divisor kernel, sign-fixed for
    even n.  Before returning, d | n and (d, n)_v are re-checked at 2 and
    each odd p | n: no other finite place can give -1, the primes of n are
    known, and (d, n)_oo = +1 for every d since n > 0.  By Hilbert
    reciprocity the odd places then force (d, n)_2 = +1, so the check at 2
    is kept as a second route that catches a faulty odd-place check."""
    if len(kernel) != 2:
        raise NotRankTwo(f"kernel size {len(kernel)} != 2 for n = {sf.n}")
    d = matrices.psi(kernel[1], sf.primes)
    if sf.is_even:
        if d % 8 == 7:
            d = -d
        elif d % 8 != 1:
            raise VerificationFailed(f"|d| = {d} is not +-1 mod 8")
    n = sf.n
    if n % d or hilbert(d, n, 2) != 1 or not _odd_places_hold(d, sf):
        raise VerificationFailed(f"(d, n)_v != 1 for d = {d}, n = {n}")
    return d


# The F2 part of classify for each table shape seen in this process: s2,
# h4(-n'), h4(n) for odd n and the divisor kernel, keyed by (parity of n,
# A, D_(-1)).  Past the gate D_2 = 0 and n' = 1 mod 8, so the Monsky and
# divisor matrices and the Redei matrices of -n' and n are A, A^T and
# D_(-1) alone, and k = len(A): the key is complete.  Only k <= 4 is kept:
# n' = 1 mod 8 puts an even number of primes 7 mod 8 in n, so there are
# 2^(k(k-1)/2) * 2^(k-1) tables of each parity and k, at most
# 2 * (1 + 4 + 32 + 512) = 1098 keys.
_SHAPES: dict = {}


def _shape(sf: SquareFreeN, table: matrices.SymbolTable) -> tuple:
    """(s2, h4_minus, h4_plus, divisor kernel) of an n past the gate; the
    last three are None unless s2 = 2, and h4_plus is None for even n.
    s2 = 2 forces h4(-n') = 1 and, for odd n, h4(n) = 0: a shape that
    fails this raises VerificationFailed before the memo can keep it."""
    key = (sf.is_even, table.a, table.minus_one)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = (table.s2(), None, None, None)
        if shape[0] == 2:
            h4_minus = table.h4(-sf.odd_part)
            h4_plus = None if sf.is_even else table.h4(sf.n)
            if h4_minus != 1 or h4_plus:
                raise VerificationFailed(f"s2 = 2 but h4 = ({h4_minus}, {h4_plus}) for n = {sf.n}")
            shape = (2, h4_minus, h4_plus, tuple(table.divisor_kernel()))
        if sf.k <= 4:
            _SHAPES[key] = shape
    return shape


def closed_form_pairing(sf: SquareFreeN, d: int, mu: int | None) -> int:
    """Closed form of the Cassels pairing of the two pure Selmer generators.

    Odd n: the Jacobi symbol (-mu / d), each (-mu / p) by Euler's criterion.
    Even n (mu is None): ((2 - sqrt(2)) / |d|), whose factor at p is -1
    exactly when p = +-7 mod 16: for z a primitive 16th root of unity, the
    root z^3 + z^-3 of 2 - sqrt(2) generates Q(z)^+, cyclic of degree 4 over
    Q, in which a prime above p splits exactly when p = +-1 mod 16.
    """
    if sf.is_even:
        return (-1) ** sum([p % 16 in (7, 9) for p in sf.primes if d % p == 0])
    symbol = 1
    for p in sf.primes:
        if d % p == 0 and pow(-mu, p >> 1, p) != 1:
            if mu % p == 0:
                raise NotCoprime(f"gcd({-mu}, {d}) > 1")
            symbol = -symbol
    return symbol


def classify(n: int | SquareFreeN) -> Verdict:
    """Classify n: one verdict for every n that factors.

    ``CriterionFails`` means exactly that the pairing symbol is +1.  For
    eligible n, s2 = 2 holds exactly when the Redei 4-rank conditions do, so
    a 4-rank that fails at s2 = 2 is a bug and raises VerificationFailed
    (checked once per shape by ``_shape``), as does a distinguished divisor
    that fails its re-check.

    n is factored once (a ``SquareFreeN`` is taken as already factored),
    each field is computed once into a local (s2, the 4-ranks, d, mu, the
    symbol), the verdict is built once, at the exit taken, with that exit's
    trace, and every F2 matrix is read off one symbol table of n.
    s2, the 4-ranks and the divisor kernel are made once per table shape
    with k <= 4 in each process (``_SHAPES``); d, mu and the symbol read
    the primes and are made and checked for each n.
    The criterion is Theorem 1 for odd n (h4(-n) = 1, h4(n) = 0 and
    (-mu/d) = -1) and Theorem 2 for even n (h4(-n/2) = 1 and
    ((2 - sqrt(2))/|d|) = -1: an odd number of primes of d are +-7 mod 16).
    """
    if isinstance(n, SquareFreeN):
        sf = n
    else:
        try:
            sf = factor_squarefree(n)
        except NotSquareFree:
            return Verdict(n, _NOT_ELIGIBLE, None, None, None, None, None, None, _NOT_SQUAREFREE)
    n = sf.n
    if not sf.eligibility or n % 8 not in (1, 2):
        return Verdict(n, _NOT_ELIGIBLE, None, None, None, None, None, None, _SIEVED_OUT)
    # h4(-n) and h4(n) for odd n, h4(-n/2) for even n, checked by _shape.
    s2, h4_minus, h4_plus, kernel = _shape(sf, matrices.symbol_table(sf))
    if s2 != 2:
        return Verdict(n, _NOT_TWO, s2, None, None, None, None, None, _MONSKY)
    d = _checked_divisor(sf, kernel)
    mu, trace = (None, _EVEN_TWO) if sf.is_even else (rep_2mu2_tau2(n, d, sf).mu, _ODD_TWO)
    symbol = closed_form_pairing(sf, d, mu)
    return Verdict(n, _NON_CONGRUENT if symbol == -1 else _FAILS, 2, h4_minus, h4_plus, d, mu, symbol, trace)
