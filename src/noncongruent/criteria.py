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
from dataclasses import asdict, dataclass, field

from . import f2linalg, matrices
from .arith import (
    QuadExpr,
    SquareFreeN,
    factor_squarefree,
    is_norm,
    jacobi,
    quad_jacobi,
)
from .errors import (
    NotRankTwo,
    NotSquareFree,
    PreconditionFailed,
    VerificationFailed,
)
from .reps import rep_2mu2_tau2


class VerdictKind(enum.Enum):
    NON_CONGRUENT_SHA22 = "NonCongruentSha22"
    CRITERION_FAILS = "CriterionFails"
    S2_NOT_TWO = "S2NotTwo"
    NOT_ELIGIBLE = "NotEligible"


@dataclass
class Verdict:
    """Full classification record with per-field provenance trace."""

    n: int
    verdict: VerdictKind
    s2: int | None = None
    h4_minus: int | None = None
    h4_plus: int | None = None
    d: int | None = None
    mu: int | None = None
    pairing_symbol: int | None = None
    trace: list[tuple[str, str]] = field(default_factory=list)

    def record(self, name: str, method: str, value):
        """Set one field, note in the trace how it was computed, return it."""
        setattr(self, name, value)
        self.trace.append((name, method))
        return value

    def to_dict(self) -> dict:
        out = asdict(self)
        out["verdict"] = self.verdict.value
        out["trace"] = [list(t) for t in self.trace]
        return out


def distinguished_divisor(sf: SquareFreeN, table: matrices.SymbolTable | None = None) -> int:
    """The unique divisor d != 1 of n with (d, n)_v = +1 at every place.

    Odd n: d is the positive divisor read off the one-dimensional kernel of
    A + D_(-1).  Even n: |d| comes from the kernel of A^T and the sign is
    fixed by d = 1 mod 8.  Both matrices come from the symbol table of n
    (built here unless given).  The Hilbert conditions are re-verified
    before returning.
    """
    if table is None:
        table = matrices.symbol_table(sf)
    ker = f2linalg.kernel(table.divisor_matrix())
    if len(ker) != 2:
        raise NotRankTwo(f"kernel size {len(ker)} != 2 for n = {sf.n}")
    d = matrices.psi(ker[1], sf.primes)
    if sf.is_even:
        if d % 8 == 7:
            d = -d
        elif d % 8 != 1:
            raise VerificationFailed(f"|d| = {d} is not +-1 mod 8")
    if not is_norm(d, sf.n, sf.primes):
        raise VerificationFailed(f"(d, n)_v != 1 for d = {d}, n = {sf.n}")
    return d


def closed_form_pairing(sf: SquareFreeN, d: int, mu: int | None) -> int:
    """Closed form of the Cassels pairing of the two pure Selmer generators.

    Odd n: the Jacobi symbol (-mu / d).  Even n (mu is None): the
    quadratic-field symbol ((2 - sqrt(2)) / |d|).
    """
    if sf.is_even:
        return quad_jacobi(QuadExpr(2, -1, 2), abs(d), sf.primes)
    return jacobi(-mu, d)


def thm_main1_lhs(sf: SquareFreeN, table: matrices.SymbolTable | None = None) -> tuple[bool, Verdict]:
    """Odd-case criterion: h4(-n) = 1, h4(n) = 0 and (-mu/d) = -1.

    Returns whether it holds and the verdict with every value computed on
    the way (all but s2).  Every rank is read off the symbol table of n,
    built here unless given.
    """
    if sf.is_even or sf.n % 8 != 1 or not sf.eligibility:
        raise PreconditionFailed(f"n = {sf.n} is not odd eligible 1 mod 8")
    if table is None:
        table = matrices.symbol_table(sf)
    v = Verdict(n=sf.n, verdict=VerdictKind.CRITERION_FAILS)
    h4m = v.record("h4_minus", "redei_rank", table.h4(-sf.n))
    h4p = v.record("h4_plus", "redei_rank", table.h4(sf.n))
    if h4m != 1 or h4p != 0:
        return _settle(v, False)
    d = v.record("d", "kernel_psi", distinguished_divisor(sf, table))
    mu = v.record("mu", "z2_euclid", rep_2mu2_tau2(sf.n, d, sf).mu)
    symbol = closed_form_pairing(sf, d, mu)
    return _settle(v, v.record("pairing_symbol", "jacobi_closed_form", symbol) == -1)


def thm_main2_lhs(sf: SquareFreeN, table: matrices.SymbolTable | None = None) -> tuple[bool, Verdict]:
    """Even-case criterion: h4(-n/2) = 1 and ((2 - sqrt(2)) / |d|) = -1.

    Returns whether it holds and the verdict, as ``thm_main1_lhs`` does.
    """
    if not sf.is_even or sf.n % 8 != 2 or not sf.eligibility:
        raise PreconditionFailed(f"n = {sf.n} is not even eligible 2 mod 8")
    if table is None:
        table = matrices.symbol_table(sf)
    v = Verdict(n=sf.n, verdict=VerdictKind.CRITERION_FAILS)
    if v.record("h4_minus", "redei_rank", table.h4(-sf.odd_part)) != 1:
        return _settle(v, False)
    d = v.record("d", "kernel_psi", distinguished_divisor(sf, table))
    symbol = closed_form_pairing(sf, d, None)
    return _settle(v, v.record("pairing_symbol", "quad_jacobi_closed_form", symbol) == -1)


def _settle(v: Verdict, holds: bool) -> tuple[bool, Verdict]:
    v.verdict = VerdictKind.NON_CONGRUENT_SHA22 if holds else VerdictKind.CRITERION_FAILS
    return holds, v


def classify(n: int | SquareFreeN) -> Verdict:
    """Classify n; all failure modes become verdict values, never errors.

    n is factored once (a ``SquareFreeN`` is taken as already factored),
    every field is computed once, and every F2 matrix is read off one
    symbol table of n.
    """
    if isinstance(n, SquareFreeN):
        sf = n
    else:
        try:
            sf = factor_squarefree(n)
        except NotSquareFree:
            return Verdict(n=n, verdict=VerdictKind.NOT_ELIGIBLE, trace=[("n", "not_squarefree")])
    n = sf.n
    if not sf.eligibility or n % 8 not in (1, 2):
        return Verdict(n=n, verdict=VerdictKind.NOT_ELIGIBLE, trace=[("n", "eligibility_sieve")])
    if sf.k == 0:
        # n = 1 or 2: the pure Selmer group is trivial.
        return Verdict(n=n, verdict=VerdictKind.S2_NOT_TWO, s2=0, trace=[("s2", "trivial_case")])
    table = matrices.symbol_table(sf)
    s2 = table.s2()
    if s2 != 2:
        return Verdict(n=n, verdict=VerdictKind.S2_NOT_TWO, s2=s2, trace=[("s2", "monsky_rank")])
    _, v = (thm_main2_lhs if sf.is_even else thm_main1_lhs)(sf, table)
    v.s2 = s2
    v.trace.insert(0, ("s2", "monsky_rank"))
    return v
