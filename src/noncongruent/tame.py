"""2-rank and 4-rank of the tame kernel K2 of quadratic integer rings.

Both ranks are read off the symbol table of |m|.  The 2-rank counts which
of +-1, +-2 are norms from Q(sqrt(m)); the 4-rank comes from the
divisor-counting sets V1 and V2, realized two independent ways: as solution
sets of F2 linear systems attached to the symbol matrix B, and (for
cross-checking) by testing the defining Hilbert-symbol conditions divisor by
divisor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2linalg, matrices
from .arith import (
    Place,
    SquareFreeN,
    additive_jacobi,
    factor_squarefree,
    hilbert,
    legendre,
)
from .errors import CountNotPowerOfTwo, OutOfRange
from .f2linalg import F2Matrix
from .reps import fundamental_2mu2_tau2, rep_neg


@dataclass(frozen=True)
class TameKernelReport:
    """Ranks of the 2-primary part of the tame kernel of Q(sqrt(m))."""

    m: int
    r2: int
    r4: int
    v1: frozenset[int]
    v2: frozenset[int]
    mu_used: int | None


def _factored(m: int) -> SquareFreeN:
    """|m| factored, for square-free m with |m| > 2."""
    if abs(m) <= 2:
        raise OutOfRange(f"|m| must exceed 2, got {m}")
    return factor_squarefree(abs(m))


def r2_tame(m: int) -> int:
    """2-rank of the tame kernel of Q(sqrt(m))."""
    return _r2(m, matrices.symbol_table(_factored(m)))


def _r2(m: int, table: matrices.SymbolTable) -> int:
    """e in {+-1, +-2} is a norm from Q(sqrt(m)) exactly when (e > 0 or
    m > 0) and (e / p) = 1 at every odd p | m: the symbol at 2 then follows
    by Hilbert reciprocity.  The norms among them form a group of order 1,
    2 or 4."""
    k = table.sf.k
    if m > 0:
        norms = 1 + (table.minus_one == 0) + (table.two == 0) + (table.minus_one == table.two)
        return k + norms.bit_length() - 1
    norms = 1 + (table.two == 0)
    return k - 1 + norms.bit_length() - 1


def _mu(m: int, sf: SquareFreeN) -> int | None:
    """mu of the fundamental 2*mu^2 - tau^2 = m (least mu >= 1 for m < 0), or
    None when 2 is not a norm from Q(sqrt(m)), that is when some odd prime
    of m is not +-1 mod 8; sf is |m| factored."""
    if not sf.eligibility:
        return None
    return fundamental_2mu2_tau2(m, sf)[0] if m > 0 else rep_neg(m, sf).mu


def v_sets(m: int) -> tuple[frozenset[int], frozenset[int]]:
    """The divisor sets V1 and V2 via F2 solves against B = A + D_(m/m').

    For m > 0 both sets consist of positive divisors of the odd part m'; for
    m < 0 they are signed, with solutions of the targets b_(-eps) contributing
    negative divisors.  V2 is empty when 2 is not a norm from Q(sqrt(m)).
    """
    return _v_sets(m, matrices.symbol_table(_factored(m)))[:2]


def _v_sets(
    m: int, table: matrices.SymbolTable
) -> tuple[frozenset[int], frozenset[int], int | None]:
    """``v_sets`` from the symbol table of |m|, and the mu it used.

    Bit i of the target b_eps is the additive (eps / p_i): 0, ``minus_one``,
    ``two`` and their sum for eps = 1, -1, 2, -2, one Jacobi row for mu,
    and b_(-mu) = b_mu + b_(-1).  The kernel of B is taken once and each
    target costs one particular solution.
    """
    sf = table.sf
    k, minus_one, two = sf.k, table.minus_one, table.two
    twist = {1: 0, -1: minus_one, 2: two, -2: minus_one ^ two}[m // sf.odd_part]
    bmat = F2Matrix(matrices.plus_diagonal(table.a, twist), k)
    kern = f2linalg.kernel(bmat)

    def solutions(target: int) -> set[int]:
        x = f2linalg.solve(bmat, target)
        if x is None:
            return set()
        return {matrices.psi(x ^ v, sf.primes) for v in kern}

    mu = _mu(m, sf)
    b_mu = 0 if mu is None else sum(additive_jacobi(mu, p) << i for i, p in enumerate(sf.primes))
    if m > 0:
        v1 = solutions(0) | solutions(minus_one) | solutions(two) | solutions(minus_one ^ two)
        v2 = set() if mu is None else solutions(b_mu) | solutions(b_mu ^ minus_one)
        return frozenset(v1), frozenset(v2), mu

    v1 = solutions(0) | solutions(two)
    v1 |= {-d for d in solutions(minus_one) | solutions(minus_one ^ two)}
    v2 = set() if mu is None else solutions(b_mu) | {-d for d in solutions(b_mu ^ minus_one)}
    return frozenset(v1), frozenset(v2), mu


def v_sets_direct(m: int) -> tuple[frozenset[int], frozenset[int]]:
    """V1 and V2 by brute per-divisor Hilbert-symbol checks (dual route).

    Tests the defining condition (d, -m)_p = (eps/p) for all p | m' directly,
    without any linear algebra; used to cross-check v_sets.
    """
    sf = _factored(m)
    primes = sf.primes
    candidates = sf.odd_divisors()
    if m < 0:
        candidates = candidates + [-d for d in candidates]

    def matches(d: int, eps: int) -> bool:
        return all(
            hilbert(d, -m, Place(p)) == legendre(eps, p) for p in primes
        )

    eps1 = (1, -1, 2, -2) if m > 0 else (1, 2)
    v1 = frozenset(d for d in candidates if any(matches(d, e) for e in eps1))
    mu = _mu(m, sf)
    if mu is None:
        return v1, frozenset()
    if m > 0:
        v2 = frozenset(
            d for d in candidates if any(matches(d, e * mu) for e in (1, -1))
        )
    else:
        v2 = frozenset(d for d in candidates if matches(d, mu))
    return v1, v2


def r4_tame(m: int) -> int:
    """4-rank of the tame kernel from the V-set counts."""
    return _r4_from_counts(m, *v_sets(m))


def _r4_from_counts(m: int, v1: frozenset[int], v2: frozenset[int]) -> int:
    count = len(v1) + len(v2)
    if count & (count - 1):
        raise CountNotPowerOfTwo(f"|V1|+|V2| = {count} for m = {m}")
    log = count.bit_length() - 1
    r4 = log - 1 if m > 0 else log - 2
    if r4 < 0:
        raise CountNotPowerOfTwo(f"|V1|+|V2| = {count} too small for m = {m}")
    return r4


def tame_report(m: int) -> TameKernelReport:
    """Full report: r2, r4, the V sets and the mu that was used (if any).

    m is factored once, its symbol table built once and mu computed once.
    """
    table = matrices.symbol_table(_factored(m))
    v1, v2, mu = _v_sets(m, table)
    return TameKernelReport(
        m=m,
        r2=_r2(m, table),
        r4=_r4_from_counts(m, v1, v2),
        v1=v1,
        v2=v2,
        mu_used=mu,
    )
