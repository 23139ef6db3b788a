"""2-rank and 4-rank of the tame kernel K2 of quadratic integer rings.

The 2-rank comes from counting which of +-1, +-2 are norms; the 4-rank comes
from the divisor-counting sets V1 and V2, realized two independent ways: as
solution sets of F2 linear systems attached to the symbol matrix B, and (for
cross-checking) by testing the defining Hilbert-symbol conditions divisor by
divisor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2linalg, matrices
from .arith import (
    Place,
    SquareFreeN,
    divisors_of,
    factor_squarefree,
    hilbert,
    is_norm,
    legendre,
)
from .errors import CountNotPowerOfTwo, OutOfRange
from .f2linalg import F2Matrix, F2Vector
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
    return _r2(m, _factored(m))


def _r2(m: int, sf: SquareFreeN) -> int:
    if m > 2:
        norms = sum(1 for e in (1, -1, 2, -2) if is_norm(e, m, sf.primes))
        return sf.k + norms.bit_length() - 1
    norms = sum(1 for e in (1, 2) if is_norm(e, m, sf.primes))
    return sf.k - 1 + norms.bit_length() - 1


def _solution_values(b_target: F2Vector, bmat, primes) -> set[int]:
    return {matrices.psi(x, primes) for x in f2linalg.solution_set(bmat, b_target)}


def _mu(m: int, sf: SquareFreeN) -> int | None:
    """mu of the fundamental 2*mu^2 - tau^2 = m (or - lam^2 for m < 0), or
    None when 2 is not a norm from Q(sqrt(m)); sf is |m| factored."""
    if not is_norm(2, m, sf.primes):
        return None
    return fundamental_2mu2_tau2(m, sf)[0] if m > 0 else rep_neg(m, sf).mu


def v_sets(m: int) -> tuple[frozenset[int], frozenset[int]]:
    """The divisor sets V1 and V2 via F2 solves against B = A + D_(m/m').

    For m > 0 both sets consist of positive divisors of the odd part m'; for
    m < 0 they are signed, with solutions of the targets b_(-eps) contributing
    negative divisors.  V2 is empty when 2 is not a norm from Q(sqrt(m)).
    """
    return _v_sets(m, _factored(m))[:2]


def _v_sets(m: int, sf: SquareFreeN) -> tuple[frozenset[int], frozenset[int], int | None]:
    """``v_sets`` for |m| factored as sf, and the mu it used."""
    primes = sf.primes
    twist = matrices.build_b(m // sf.odd_part, sf).to_tuple()
    bmat = matrices.symbol_table(sf).a_matrix() + F2Matrix.diagonal(twist)

    def solutions(eps: int) -> set[int]:
        return _solution_values(matrices.build_b(eps, sf), bmat, primes)

    mu = _mu(m, sf)
    if m > 0:
        v1 = set()
        for eps in (1, -1, 2, -2):
            v1 |= solutions(eps)
        v2 = set() if mu is None else solutions(mu) | solutions(-mu)
        return frozenset(v1), frozenset(v2), mu

    v1 = solutions(1) | solutions(2)
    v1 |= {-d for d in solutions(-1) | solutions(-2)}
    v2 = set() if mu is None else solutions(mu) | {-d for d in solutions(-mu)}
    return frozenset(v1), frozenset(v2), mu


def v_sets_direct(m: int) -> tuple[frozenset[int], frozenset[int]]:
    """V1 and V2 by brute per-divisor Hilbert-symbol checks (dual route).

    Tests the defining condition (d, -m)_p = (eps/p) for all p | m' directly,
    without any linear algebra; used to cross-check v_sets.
    """
    sf = _factored(m)
    primes = sf.primes
    candidates = divisors_of(sf.odd_part)
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

    m is factored once and mu computed once.
    """
    sf = _factored(m)
    v1, v2, mu = _v_sets(m, sf)
    return TameKernelReport(
        m=m,
        r2=_r2(m, sf),
        r4=_r4_from_counts(m, v1, v2),
        v1=v1,
        v2=v2,
        mu_used=mu,
    )
