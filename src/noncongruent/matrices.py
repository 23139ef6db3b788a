"""Builders for the descent matrices and their derived ranks.

Covers the symbol matrix A attached to the odd part of n, the diagonal
twists D_eps and their diagonals b_eps, the 2k x 2k Monsky matrix (odd and
even shapes), the pure 2-Selmer rank s2, enumeration of pure Selmer
representatives, prime-discriminant factorizations, Redei matrices and the
class-group ranks h2 / h4 they compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import f2linalg
from .arith import (
    Place,
    SquareFreeN,
    additive_hilbert,
    additive_jacobi,
    factor_squarefree,
    split_power,
    squarefree_part,
)
from .errors import EmptyFactorization, NotCoprime
from .f2linalg import F2Matrix, F2Vector


@dataclass(frozen=True)
class SelmerTriple:
    """Square-free triple (d1, d2, d3) with d1*d2*d3 a perfect square."""

    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        prod = self.d1 * self.d2 * self.d3
        if prod <= 0 or squarefree_part(prod) != 1:
            raise ValueError(f"{self} is not a square-class triple")

    def __str__(self) -> str:
        return f"({self.d1},{self.d2},{self.d3})"


@dataclass(frozen=True)
class DiscriminantFactorization:
    """Prime-discriminant factorization of disc(Q(sqrt(m)))."""

    prime_discriminants: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.prime_discriminants)

    @property
    def primes(self) -> tuple[int, ...]:
        """Underlying rational primes (2 for the even prime discriminants)."""
        return tuple(2 if d in (-4, 8, -8) else abs(d) for d in self.prime_discriminants)


def _require_factors(sf: SquareFreeN) -> None:
    if sf.k == 0:
        raise EmptyFactorization(f"n = {sf.n} has no odd prime factor")


def psi(vec: F2Vector, primes: tuple[int, ...]) -> int:
    """Product of the primes selected by the bit vector."""
    out = 1
    for i, p in enumerate(primes):
        if vec[i]:
            out *= p
    return out


def psi_inverse(d: int, primes: tuple[int, ...]) -> F2Vector:
    """Exponent vector of |d| over the given prime list."""
    d = abs(d)
    bits = 0
    for i, p in enumerate(primes):
        e, d = split_power(d, p)
        bits |= (e & 1) << i
    return F2Vector(bits, len(primes))


def build_A(sf: SquareFreeN) -> F2Matrix:
    """k x k additive-symbol matrix of the odd part.

    Off-diagonal entries are the additive Jacobi symbols (p_j / p_i); the
    diagonal entry is the additive symbol of the complementary divisor, which
    makes every row sum to zero.
    """
    _require_factors(sf)
    ps = sf.primes
    rows = []
    for i, pi in enumerate(ps):
        bits = 0
        for j, pj in enumerate(ps):
            a = additive_jacobi(sf.odd_part // pi if i == j else pj, pi)
            bits |= a << j
        rows.append(bits)
    return F2Matrix(tuple(rows), sf.k)


def build_D(eps: int, sf: SquareFreeN) -> F2Matrix:
    """diag of the additive Jacobi symbols (eps / p_i)."""
    _require_factors(sf)
    if gcd(eps, sf.odd_part) != 1:
        raise NotCoprime(f"eps = {eps} shares a factor with {sf.odd_part}")
    return F2Matrix.diagonal([additive_jacobi(eps, p) for p in sf.primes])


def build_b(eps: int, sf: SquareFreeN) -> F2Vector:
    """The diagonal of D_eps as a column vector."""
    _require_factors(sf)
    if gcd(eps, sf.odd_part) != 1:
        raise NotCoprime(f"eps = {eps} shares a factor with {sf.odd_part}")
    return F2Vector.from_bits([additive_jacobi(eps, p) for p in sf.primes])


def monsky_matrix(sf: SquareFreeN) -> F2Matrix:
    """2k x 2k Monsky matrix whose kernel is the pure 2-Selmer group."""
    _require_factors(sf)
    a = build_A(sf)
    d2 = build_D(2, sf)
    if not sf.is_even:
        return F2Matrix.block([[a + d2, d2], [d2, a + build_D(-2, sf)]])
    return F2Matrix.block(
        [[a.transpose() + d2, build_D(-1, sf)], [d2, a + d2]]
    )


def s2(sf: SquareFreeN) -> int:
    """Pure 2-Selmer rank: 2k minus the rank of the Monsky matrix."""
    _require_factors(sf)
    return 2 * sf.k - f2linalg.rank(monsky_matrix(sf))


def _split(v: F2Vector, k: int) -> tuple[F2Vector, F2Vector]:
    top = F2Vector(v.bits & ((1 << k) - 1), k)
    bottom = F2Vector(v.bits >> k, k)
    return top, bottom


def selmer_elements(sf: SquareFreeN) -> set[SelmerTriple]:
    """Pure 2-Selmer representatives, one triple per Monsky kernel vector.

    Odd n: kernel vector (x; y) maps to d2 = psi(x), d1 = psi(y), with d3 the
    square-free part of d1*d2 (all positive divisors of n).

    Even n: (x; y) maps to |d3| = psi(x) with the sign fixed by d3 = 1 mod 4,
    d2 = psi(y) > 0, and d1 the signed square-free part of d2*d3.
    """
    _require_factors(sf)
    out: set[SelmerTriple] = set()
    for v in f2linalg.kernel(monsky_matrix(sf)):
        x, y = _split(v, sf.k)
        if not sf.is_even:
            d2 = psi(x, sf.primes)
            d1 = psi(y, sf.primes)
            out.add(SelmerTriple(d1, d2, squarefree_part(d1 * d2)))
        else:
            d3 = psi(x, sf.primes)
            if d3 % 4 == 3:
                d3 = -d3
            d2 = psi(y, sf.primes)
            out.add(SelmerTriple(squarefree_part(d2 * d3), d2, d3))
    return out


def torsion_triples(n: int) -> tuple[SelmerTriple, ...]:
    """Images of the rational 2-torsion inside the full 2-Selmer group."""
    return (
        SelmerTriple(1, 1, 1),
        SelmerTriple(2, squarefree_part(2 * n), squarefree_part(n)),
        SelmerTriple(squarefree_part(-2 * n), 2, squarefree_part(-n)),
        SelmerTriple(squarefree_part(-n), squarefree_part(n), -1),
    )


# ---------------------------------------------------------------------------
# Redei machinery
# ---------------------------------------------------------------------------


def _squarefree_odd_primes(m: int, odd_primes: tuple[int, ...] | None) -> tuple[int, ...]:
    if m in (0, 1):
        raise ValueError("m must define a quadratic field")
    return factor_squarefree(abs(m), odd_primes).primes


def field_discriminant(m: int, odd_primes: tuple[int, ...] | None = None) -> int:
    """Discriminant of Q(sqrt(m)) for square-free m != 0, 1.

    Here and below, known ``odd_primes`` of m (those of n for m = -n, n or
    -n/2) are checked against m instead of factoring it."""
    _squarefree_odd_primes(m, odd_primes)
    return m if m % 4 == 1 else 4 * m


def prime_discriminants(m: int, odd_primes: tuple[int, ...] | None = None) -> DiscriminantFactorization:
    """Factor disc(Q(sqrt(m))) into prime discriminants.

    Odd prime discriminants p* = (-1)^((p-1)/2) p come first in increasing
    order of p; the even one (one of -4, 8, -8), when present, comes last.
    """
    odd_primes = _squarefree_odd_primes(m, odd_primes)
    parts = [p if p % 4 == 1 else -p for p in odd_primes]
    two_part = field_discriminant(m, odd_primes) // prod(parts)
    if two_part != 1:
        if two_part not in (-4, 8, -8):
            raise ValueError(f"bad 2-part {two_part} for m = {m}")  # pragma: no cover
        parts.append(two_part)
    return DiscriminantFactorization(tuple(parts))


def redei_matrix(m: int, odd_primes: tuple[int, ...] | None = None) -> F2Matrix:
    """t x t matrix of additive Hilbert symbols [p_j, m] at the places p_i."""
    fac = prime_discriminants(m, odd_primes)
    ps = fac.primes
    rows = []
    for pi in ps:
        place = Place(pi)
        bits = 0
        for j, pj in enumerate(ps):
            bits |= additive_hilbert(pj, m, place) << j
        rows.append(bits)
    return F2Matrix(tuple(rows), fac.t)


def h2(m: int) -> int:
    """2-rank of the narrow class group: one less than the prime-disc count."""
    return prime_discriminants(m).t - 1


def h4(m: int, odd_primes: tuple[int, ...] | None = None) -> int:
    """4-rank of the narrow class group via the Redei rank formula."""
    r = redei_matrix(m, odd_primes)
    return r.ncols - 1 - f2linalg.rank(r)
