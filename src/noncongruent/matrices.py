"""The descent matrices and the ranks they give.

Every matrix is read off one per-n ``SymbolTable``: the quadratic symbols
(p_j / p_i), (-1 / p_i) and (2 / p_i) among the odd primes of n.  From
these bits come the symbol matrix A, the 2k x 2k Monsky matrix (odd and
even shapes) and with it the pure 2-Selmer rank s2 and its
representatives, the matrix whose kernel holds the distinguished divisor,
and the Redei matrix of Q(sqrt(m)) for every square-free m, with the
class-group ranks h2 / h4 it gives.  Each matrix is square and a tuple of
row ints (bit j of row i is entry (i, j)), as ``f2linalg`` takes them.
At n = 1 and 2, with no odd prime (k = 0), the divisor and Monsky
matrices are 0 x 0: s2 = 0, the Selmer set is {(1,1,1)} and the divisor
kernel holds the zero vector alone.
"""

from __future__ import annotations

from . import f2linalg
from .arith import SelmerTriple, SquareFreeN, factor_squarefree


def psi(bits: int, primes: tuple[int, ...]) -> int:
    """Product of the primes selected by the bit vector."""
    out = 1
    for i, p in enumerate(primes):
        if bits >> i & 1:
            out *= p
    return out


def plus_diagonal(rows: tuple[int, ...], bits: int) -> tuple[int, ...]:
    """The rows with bit i of ``bits`` added to entry (i, i)."""
    return tuple(r ^ bits & 1 << i for i, r in enumerate(rows))


def s2(sf: SquareFreeN) -> int:
    """Pure 2-Selmer rank: 2k minus the rank of the Monsky matrix."""
    return symbol_table(sf).s2()


def selmer_elements(sf: SquareFreeN) -> set[SelmerTriple]:
    """Pure 2-Selmer representatives: each Monsky kernel vector (x; y)
    gives ``SelmerTriple.of(sf.is_even, psi(y), psi(x))``."""
    low = (1 << sf.k) - 1
    return {
        SelmerTriple.of(sf.is_even, psi(v >> sf.k, sf.primes), psi(v & low, sf.primes))
        for v in f2linalg.kernel(symbol_table(sf).monsky_matrix(), 2 * sf.k)
    }


# ---------------------------------------------------------------------------
# Redei machinery
# ---------------------------------------------------------------------------


def redei_matrix(m: int) -> tuple[int, ...]:
    """Rows of the Redei matrix of Q(sqrt(m)) for square-free m != 0, 1: the
    additive Hilbert symbols (p_j, m) at the places p_i, over the primes that
    ramify (the odd primes of m, then 2 when m != 1 mod 4).  It is square."""
    if m in (0, 1):
        raise ValueError("m must define a quadratic field")
    return symbol_table(factor_squarefree(abs(m))).redei_matrix(m)


def h4(m: int) -> int:
    """4-rank of the narrow class group via the Redei rank formula."""
    return _h4(redei_matrix(m))


def _h4(redei: tuple[int, ...]) -> int:
    return len(redei) - 1 - f2linalg.rank(redei, len(redei))


# ---------------------------------------------------------------------------
# the per-n symbol table
# ---------------------------------------------------------------------------


class SymbolTable:
    """The quadratic symbols among the odd primes p_0 < ... < p_(k-1) of n.

    ``a`` holds the rows of the symbol matrix A: bit j of ``a[i]`` is the
    additive Legendre symbol (p_j / p_i) for j != i, and bit i makes the row
    sum to zero.  Bit i of ``minus_one`` and of ``two`` is the additive
    (-1 / p_i) and (2 / p_i), the diagonals of D_(-1) and D_2.  The divisor
    matrix, the Monsky matrix and the Redei matrices of +-n' and +-2n' (n'
    the odd part of n) are all A or A^T plus diagonals.
    """

    __slots__ = ("sf", "a", "minus_one", "two")

    def __init__(self, sf: SquareFreeN, a: tuple[int, ...], minus_one: int, two: int):
        self.sf, self.a, self.minus_one, self.two = sf, a, minus_one, two

    @property
    def a_t(self) -> tuple[int, ...]:
        """The rows of A^T.  By reciprocity (p_i / p_j) = (p_j / p_i) unless
        both primes are 3 mod 4, so row i of A^T is row i of A with the bits
        of the other primes 3 mod 4 flipped when p_i is 3 mod 4."""
        m = self.minus_one
        return tuple(r ^ m ^ 1 << i if m >> i & 1 else r for i, r in enumerate(self.a))

    def divisor_matrix(self) -> tuple[int, ...]:
        """The k x k matrix whose kernel holds |d|: A + D_(-1) for odd n, A^T
        for even n."""
        return self.a_t if self.sf.is_even else plus_diagonal(self.a, self.minus_one)

    def divisor_kernel(self) -> list[int]:
        """The kernel vectors of the divisor matrix, as ``f2linalg.kernel`` lists them."""
        return f2linalg.kernel(self.divisor_matrix(), self.sf.k)

    def monsky_matrix(self) -> tuple[int, ...]:
        """The 2k x 2k Monsky matrix, whose kernel is the pure 2-Selmer group.

        With D_2 = diag(two), D_(-1) = diag(minus_one) and D_(-2) = D_(-1) +
        D_2, it is [[A + D_2, D_2], [D_2, A + D_(-2)]] for odd n and
        [[A^T + D_2, D_(-1)], [D_2, A + D_2]] for even n.
        """
        k, two = self.sf.k, self.two
        if self.sf.is_even:
            left, right, twist = self.a_t, self.minus_one, two
        else:
            left, right, twist = self.a, two, self.minus_one ^ two
        top = (r | (right & 1 << i) << k for i, r in enumerate(plus_diagonal(left, two)))
        bottom = ((two & 1 << i) | r << k for i, r in enumerate(plus_diagonal(self.a, twist)))
        return (*top, *bottom)

    def s2(self) -> int:
        """Pure 2-Selmer rank: 2k minus the rank of the Monsky matrix."""
        return 2 * self.sf.k - f2linalg.rank(self.monsky_matrix(), 2 * self.sf.k)

    def redei_matrix(self, m: int) -> tuple[int, ...]:
        """The Redei matrix of Q(sqrt(m)) for m = +-n' or +-2n'.

        At an odd place p_i, (p_j, m) is (p_j / p_i) for j != i and
        ((-m / p_i) / p_i) on the diagonal, and (2, m) is (2 / p_i).  The
        place 2 has a row when m != 1 mod 4: with q the signed odd part of
        m, (p_j, m)_2 is eps(p_j) eps(q) + [m even] omega(p_j) and (2, m)_2
        is omega(q).
        """
        even = m % 2 == 0
        q = m // 2 if even else m
        if abs(q) != self.sf.odd_part:
            raise ValueError(f"m = {m} is not +-{self.sf.odd_part} or twice that")
        k = self.sf.k
        two = self.two if even else 0
        # (-m / p_i) / p_i = (-1 / p_i)^[m > 0] (2 / p_i)^[m even] prod_(j != i) (p_j / p_i)
        rows = plus_diagonal(self.a, (self.minus_one if m > 0 else 0) ^ two)
        if m % 4 == 1:
            return rows
        last = ((self.minus_one if q % 4 == 3 else 0) ^ two) | (q % 8 in (3, 5)) << k
        return tuple(r | (self.two >> i & 1) << k for i, r in enumerate(rows)) + (last,)

    def h4(self, m: int) -> int:
        """``h4(m)`` for m = +-n' or +-2n', from the table's Redei matrix."""
        return _h4(self.redei_matrix(m))


def symbol_table(sf: SquareFreeN) -> SymbolTable:
    """The table of sf from its k(k-1)/2 symbols (p_j / p_i), i < j, each by
    Euler's criterion, since the primes of a ``SquareFreeN`` are proven; by
    reciprocity (p_i / p_j) is the same unless both primes are 3 mod 4."""
    ps = sf.primes
    k = len(ps)
    rows = [0] * k
    minus_one = two = 0
    for i, p in enumerate(ps):
        minus_one |= (p % 4 == 3) << i
        two |= (p % 8 in (3, 5)) << i
        for j in range(i + 1, k):
            q = ps[j]
            s = pow(q, p >> 1, p) != 1
            rows[i] |= s << j
            rows[j] |= (s ^ (p % 4 == q % 4 == 3)) << i
        # row i is complete now, and bit i makes it sum to zero
        rows[i] |= (rows[i].bit_count() & 1) << i
    return SymbolTable(sf, tuple(rows), minus_one, two)
