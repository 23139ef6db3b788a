"""Dense linear algebra over F2 with int bitsets as rows and vectors.

A matrix is a sequence of rows and a width ``ncols``: row i is a Python int
whose bit j is the entry in column j, so row addition is a single XOR
regardless of width.  A vector is likewise an int whose bit j is coordinate
j: addition is XOR and the dot product is the parity of AND.  ``rank`` and
``kernel`` both read one echelon basis of the rows, each basis row keyed by
its pivot, its lowest set bit, so the pivots are the columns that a column
by column elimination picks and the order of the kernel is reproducible.
"""

from __future__ import annotations

from collections.abc import Sequence


def _basis(rows: Sequence[int], ncols: int) -> dict[int, int]:
    """{pivot: row} for an echelon basis of the rows cut to ``ncols`` bits:
    the pivot of a basis row is its lowest set bit, as an int 1 << column,
    and no two basis rows share one.  Adding the basis row of its lowest bit
    raises that bit, so a row reduces to zero or to a new pivot."""
    mask, basis = (1 << ncols) - 1, {}
    for r in rows:
        r &= mask
        while r:
            low = r & -r
            if low not in basis:
                basis[low] = r
                break
            r ^= basis[low]
    return basis


def rank(rows: Sequence[int], ncols: int) -> int:
    """F2 rank of the rows cut to ``ncols`` bits."""
    return len(_basis(rows, ncols))


def kernel(rows: Sequence[int], ncols: int) -> list[int]:
    """All 2^dim right kernel vectors: zero first, then the span doubled by
    one basis vector at a time, in increasing free column.  The vector of a
    free column is its bit plus the pivots that back-substitution, highest
    pivot first, sets to make each basis row's dot product zero."""
    basis = _basis(rows, ncols)
    pivots = sorted(basis.items(), reverse=True)
    out = [0]
    for free in range(ncols):
        b = 1 << free
        if b not in basis:
            for p, r in pivots:
                b |= p if (r & b).bit_count() & 1 else 0
            out.extend([v ^ b for v in out])
    return out
