"""Dense linear algebra over F2 with int bitsets as rows and vectors.

A matrix is a sequence of rows and a width ``ncols``: row i is a Python int
whose bit j is the entry in column j, so row addition is a single XOR
regardless of width.  A vector is likewise an int whose bit j is coordinate
j: addition is XOR and the dot product is the parity of AND.  ``kernel``
pivots on the first nonzero column with the lowest available row, which
makes the order of its vectors reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Sequence


def _echelon(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """In-place reduced echelon form; returns (rows, pivot column list)."""
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and (rows[r] >> col) & 1:
                rows[r] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows, pivots


def rank(rows: Sequence[int], ncols: int) -> int:
    """F2 rank of the rows cut to ``ncols`` bits: each joins the basis if it is
    nonzero once every basis row b that lowers it (clears its top bit) is added."""
    mask, basis = (1 << ncols) - 1, []
    for r in rows:
        r &= mask
        for b in basis:
            r ^= b if r ^ b < r else 0
        if r:
            basis.append(r)
    return len(basis)


def kernel(rows: Sequence[int], ncols: int) -> list[int]:
    """All 2^dim right kernel vectors: zero first, then the span doubled by
    one basis vector at a time, in increasing free column."""
    rows, pivots = _echelon(list(rows), ncols)
    out = [0]
    for free in range(ncols):
        if free in pivots:
            continue
        b = 1 << free
        for r, pc in zip(rows, pivots):
            b |= (r >> free & 1) << pc
        out.extend([v ^ b for v in out])
    return out
