"""Dense linear algebra over F2 with int bitsets as rows and vectors.

Row i of a matrix is a Python int whose bit j is the entry in column j, so
row addition is a single XOR regardless of width.  A vector is likewise an
int whose bit j is coordinate j: addition is XOR and the dot product is the
parity of AND.  Elimination pivots on the first nonzero column with the
lowest available row, which makes ranks and the order of kernel vectors
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch


@dataclass(frozen=True)
class F2Matrix:
    """Immutable rectangular matrix over F2."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        if any(r < 0 or r >> self.ncols for r in self.rows):
            raise ValueError("row bits exceed the declared width")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "F2Matrix":
        ncols = len(entries[0]) if entries else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            bits = 0
            for j, e in enumerate(row):
                if e & 1:
                    bits |= 1 << j
            rows.append(bits)
        return cls(tuple(rows), ncols)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "F2Matrix":
        n = len(entries)
        return cls(tuple((e & 1) << i for i, e in enumerate(entries)), n)

    @classmethod
    def block(cls, grid: Sequence[Sequence["F2Matrix"]]) -> "F2Matrix":
        """Assemble a block matrix from a 2D grid of compatible blocks."""
        rows: list[int] = []
        ncols = sum(b.ncols for b in grid[0])
        for band in grid:
            if sum(b.ncols for b in band) != ncols:
                raise DimensionMismatch("block widths disagree")
            height = band[0].nrows
            if any(b.nrows != height for b in band):
                raise DimensionMismatch("block heights disagree")
            for i in range(height):
                bits = 0
                shift = 0
                for b in band:
                    bits |= b.rows[i] << shift
                    shift += b.ncols
                rows.append(bits)
        return cls(tuple(rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")
        return F2Matrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.ncols)

    def transpose(self) -> "F2Matrix":
        cols = []
        for j in range(self.ncols):
            bits = 0
            for i, r in enumerate(self.rows):
                bits |= ((r >> j) & 1) << i
            cols.append(bits)
        return F2Matrix(tuple(cols), self.nrows)

    def mul_vec(self, v: int) -> int:
        if v < 0 or v >> self.ncols:
            raise DimensionMismatch(f"vector {v:#b} is longer than ncols {self.ncols}")
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r & v).bit_count() & 1) << i
        return bits

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def __str__(self) -> str:
        return "\n".join("".join(str(b) for b in row) for row in self.to_lists())


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


def rank(m: F2Matrix) -> int:
    """Rank over F2 by Gaussian elimination."""
    _, pivots = _echelon(list(m.rows), m.ncols)
    return len(pivots)


def kernel(m: F2Matrix) -> list[int]:
    """All 2^dim right kernel vectors: zero first, then the span doubled by
    one basis vector at a time, in increasing free column."""
    return echelon_kernel(*_echelon(list(m.rows), m.ncols), m.ncols)


def echelon_kernel(rows: list[int], pivots: list[int], ncols: int) -> list[int]:
    """``kernel`` of a matrix from its ``_echelon`` (rows, pivots)."""
    out = [0]
    for free in range(ncols):
        if free in pivots:
            continue
        b = 1 << free
        for r, pc in zip(rows, pivots):
            b |= (r >> free & 1) << pc
        out.extend([v ^ b for v in out])
    return out
