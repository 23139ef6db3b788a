"""Reference operations on F2 matrices held as rows, the way
``noncongruent.f2linalg`` takes them (bit j of row i is entry (i, j)):
test-only builders for the block definitions of the descent matrices."""


def from_lists(entries):
    return tuple(sum((e & 1) << j for j, e in enumerate(row)) for row in entries)


def diagonal(entries):
    return tuple((e & 1) << i for i, e in enumerate(entries))


def add(a, b):
    return tuple(x ^ y for x, y in zip(a, b, strict=True))


def beside(a, ncols, b):
    """[a | b] for a of width ncols."""
    return tuple(x | y << ncols for x, y in zip(a, b, strict=True))


def transpose(rows, ncols):
    return tuple(sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(ncols))


def mul_vec(rows, v):
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))
