import random

from f2rows import beside, from_lists, mul_vec, transpose

from noncongruent.f2linalg import kernel, rank

I2 = (0b01, 0b10)


def test_rank_examples():
    assert rank(from_lists([[1, 0], [1, 0]]), 2) == 1
    assert rank((0, 0), 2) == 0
    assert rank((0b001, 0b010, 0b100), 3) == 3


def test_kernel_examples():
    # bit j of a vector is coordinate j: 0b10 is (0, 1)
    assert kernel(from_lists([[1, 0], [1, 0]]), 2) == [0, 0b10]
    assert kernel((0,), 1) == [0, 0b1]
    assert kernel(I2, 2) == [0]
    # zero first, then each basis vector doubles the list, by increasing free column
    assert kernel((0b011,), 3) == [0, 0b011, 0b100, 0b111]


def test_kernel_of_augmented_matrix_solves():
    # x solves M x = b exactly when (x, 1) is in the kernel of [M | b]
    def solutions(m, ncols, b):
        column = tuple(b >> i & 1 for i in range(len(m)))
        vecs = kernel(beside(m, ncols, column), ncols + 1)
        return sorted(v & ~(1 << ncols) for v in vecs if v >> ncols)

    m = from_lists([[1, 1], [0, 0]])
    assert solutions(m, 2, 0b01) == [0b01, 0b10]
    assert solutions(m, 2, 0b10) == []
    assert solutions(I2, 2, 0b11) == [0b11]


def _random_matrix(rng, max_dim=20):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return tuple(rng.getrandbits(c) for _ in range(r)), c


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(11)
    for _ in range(500):
        m, ncols = _random_matrix(rng)
        vecs = kernel(m, ncols)
        nullity = ncols - rank(m, ncols)
        assert len(vecs) == 1 << nullity
        # the list doubles once per basis vector, so vecs[2^i] is the i-th one
        basis = [vecs[1 << i] for i in range(nullity)]
        assert rank(basis, ncols) == nullity
        for v in basis:
            assert mul_vec(m, v) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(12)
    for _ in range(500):
        m, ncols = _random_matrix(rng)
        assert rank(m, ncols) == rank(transpose(m, ncols), len(m))


def test_kernel_enumeration_size():
    rng = random.Random(14)
    for _ in range(100):
        m, ncols = _random_matrix(rng, 10)
        vecs = kernel(m, ncols)
        assert len(vecs) == 1 << (ncols - rank(m, ncols))
        assert len(set(vecs)) == len(vecs)


def _column_echelon(rows, ncols):
    """(rows, pivot columns) of column-by-column Gaussian elimination, the
    way rank and kernel were once computed: pivot on the lowest available
    row with the column's bit set."""
    rows, pivots = list(rows), []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
    return rows, pivots


def _column_kernel(rows, ncols):
    """The kernel list of the column echelon form, in the same order as
    ``kernel``: zero, then doubled by the vector of each free column."""
    rows, pivots = _column_echelon(rows, ncols)
    out = [0]
    for free in range(ncols):
        if free not in pivots:
            b = 1 << free
            for r, pc in zip(rows, pivots):
                b |= (r >> free & 1) << pc
            out.extend([v ^ b for v in out])
    return out


def test_rank_matches_column_elimination():
    # up to 64 x 64, with zero rows, repeated rows and bits at or above
    # ncols, which must not count
    rng = random.Random(47)
    for _ in range(2000):
        nrows, ncols = rng.randrange(1, 65), rng.randrange(1, 65)
        rows = [rng.getrandbits(ncols + rng.randrange(0, 4)) for _ in range(nrows)]
        if rng.random() < 0.5:
            # a low-rank matrix: sums of a few rows, then zero and repeated rows
            few = rows[: rng.randrange(1, 5)]
            rows = [rng.choice(few) ^ rng.choice(few) for _ in range(nrows)]
        rows += [0] * rng.randrange(0, 3) + rng.choices(rows, k=rng.randrange(0, 3))
        rng.shuffle(rows)
        assert rank(rows, ncols) == len(_column_echelon(rows, ncols)[1]), (rows, ncols)
    # bits at or above ncols alone give rank 0
    assert rank((0b100, 0b1000), 2) == 0
    assert rank((0b101, 0b001), 2) == 1


def test_kernel_matches_column_elimination():
    # list for list, order included, up to 16 x 12, with zero rows, repeated
    # rows, ncols = 0 and bits at or above ncols, which must not count
    rng = random.Random(48)
    widths = set()
    for _ in range(3000):
        nrows, ncols = rng.randrange(0, 17), rng.randrange(0, 13)
        widths.add(ncols)
        rows = [rng.getrandbits(ncols + rng.randrange(0, 4)) for _ in range(nrows)]
        if rows and rng.random() < 0.5:
            few = rows[: rng.randrange(1, 4)]
            rows = [rng.choice(few) ^ rng.choice(few) for _ in range(nrows)]
        rows += [0] * rng.randrange(0, 3) + rng.choices(rows, k=rng.randrange(0, 3) if rows else 0)
        rng.shuffle(rows)
        assert kernel(rows, ncols) == _column_kernel(rows, ncols), (rows, ncols)
    assert 0 in widths
    assert kernel((), 0) == kernel((0b1, 0b11), 0) == [0]
    assert kernel((0b101, 0b001), 2) == [0, 0b10]
