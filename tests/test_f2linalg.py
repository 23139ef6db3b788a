import random

import pytest

from noncongruent.errors import DimensionMismatch
from noncongruent.f2linalg import F2Matrix, kernel, rank

I2 = F2Matrix((0b01, 0b10), 2)


def test_rank_examples():
    assert rank(F2Matrix.from_rows([[1, 0], [1, 0]])) == 1
    assert rank(F2Matrix((0, 0), 2)) == 0
    assert rank(F2Matrix((0b001, 0b010, 0b100), 3)) == 3


def test_kernel_examples():
    # bit j of a vector is coordinate j: 0b10 is (0, 1)
    assert kernel(F2Matrix.from_rows([[1, 0], [1, 0]])) == [0, 0b10]
    assert kernel(F2Matrix((0,), 1)) == [0, 0b1]
    assert kernel(I2) == [0]
    # zero first, then each basis vector doubles the list, by increasing free column
    assert kernel(F2Matrix((0b011,), 3)) == [0, 0b011, 0b100, 0b111]


def test_kernel_of_augmented_matrix_solves():
    # x solves M x = b exactly when (x, 1) is in the kernel of [M | b]
    def solutions(m, b):
        column = F2Matrix(tuple(b >> i & 1 for i in range(m.nrows)), 1)
        vecs = kernel(F2Matrix.block([[m, column]]))
        return sorted(v & ~(1 << m.ncols) for v in vecs if v >> m.ncols)

    m = F2Matrix.from_rows([[1, 1], [0, 0]])
    assert solutions(m, 0b01) == [0b01, 0b10]
    assert solutions(m, 0b10) == []
    assert solutions(I2, 0b11) == [0b11]
    with pytest.raises(DimensionMismatch):
        m.mul_vec(0b100)
    with pytest.raises(DimensionMismatch):
        m.mul_vec(-1)


def _random_matrix(rng, max_dim=20):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return F2Matrix(tuple(rng.getrandbits(c) for _ in range(r)), c)


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(11)
    for _ in range(500):
        m = _random_matrix(rng)
        vecs = kernel(m)
        nullity = m.ncols - rank(m)
        assert len(vecs) == 1 << nullity
        # the list doubles once per basis vector, so vecs[2^i] is the i-th one
        basis = [vecs[1 << i] for i in range(nullity)]
        assert rank(F2Matrix(tuple(basis), m.ncols)) == nullity
        for v in basis:
            assert m.mul_vec(v) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(12)
    for _ in range(500):
        m = _random_matrix(rng)
        assert rank(m) == rank(m.transpose())


def test_kernel_enumeration_size():
    rng = random.Random(14)
    for _ in range(100):
        m = _random_matrix(rng, 10)
        vecs = kernel(m)
        assert len(vecs) == 1 << (m.ncols - rank(m))
        assert len(set(vecs)) == len(vecs)


def test_block_assembly():
    a = F2Matrix.from_rows([[1, 0], [0, 1]])
    b = F2Matrix((0, 0), 2)
    m = F2Matrix.block([[a, b], [b, a]])
    assert m.nrows == 4 and m.ncols == 4
    assert rank(m) == 4
    assert m.rows[2] >> 2 & 1 == 1 and m.rows[0] >> 2 & 1 == 0


def test_vector_ops():
    # vectors are ints: (1, 0, 1) + (1, 1, 0) = (0, 1, 1), and a one-row
    # matrix times a vector is their dot product
    v, w = 0b101, 0b011
    assert v ^ w == 0b110
    assert F2Matrix((w,), 3).mul_vec(v) == 1
