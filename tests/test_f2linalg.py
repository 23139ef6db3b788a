import random

import pytest

from noncongruent.errors import DimensionMismatch
from noncongruent.f2linalg import (
    F2Matrix,
    F2Vector,
    kernel,
    kernel_basis,
    rank,
    solve,
)


def test_rank_examples():
    assert rank(F2Matrix.from_rows([[1, 0], [1, 0]])) == 1
    assert rank(F2Matrix((0, 0), 2)) == 0
    assert rank(F2Matrix.identity(3)) == 3


def test_kernel_examples():
    basis = kernel_basis(F2Matrix.from_rows([[1, 0], [1, 0]]))
    assert [v.to_tuple() for v in basis] == [(0, 1)]
    basis = kernel_basis(F2Matrix((0,), 1))
    assert [v.to_tuple() for v in basis] == [(1,)]
    assert kernel_basis(F2Matrix.identity(2)) == []


def test_solve_examples():
    m = F2Matrix.from_rows([[1, 1], [0, 0]])
    x = solve(m, F2Vector.from_bits([1, 0]))
    assert x is not None and m.mul_vec(x).to_tuple() == (1, 0)
    assert solve(m, F2Vector.from_bits([0, 1])) is None
    x = solve(F2Matrix.identity(2), F2Vector.from_bits([1, 1]))
    assert x.to_tuple() == (1, 1)
    with pytest.raises(DimensionMismatch):
        solve(m, F2Vector.from_bits([1, 0, 0]))


def _random_matrix(rng, max_dim=20):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return F2Matrix(tuple(rng.getrandbits(c) for _ in range(r)), c)


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(11)
    for _ in range(500):
        m = _random_matrix(rng)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == m.ncols
        for v in basis:
            assert m.mul_vec(v).is_zero()


def test_rank_equals_transpose_rank():
    rng = random.Random(12)
    for _ in range(500):
        m = _random_matrix(rng)
        assert rank(m) == rank(m.transpose())


def test_solve_consistency():
    rng = random.Random(13)
    for _ in range(300):
        m = _random_matrix(rng, 12)
        target = F2Vector(rng.getrandbits(m.nrows), m.nrows)
        x = solve(m, target)
        if x is None:
            if m.ncols <= 14:
                assert not any(
                    m.mul_vec(F2Vector(bits, m.ncols)) == target
                    for bits in range(1 << m.ncols)
                )
        else:
            assert m.mul_vec(x) == target
            for v in kernel(m)[:16]:
                assert m.mul_vec(x + v) == target


def test_kernel_enumeration_size():
    rng = random.Random(14)
    for _ in range(100):
        m = _random_matrix(rng, 10)
        vecs = kernel(m)
        assert len(vecs) == 1 << (m.ncols - rank(m))
        assert len({v.bits for v in vecs}) == len(vecs)


def test_block_assembly():
    a = F2Matrix.from_rows([[1, 0], [0, 1]])
    b = F2Matrix((0, 0), 2)
    m = F2Matrix.block([[a, b], [b, a]])
    assert m.nrows == 4 and m.ncols == 4
    assert rank(m) == 4
    assert m.entry(2, 2) == 1 and m.entry(0, 2) == 0


def test_vector_ops():
    v = F2Vector.from_bits([1, 0, 1])
    w = F2Vector.from_bits([1, 1, 0])
    assert (v + w).to_tuple() == (0, 1, 1)
    assert v.dot(w) == 1
