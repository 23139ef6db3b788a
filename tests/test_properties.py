"""Property tests for the exact primitives in ``arith`` and ``f2linalg``."""

from math import gcd, prod

from f2rows import beside, mul_vec, transpose
from hypothesis import assume, given
from hypothesis import strategies as st

from noncongruent.arith import (
    factorize,
    hilbert,
    is_prime,
    jacobi,
    sqrt_2adic,
)
from noncongruent.f2linalg import kernel, rank

ODD_PRIMES = [p for p in range(3, 200) if is_prime(p)]

integers = st.integers(-(10**6), 10**6)
nonzero = integers.filter(bool)
odd_positive = st.integers(0, 10**6).map(lambda k: 2 * k + 1)


@given(nonzero, nonzero)
def test_hilbert_product_formula(a, b):
    primes = {2} | {p for x in (a, b) for p, _ in factorize(abs(x))}
    product = hilbert(a, b, None)
    for p in primes:
        product *= hilbert(a, b, p)
    assert product == 1


# The places of the bilinearity and Steinberg tests, and nonzero integers
# times a product of their primes, so that odd and even valuations occur.
PLACES = (None, 2, *(p for p in ODD_PRIMES if p <= 50))
place_heavy = st.tuples(
    st.lists(st.sampled_from([-1, *PLACES[1:]]), max_size=6), nonzero
).map(lambda t: prod(t[0]) * t[1])


@given(place_heavy, place_heavy, place_heavy, st.sampled_from(PLACES))
def test_hilbert_is_bilinear(a, b, c, v):
    assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)
    assert hilbert(a * b, c, v) == hilbert(a, c, v) * hilbert(b, c, v)


@given(place_heavy, st.sampled_from(PLACES))
def test_hilbert_steinberg_relation(a, v):
    assume(a != 1)
    assert hilbert(a, 1 - a, v) == 1


@given(integers, integers, odd_positive, odd_positive)
def test_jacobi_multiplicativity(a, b, m, n):
    assume(gcd(a * b, m * n) == 1)
    assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


@given(odd_positive, odd_positive)
def test_jacobi_reciprocity(m, n):
    assume(gcd(m, n) == 1)
    assert jacobi(m, n) * jacobi(n, m) == (-1) ** ((m - 1) // 2 * ((n - 1) // 2))
    assert jacobi(-1, n) == (-1) ** ((n - 1) // 2)
    assert jacobi(2, n) == (-1) ** ((n * n - 1) // 8)


@given(st.integers(3, 40), st.integers(0, 10**12))
def test_sqrt_mod_two_adic(e, k):
    a = 8 * k + 1
    s = sqrt_2adic(a, e)
    assert (s * s - a) % 2**e == 0


@st.composite
def f2_matrices(draw, max_cols=12):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=1, max_size=12))
    return tuple(rows), ncols


@given(f2_matrices())
def test_f2_rank_nullity(matrix):
    m, ncols = matrix
    vecs = kernel(m, ncols)
    nullity = ncols - rank(m, ncols)
    assert len(vecs) == 1 << nullity
    basis = [vecs[1 << i] for i in range(nullity)]
    assert rank(basis, ncols) == nullity
    assert all(mul_vec(m, v) == 0 for v in basis)
    assert rank(m, ncols) == rank(transpose(m, ncols), len(m))


@given(f2_matrices(max_cols=10))
def test_f2_kernel_is_the_brute_null_space(matrix):
    m, ncols = matrix
    vecs = kernel(m, ncols)
    assert vecs[0] == 0 and len(set(vecs)) == len(vecs)
    assert set(vecs) == {v for v in range(1 << ncols) if mul_vec(m, v) == 0}


@given(f2_matrices(max_cols=10), st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 12) - 1))
def test_f2_solve_and_kernel_agree(matrix, x_bits, b_bits):
    # the kernel vectors of [M | b] with bit ncols set, masked to the first
    # ncols bits, are the solutions of M x = b; b = M x has at least one
    m, ncols = matrix
    low = (1 << ncols) - 1
    for b in (mul_vec(m, x_bits & low), b_bits % (1 << len(m))):
        column = tuple(b >> i & 1 for i in range(len(m)))
        vecs = kernel(beside(m, ncols, column), ncols + 1)
        solutions = {v & low for v in vecs if v >> ncols}
        assert solutions == {x for x in range(1 << ncols) if mul_vec(m, x) == b}
