import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncongruent import f2linalg
from noncongruent.arith import additive_jacobi, factor_squarefree, is_prime, squarefree_part, squarefree_upto
from noncongruent.errors import EmptyFactorization, NotCoprime, NotSquareFree
from noncongruent.f2linalg import F2Matrix
from noncongruent.matrices import (
    SelmerTriple,
    build_A,
    build_b,
    build_D,
    h2,
    h4,
    monsky_matrix,
    prime_discriminants,
    redei_matrix,
    s2,
    selmer_elements,
    symbol_table,
    torsion_triples,
)


def _eligible_squarefree(rng, odd=True, max_primes=3, strict=False):
    """Random square-free integer whose odd prime factors are +-1 mod 8."""
    pool = [7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97, 103, 113]
    if strict:
        pool = [p for p in pool if p % 8 == 1]
    k = rng.randrange(1, max_primes + 1)
    primes = rng.sample(pool, k)
    n = 1
    for p in primes:
        n *= p
    return factor_squarefree(n if odd else 2 * n)


def test_build_A_examples():
    assert build_A(factor_squarefree(17)).to_lists() == [[0]]
    assert build_A(factor_squarefree(15)).to_lists() == [[1, 1], [1, 1]]
    assert build_A(factor_squarefree(161)).to_lists() == [[0, 0], [1, 1]]
    with pytest.raises(EmptyFactorization):
        build_A(factor_squarefree(2))


def test_build_D_examples():
    assert build_D(-1, factor_squarefree(17)).to_lists() == [[0]]
    assert build_D(2, factor_squarefree(161)).to_lists() == [[0, 0], [0, 0]]
    assert build_D(-1, factor_squarefree(161)).to_lists() == [[1, 0], [0, 1]]
    with pytest.raises(NotCoprime):
        build_D(7, factor_squarefree(161))


def test_monsky_matrix_examples():
    assert monsky_matrix(factor_squarefree(17)).to_lists() == [[0, 0], [0, 0]]
    assert monsky_matrix(factor_squarefree(34)).to_lists() == [[0, 0], [0, 0]]
    sf15 = factor_squarefree(15)
    top_left = [row[:2] for row in monsky_matrix(sf15).to_lists()[:2]]
    expected = (build_A(sf15) + build_D(2, sf15)).to_lists()
    assert top_left == expected


def test_s2_examples():
    assert s2(factor_squarefree(17)) == 2
    assert s2(factor_squarefree(34)) == 2
    assert s2(factor_squarefree(161)) == 2


def test_selmer_elements_examples():
    triples = selmer_elements(factor_squarefree(17))
    assert triples == {
        SelmerTriple(1, 1, 1),
        SelmerTriple(1, 17, 17),
        SelmerTriple(17, 1, 17),
        SelmerTriple(17, 17, 1),
    }
    triples = selmer_elements(factor_squarefree(34))
    assert triples == {
        SelmerTriple(1, 1, 1),
        SelmerTriple(17, 1, 17),
        SelmerTriple(17, 17, 1),
        SelmerTriple(1, 17, 17),
    }


def test_torsion_triples_not_in_pure_set():
    for n in (17, 34, 161):
        pure = selmer_elements(factor_squarefree(n))
        for t in torsion_triples(n)[1:]:
            assert t not in pure


def test_selmer_count_matches_rank():
    rng = random.Random(21)
    for _ in range(60):
        sf = _eligible_squarefree(rng, odd=rng.random() < 0.5)
        assert len(selmer_elements(sf)) == 1 << s2(sf)


def test_A_row_sums_vanish():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randrange(3, 30000, 2)
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0:
            continue
        a = build_A(sf)
        ones = f2linalg.F2Vector((1 << sf.k) - 1, sf.k)
        assert a.mul_vec(ones).is_zero()
        assert f2linalg.rank(a) <= sf.k - 1


def test_transpose_relation_column_sums():
    # column sums of A equal the -1 twist vector when n' = 1 mod 4
    rng = random.Random(23)
    seen = 0
    while seen < 500:
        n = rng.randrange(5, 60000, 4)  # 1 mod 4
        if squarefree_part(n) != n or n % 4 != 1:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0:
            continue
        seen += 1
        a = build_A(sf)
        ones = f2linalg.F2Vector((1 << sf.k) - 1, sf.k)
        assert a.transpose().mul_vec(ones) == build_b(-1, sf)


def test_prime_discriminants_examples():
    fac = prime_discriminants(-17)
    assert fac.prime_discriminants == (17, -4) and fac.t == 2
    fac = prime_discriminants(17)
    assert fac.prime_discriminants == (17,) and fac.t == 1
    fac = prime_discriminants(-34)
    assert fac.prime_discriminants == (17, -8) and fac.t == 2


def test_prime_discriminants_product():
    rng = random.Random(24)
    from noncongruent.matrices import field_discriminant

    for _ in range(300):
        m = rng.choice([-1, 1]) * rng.randrange(2, 5000)
        if squarefree_part(m) != m or m in (0, 1):
            continue
        fac = prime_discriminants(m)
        prod = 1
        for d in fac.prime_discriminants:
            prod *= d
        assert prod == field_discriminant(m)


def test_redei_matrix_matches_block_forms():
    # for odd n = 1 mod 4: R_n = A + D_(-1) and R_(-n) = [[A, b2], [b(-1)^T, (2/n)]]
    rng = random.Random(25)
    seen = 0
    while seen < 200:
        n = rng.randrange(5, 30000, 4)
        if squarefree_part(n) != n or n % 2 == 0:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0:
            continue
        seen += 1
        a = build_A(sf)
        assert redei_matrix(n).to_lists() == (a + build_D(-1, sf)).to_lists()
        block = redei_matrix(-n).to_lists()
        b2 = build_b(2, sf).to_tuple()
        bm1 = build_b(-1, sf).to_tuple()
        k = sf.k
        for i in range(k):
            assert block[i][:k] == a.to_lists()[i]
            assert block[i][k] == b2[i]
        assert block[k][:k] == list(bm1)
        assert block[k][k] == additive_jacobi(2, n)


def test_h4_examples():
    assert h4(-17) == 1
    assert h4(17) == 0
    assert h4(-161) == 1
    assert h4(161) == 0
    assert h2(-17) == 1 and h2(17) == 0


def test_h4_nonnegative():
    rng = random.Random(26)
    for _ in range(300):
        m = rng.choice([-1, 1]) * rng.randrange(2, 3000)
        if squarefree_part(m) != m or m in (0, 1):
            continue
        assert h4(m) >= 0


def test_redei_helpers_take_known_primes():
    # The symbol table carries the primes of n into each Redei matrix of +-n', +-2n'.
    for n in (17, 161, 7 * 17 * 41, 1009 * 1097, 3 * 5 * 7 * 11):
        table = symbol_table(factor_squarefree(n))
        for m in (n, -n, 2 * n, -2 * n):
            assert table.redei_matrix(m) == redei_matrix(m)
            assert table.h4(m) == h4(m)
    with pytest.raises(ValueError):
        symbol_table(factor_squarefree(161)).h4(-7 * 29)
    with pytest.raises(NotSquareFree):
        h4(-7 * 7 * 23)


def _next_prime_pm1_mod8(q):
    while not (q % 8 in (1, 7) and is_prime(q)):
        q += 1
    return q


@st.composite
def eligible_products(draw):
    """Square-free n from 1-6 primes = +-1 mod 8, odd part up to about 10^12, sometimes doubled."""
    k = draw(st.integers(1, 6))
    cap = round(10 ** (12 / k))
    primes = sorted({_next_prime_pm1_mod8(draw(st.integers(7, cap))) for _ in range(k)})
    return factor_squarefree(prod(primes) * draw(st.sampled_from((1, 2))))


def _table_matches_integer_routes(sf):
    table = symbol_table(sf)
    a = build_A(sf)
    assert table.a_matrix() == a
    assert table.divisor_matrix() == (a.transpose() if sf.is_even else a + build_D(-1, sf))
    for m in (-sf.odd_part, sf.odd_part, -2 * sf.odd_part, 2 * sf.odd_part):
        if m != 1:
            assert table.redei_matrix(m) == redei_matrix(m), m
    return table


@settings(max_examples=60, deadline=None)
@given(eligible_products())
def test_symbol_table_matches_integer_routes(sf):
    table = _table_matches_integer_routes(sf)
    assert table.two == 0
    ps = sf.primes
    for i, pi in enumerate(ps):
        assert table.minus_one >> i & 1 == additive_jacobi(-1, pi)
        for j, pj in enumerate(ps):
            assert table.rows[i] >> j & 1 == (0 if i == j else additive_jacobi(pj, pi))
    if not sf.is_even:
        # Every (2/p) = 1: the odd Monsky matrix is diag(A, A + D_-1).
        a, zero = table.a_matrix(), F2Matrix((0,) * sf.k, sf.k)
        assert monsky_matrix(sf) == F2Matrix.block([[a, zero], [zero, table.divisor_matrix()]])
    assert table.s2() == s2(sf) == 2 * sf.k - f2linalg.rank(monsky_matrix(sf))


def test_symbol_table_matches_integer_routes_exhaustively():
    # Every square-free n <= 3000, eligible or not: A, the divisor matrix and
    # all four Redei matrices; s2 only where every prime is +-1 mod 8.
    for n, sf in squarefree_upto(3000):
        if sf.k == 0:
            continue
        table = _table_matches_integer_routes(sf)
        if sf.eligibility:
            assert table.s2() == 2 * sf.k - f2linalg.rank(monsky_matrix(sf))
        else:
            with pytest.raises(ValueError):
                table.s2()
