import random
from math import prod

import pytest
from f2rows import add, beside, diagonal, from_lists, mul_vec, transpose
from hypothesis import given, settings
from hypothesis import strategies as st

from noncongruent import f2linalg, oracles
from noncongruent.arith import (
    SelmerTriple,
    factor_squarefree,
    hilbert,
    is_prime,
    jacobi,
    squarefree_part,
    squarefree_upto,
)
from noncongruent.errors import NotSquareFree
from noncongruent.matrices import (
    h4,
    redei_matrix,
    s2,
    selmer_elements,
    symbol_table,
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


def _additive_jacobi(a, b):
    """The Jacobi symbol (a / b) in F2: 0 for +1, 1 for -1."""
    return int(jacobi(a, b) == -1)


def _a(n):
    return symbol_table(factor_squarefree(n)).a


def _b(eps, sf):
    """The additive (eps / p) over the odd primes p of sf: the diagonal of D_eps."""
    return [_additive_jacobi(eps, p) for p in sf.primes]


def _d(eps, sf):
    return diagonal(_b(eps, sf))


def test_build_A_examples():
    assert _a(17) == from_lists([[0]])
    assert _a(15) == from_lists([[1, 1], [1, 1]])
    assert _a(161) == from_lists([[0, 0], [1, 1]])
    # n = 1 and 2 have no odd prime: the divisor matrix is 0 x 0 and its
    # kernel holds the zero vector alone, so there is no divisor d
    for n in (1, 2):
        table = symbol_table(factor_squarefree(n))
        assert table.divisor_matrix() == ()
        assert table.divisor_kernel() == [0]


def test_build_D_examples():
    # D_eps is the diagonal matrix of b_eps.
    assert _d(-1, factor_squarefree(17)) == from_lists([[0]])
    assert _d(2, factor_squarefree(161)) == from_lists([[0, 0], [0, 0]])
    assert _d(-1, factor_squarefree(161)) == from_lists([[1, 0], [0, 1]])


def test_monsky_matrix_examples():
    assert symbol_table(factor_squarefree(17)).monsky_matrix() == (0, 0)
    assert symbol_table(factor_squarefree(34)).monsky_matrix() == (0, 0)
    sf15 = factor_squarefree(15)
    top_left = [row & 0b11 for row in symbol_table(sf15).monsky_matrix()[:2]]
    assert top_left == list(add(_a(15), _d(2, sf15)))
    # at n = 1 and 2 the Monsky matrix is 0 x 0: s2 = 0 and the pure
    # 2-Selmer group is {(1,1,1)}, which is the oracle's answer too
    for n in (1, 2):
        sf = factor_squarefree(n)
        assert symbol_table(sf).monsky_matrix() == ()
        assert s2(sf) == 0
        assert selmer_elements(sf) == oracles.selmer_oracle(sf) == {SelmerTriple(1, 1, 1)}


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
        a = symbol_table(sf).a
        ones = (1 << sf.k) - 1
        assert mul_vec(a, ones) == 0
        assert f2linalg.rank(a, sf.k) <= sf.k - 1


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
        a = symbol_table(sf).a
        ones = (1 << sf.k) - 1
        assert mul_vec(transpose(a, sf.k), ones) == sum(b << i for i, b in enumerate(_b(-1, sf)))


def test_table_transpose_matches_reference():
    # the table derives A^T's rows from A by reciprocity; the bitwise
    # transpose is the reference
    for n, sf in squarefree_upto(10**4):
        if sf.k:
            table = symbol_table(sf)
            assert table.a_t == transpose(table.a, sf.k), n


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
        a = symbol_table(sf).a
        assert redei_matrix(n) == add(a, _d(-1, sf))
        k = sf.k
        last = from_lists([_b(-1, sf) + [_additive_jacobi(2, n)]])
        assert redei_matrix(-n) == beside(a, k, from_lists([[b] for b in _b(2, sf)])) + last


def test_h4_examples():
    assert h4(-17) == 1
    assert h4(17) == 0
    assert h4(-161) == 1
    assert h4(161) == 0
    assert len(redei_matrix(-17)) - 1 == 1 and len(redei_matrix(17)) - 1 == 0  # h2


def test_h4_nonnegative():
    rng = random.Random(26)
    for _ in range(300):
        m = rng.choice([-1, 1]) * rng.randrange(2, 3000)
        if squarefree_part(m) != m or m in (0, 1):
            continue
        assert h4(m) >= 0


def test_redei_helpers_take_known_primes():
    # The symbol table of n carries its primes into each Redei matrix of +-n', +-2n'.
    for n in (17, 161, 7 * 17 * 41, 1009 * 1097, 3 * 5 * 7 * 11):
        table = symbol_table(factor_squarefree(n))
        for m in (n, -n, 2 * n, -2 * n):
            assert table.redei_matrix(m) == redei_matrix(m)
            assert table.h4(m) == h4(m)
    with pytest.raises(ValueError):
        symbol_table(factor_squarefree(161)).h4(-7 * 29)
    with pytest.raises(NotSquareFree):
        h4(-7 * 7 * 23)
    for m in (0, 1):
        with pytest.raises(ValueError):
            h4(m)


def _next_prime(q, residues):
    while not (q % 8 in residues and is_prime(q)):
        q += 1
    return q


@st.composite
def squarefree_products(draw):
    """Square-free n from 1-6 odd primes, odd part up to about 10^12, sometimes
    doubled; half the draws keep every prime +-1 mod 8, the rest take any."""
    k = draw(st.integers(1, 6))
    cap = round(10 ** (12 / k))
    residues = draw(st.sampled_from(((1, 7), (1, 3, 5, 7))))
    primes = sorted({_next_prime(draw(st.integers(3, cap)), residues) for _ in range(k)})
    return factor_squarefree(prod(primes) * draw(st.sampled_from((1, 2))))


def _redei_by_hilbert(m, odd_primes):
    """The Redei matrix of Q(sqrt(m)) entry by entry: (p_j, m) at p_i over the
    ramified primes, 2 last when m != 1 mod 4."""
    ps = odd_primes + ((2,) if m % 4 != 1 else ())
    return from_lists([[int(hilbert(pj, m, pi) == -1) for pj in ps] for pi in ps])


def _monsky_by_symbols(sf):
    """The Monsky matrix from its block definition, every entry a Jacobi symbol."""
    ps = sf.primes
    # A's diagonal entry is the symbol of the complementary divisor n' / p_i.
    a = from_lists(
        [
            [_additive_jacobi(sf.odd_part // pi if i == j else pj, pi) for j, pj in enumerate(ps)]
            for i, pi in enumerate(ps)
        ]
    )
    d = {eps: diagonal([_additive_jacobi(eps, p) for p in ps]) for eps in (-1, 2, -2)}
    k = sf.k
    if not sf.is_even:
        return beside(add(a, d[2]), k, d[2]) + beside(d[2], k, add(a, d[-2])), a
    return beside(add(transpose(a, k), d[2]), k, d[-1]) + beside(d[2], k, add(a, d[2])), a


def _table_matches_definitions(sf):
    """Every bit and matrix of the table of sf against its definition."""
    table = symbol_table(sf)
    ps = sf.primes
    for i, pi in enumerate(ps):
        assert table.minus_one >> i & 1 == _additive_jacobi(-1, pi)
        assert table.two >> i & 1 == _additive_jacobi(2, pi)
        for j, pj in enumerate(ps):
            if j != i:
                assert table.a[i] >> j & 1 == _additive_jacobi(pj, pi)
        # A's diagonal is the parity of the rest of its row
        assert table.a[i] >> i & 1 == (table.a[i] & ~(1 << i)).bit_count() & 1
    monsky, a = _monsky_by_symbols(sf)
    assert table.a == a
    minus_one = diagonal([_additive_jacobi(-1, p) for p in ps])
    assert table.divisor_matrix() == (transpose(a, sf.k) if sf.is_even else add(a, minus_one))
    assert table.monsky_matrix() == monsky
    assert table.s2() == s2(sf) == 2 * sf.k - f2linalg.rank(monsky, 2 * sf.k)
    for m in (-sf.odd_part, sf.odd_part, -2 * sf.odd_part, 2 * sf.odd_part):
        if m != 1:
            redei = _redei_by_hilbert(m, ps)
            assert table.redei_matrix(m) == redei_matrix(m) == redei, m


@settings(max_examples=60, deadline=None)
@given(squarefree_products())
def test_symbol_table_matches_integer_routes(sf):
    _table_matches_definitions(sf)


def test_symbol_table_matches_integer_routes_exhaustively():
    # Every square-free n <= 3000: the bits, A, the divisor matrix, the Monsky
    # matrix and s2, and all four Redei matrices; then the fields of
    # m = -1, +-2, whose tables have no odd prime.
    for n, sf in squarefree_upto(3000):
        if sf.k:
            _table_matches_definitions(sf)
    for m in (-1, 2, -2):
        assert redei_matrix(m) == _redei_by_hilbert(m, ())
        assert h4(m) == len(redei_matrix(m)) - 1 == 0
