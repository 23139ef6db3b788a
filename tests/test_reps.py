import hashlib
import random
import time
from functools import cache
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noncongruent import criteria, matrices, oracles, reps, tame
from noncongruent.arith import (
    SelmerTriple,
    SquareFreeN,
    factor_squarefree,
    factorize,
    is_prime,
    legendre,
    squarefree_part,
    squarefree_upto,
)
from noncongruent.cassels import two_symbol_check
from noncongruent.errors import (
    IllDefined,
    NoRepresentation,
    NoRoot,
    NotCoprime,
    NotSquareFree,
    TooLarge,
)
from noncongruent.oracles import is_norm
from noncongruent.reps import (
    _prime_element,
    Rep2MuTau,
    least_2mu2_tau2,
    orbit_step_2mu2,
    rep_2mu2_tau2,
    sqrt2_mod,
    z2_jacobi,
)


def test_rep_2mu2_tau2_examples():
    r = rep_2mu2_tau2(17, 17)
    assert (r.mu, r.tau) == (-3, 1)
    r = rep_2mu2_tau2(161, 23)
    assert (r.mu, r.tau) == (-9, 1)


def test_rep_2mu2_tau2_norm_obstruction():
    # (2/5) = (2/3) = -1, so 2 is not a norm from either field
    for n in (3, 5):
        assert not is_norm(2, n)
        with pytest.raises(NoRepresentation):
            rep_2mu2_tau2(n, n)


def test_rep_u2_2w2_and_a2_8b2_examples():
    r = Rep2MuTau(3, 1, 17)
    assert (r.u, r.w) == (5, -2)
    assert oracles.window_a2_8b2(17)[:2] == (3, 1)
    assert oracles.window_a2_8b2(41)[:2] == (3, 2)
    r = least_2mu2_tau2(-34)
    assert (r.mu, r.tau) == (1, 6)
    # the orbit of 1 has mu = 0, so the least mu >= 1 of -1 is 2, at 3 + 2*sqrt(2)
    assert least_2mu2_tau2(-1) == oracles.window_2mu2_tau2(-1) == (2, 3, -1)


def test_representations_reproduce_target():
    rng = random.Random(31)
    count = 0
    while count < 150:
        n = rng.randrange(2, 20000)
        if squarefree_part(n) != n:
            continue
        if is_norm(2, n):
            r = least_2mu2_tau2(n)
            assert 2 * r.mu * r.mu - r.tau * r.tau == n and r.mu > 0
            assert r.u * r.u - 2 * r.w * r.w == n
            count += 1
        if is_norm(2, -n):
            r = least_2mu2_tau2(-n)
            assert 2 * r.mu * r.mu - r.tau * r.tau == -n
            assert r.mu >= 1 and r.tau >= 1


def test_orbit_steps_preserve_norms():
    rep = least_2mu2_tau2(161)
    mu, tau = rep.mu, rep.tau
    for _ in range(5):
        mu, tau = orbit_step_2mu2(mu, tau)
        assert 2 * mu * mu - tau * tau == 161


def test_fundamental_solution_is_in_search_window():
    from math import isqrt

    rng = random.Random(32)
    count = 0
    while count < 100:
        n = rng.randrange(2, 30000)
        if squarefree_part(n) != n or not is_norm(2, n):
            continue
        count += 1
        mu = least_2mu2_tau2(n).mu
        assert 2 * mu * mu >= n
        assert mu <= isqrt(n // 2) + isqrt(n) + 2


def test_rep_u_w_identity():
    rng = random.Random(33)
    count = 0
    while count < 100:
        n = rng.randrange(3, 20000, 2)
        if squarefree_part(n) != n or not is_norm(2, n):
            continue
        count += 1
        rep = least_2mu2_tau2(n)
        assert rep.u == 2 * rep.mu - rep.tau and rep.w == rep.tau - rep.mu
        assert rep.u * rep.u - 2 * rep.w * rep.w == n


def test_two_symbol_lemma_small():
    # (-u +- sqrt(n), -1)_2 = (-mu, -1)_2 for linked pairs, eligible odd n
    checked = 0
    n = 9
    while checked < 60:
        n += 8
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0 or not sf.eligibility:
            continue
        checked += 1
        rep = least_2mu2_tau2(n)
        lhs, rhs = two_symbol_check(n, rep.u, rep.mu)
        assert lhs[0] == rhs and lhs[1] == rhs


def _outcome(solver, *args):
    try:
        return solver(*args)
    except NoRepresentation:
        return NoRepresentation


def _assert_matches_window_scans(n, sf):
    for m in (n, -n):
        scan = _outcome(oracles.window_2mu2_tau2, m)
        assert _outcome(least_2mu2_tau2, m, sf) == scan, m
        # the complete windows represent exactly where 2 is a norm from
        # Q(sqrt(+-n)): 2mu^2 - tau^2 = m says -m is a norm from Z[sqrt(2)],
        # and so is m, since 1 + sqrt(2) has norm -1
        assert (scan is not NoRepresentation) == is_norm(2, m), m


def test_solvers_equal_window_scans_exhaustively():
    # Every square-free n <= 2*10^4, odd and even, both signs, n = 1 and 2 included.
    represented = a2_8b2 = 0
    for n, sf in squarefree_upto(20000):
        _assert_matches_window_scans(n, sf)
        represented += sf.eligibility
        if n % 2:
            # a^2 + 8b^2 = n exactly when n = 1 mod 8 and every p | n is 1 or
            # 3 mod 8: odd a gives n = 1 + 2y^2 mod 8 for y = 2b, so y is even
            # just when n = 1 mod 8, and a + y*sqrt(-2) of norm n exists just
            # when every p | n splits in Z[sqrt(-2)].
            want = n % 8 == 1 and all(p % 8 in (1, 3) for p in sf.primes)
            assert (_outcome(oracles.window_a2_8b2, n) is not NoRepresentation) == want, n
            a2_8b2 += want
    assert represented > 1000 and a2_8b2 > 500
    # The products of the first 5, 6 and 7 primes = +-1 mod 8, 7 to 71, alone
    # and doubled (n <= 2.4 * 10^10): 16 to 64 products, each reduced once.
    split = [p for p in range(3, 72) if p % 8 in (1, 7) and is_prime(p)]
    firsts = [m * prod(split[:k]) for k in (5, 6, 7) for m in (1, 2)]
    for n in (1, 2, 17, 34, 161, 322, *firsts):
        _assert_matches_window_scans(n, None)


def _next_split_prime(q):
    """The least prime >= q that is +-1 mod 8, so splits in Z[sqrt(2)]."""
    while not (q % 8 in (1, 7) and is_prime(q)):
        q += 1
    return q


@st.composite
def z2_products(draw):
    """Square-free n <= 10^10 from 2-4 primes = +-1 mod 8, sometimes doubled."""
    k = draw(st.integers(2, 4))
    cap = round((10**10 / 2) ** (1 / k))
    primes = sorted({_next_split_prime(draw(st.integers(7, cap))) for _ in range(k)})
    n = prod(primes) * draw(st.sampled_from((1, 2)))
    assume(len(primes) >= 2 and n <= 10**10)
    return n, tuple(primes)


@settings(max_examples=40, deadline=None)
@given(z2_products())
def test_solvers_equal_window_scans_on_prime_products(case):
    n, primes = case
    sf = SquareFreeN.from_primes(n, primes)
    _assert_matches_window_scans(n, sf)
    for m in (n, -n):
        assert least_2mu2_tau2(m) == least_2mu2_tau2(m, sf)


@given(st.integers(7, 10**12))
def test_prime_element_has_norm_pm_p(q):
    p = _next_split_prime(q)
    x, y = _prime_element(p)
    assert abs(x * x - 2 * y * y) == p
    s = sqrt2_mod(p)
    assert (s * s - 2) % p == 0 and (x + y * s) % p == 0


@cache
def _roots_of_2(p):
    """Both square roots of 2 mod the odd prime p, smaller first, by trying
    every residue."""
    return tuple(r for r in range(1, p) if r * r % p == 2)


# SHA-256 of the lines "p x y s", where x + y*sqrt(2) = _prime_element(p) and
# s = sqrt2_mod(p), over the primes p = +-1 mod 8 below 2*10^5, as the
# Tonelli-Shanks seed and the root read back off the element gave them.
PRIME_ELEMENT_DIGEST = "89e9b8c5d49428b142b8f440b4514368ecc363a1f4c1c7b4600030b25808c257"


def test_prime_elements_and_roots_are_pinned():
    digest = hashlib.sha256()
    for p in range(7, 200_000, 2):
        if p % 8 in (1, 7) and is_prime(p):
            x, y = _prime_element(p)
            digest.update(f"{p} {x} {y} {sqrt2_mod(p)}\n".encode())
    assert digest.hexdigest() == PRIME_ELEMENT_DIGEST


def test_sqrt2_mod_is_the_larger_root():
    for p in range(3, 5000, 2):
        if not is_prime(p):
            continue
        if p % 8 in (3, 5):
            with pytest.raises(NoRoot):
                sqrt2_mod(p)
        else:
            assert sqrt2_mod(p) == _roots_of_2(p)[1], p


def test_sqrt2_mod_past_small_non_residues():
    # The least primes 1 mod 8 whose least non-residue is 11, 13, ..., 53.
    for p in (1009, 2689, 8089, 33049, 53881, 87481, 483289, 515761,
              1083289, 7921489, 3818929, 9257329):
        s = sqrt2_mod(p)
        assert (s * s - 2) % p == 0 and 2 * s > p, p


def _quad_jacobi_reference(x, y, m, root_choice):
    """((x + y*sqrt(2)) / m) prime by prime, each p | m taking the smaller
    root of 2, or the larger one where root_choice(p)."""
    value = 1
    for p, mult in factorize(m):
        s = _roots_of_2(p)[root_choice(p)]
        value *= legendre((x + y * s) % p, p) ** mult
    return value


def test_z2_jacobi_examples():
    assert z2_jacobi(2, -1, (17,)) == 1
    assert z2_jacobi(1, 1, (17,)) == -1
    assert z2_jacobi(0, 1, (17,)) == -1  # neither root 6, 11 of 2 is a square mod 17
    with pytest.raises(IllDefined):
        z2_jacobi(1, 1, (7,))  # the norm -1 is a non-residue mod 7
    with pytest.raises(NoRoot):
        z2_jacobi(1, 1, (5,))  # 2 is a non-residue mod 5
    s = sqrt2_mod(17)
    with pytest.raises(NotCoprime, match="17 divides the argument"):
        z2_jacobi(-s, 1, (17,))  # 17 divides -s + s, so it divides the norm
    with pytest.raises(NotCoprime, match="17 divides the argument"):
        z2_jacobi(-s, 1, (41, 17))  # after a prime where the norm 119 is a square


def test_z2_jacobi_is_multiplicative_over_primes():
    for x, y in ((2, -1), (1, 1), (0, 1)):
        whole = z2_jacobi(x, y, (17, 41, 73))
        assert whole == prod(z2_jacobi(x, y, (p,)) for p in (17, 41, 73))
        assert whole == _quad_jacobi_reference(x, y, 17 * 41 * 73, lambda p: False)
    assert z2_jacobi(2, -1, (7, 23)) == z2_jacobi(2, -1, (7,)) * z2_jacobi(2, -1, (23,))
    assert z2_jacobi(2, -1, ()) == 1


def test_z2_jacobi_root_choice_invariance():
    cases = [((2, -1), 17 * 41), ((2, -1), 7 * 23), ((1, 1), 89), ((0, 1), 97)]
    for (x, y), m in cases:
        primes = tuple(p for p, _ in factorize(m))
        base = z2_jacobi(x, y, primes)
        for mask in range(1 << len(primes)):
            flip = {p: bool(mask >> i & 1) for i, p in enumerate(primes)}
            assert _quad_jacobi_reference(x, y, m, lambda p: flip[p]) == base


def test_z2_jacobi_matches_reference_on_eligible_n():
    # 2 - sqrt(2) has norm 2, a square mod every eligible prime; 1 + sqrt(2)
    # and sqrt(2) have norms -1 and -2, squares mod primes 1 mod 8.
    for n, sf in squarefree_upto(5000):
        if not sf.eligibility or sf.k == 0:
            continue
        elements = ((2, -1), (1, 1), (0, 1)) if sf.strict_eligibility else ((2, -1),)
        for x, y in elements:
            want = _quad_jacobi_reference(x, y, sf.odd_part, lambda p: False)
            assert z2_jacobi(x, y, sf.primes) == want, (n, x, y)


def test_solvers_reject_a_factored_other_n():
    sf = factor_squarefree(161)
    for m in (17, -17):
        with pytest.raises(ValueError):
            least_2mu2_tau2(m, sf)
    # m = 0 is not square-free, and the solver and the scan both refuse it
    for solve in (least_2mu2_tau2, oracles.window_2mu2_tau2):
        with pytest.raises(ValueError):
            solve(0)


@pytest.mark.parametrize("n", [9, 18, 50, 98, 3 * 17 * 17])
def test_solvers_reject_non_squarefree(n):
    for m in (n, -n):
        with pytest.raises(NotSquareFree):
            least_2mu2_tau2(m)
    with pytest.raises(NotSquareFree):
        rep_2mu2_tau2(n, 1)


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Rep2MuTau, (3, 1, 16)),  # 2*9 - 1 = 17
        (Rep2MuTau, (-3, 1, -17)),
        (SelmerTriple, (2, 3, 5)),  # 30 is no square
        (SelmerTriple, (-1, 17, 17)),  # the product must be positive
        (SelmerTriple, (0, 1, 1)),
    ],
    # Fixed ids, so that each case keeps the name earlier test runs recorded.
    ids=["Rep2MuTau-fields0", "Rep2MuTau-fields1", *(f"SelmerTriple-fields{i}" for i in (5, 6, 7))],
)
def test_constructors_refuse_a_non_representation(cls, fields):
    with pytest.raises(ValueError):
        cls(*fields)


# The product of the 23 primes = +-1 mod 8 from 7 to 263 without 151: n = 1
# mod 8 with s2 = 2, factored by trial division alone, so no primality bound
# stops it before its 2^22 unit orbits would be multiplied out.
K23 = 306015220939433299854290376039897909499624769


def test_orbit_count_past_the_bound_raises_before_any_product():
    sf = factor_squarefree(K23)
    assert sf.k == 23 and K23 % 8 == 1 and all(p % 8 in (1, 7) for p in sf.primes)
    assert matrices.symbol_table(sf).s2() == 2
    for route in (criteria.classify, tame.tame_report):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="unit orbits"):
            route(K23)
        assert time.perf_counter() - start < 1, route


def test_orbit_bound_admits_exactly_its_count(monkeypatch):
    # 2^(k-1) conjugate choices for k odd primes, n odd or even: with the
    # bound at 2^3, k = 4 is multiplied out and k = 5 is refused
    monkeypatch.setattr(reps, "_MOST_CHOICES", 2**3)
    split = [7, 17, 23, 31, 41]
    for m in (1, 2):
        assert len(reps._products(m * prod(split[:4]), None)) == 2**3
        with pytest.raises(TooLarge):
            reps._products(m * prod(split), None)


def _products_by_slices(m, sf):
    """The earlier construction of ``reps._products``, kept as its oracle:
    2's element (0, 1) listed first, the norm's sign by ``prod`` over a
    generator, and the seed and the doubling loop read off slices."""
    elements = ([(0, 1)] if sf.is_even else []) + [_prime_element(p) for p in sf.primes]
    one_choice = 1 + sf.is_even
    a, b = (1, 1) if prod(x * x - 2 * y * y for x, y in elements) == m else (1, 0)
    for x, y in elements[:one_choice]:
        a, b = a * x + 2 * b * y, a * y + b * x
    products = [(a, b)]
    for x, y in elements[one_choice:]:
        products = [(a * x + 2 * b * s, a * s + b * x) for a, b in products for s in (y, -y)]
    return products


def test_products_equal_the_sliced_construction():
    # Every square-free 3 <= |m| <= 20000 whose odd primes all split, both
    # signs: the same products in the same order.
    compared = 0
    for n, sf in squarefree_upto(20000, (range(8), (1, 7)), start=3):
        for m in (n, -n):
            products = reps._products(m, sf)
            assert products == _products_by_slices(m, sf), m
            assert all(x * x - 2 * y * y == -m for x, y in products), m
            compared += 1
    assert compared > 2000
