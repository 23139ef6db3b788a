import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noncongruent import arith
from noncongruent.arith import (
    ELIGIBLE,
    factor_squarefree,
    factorize,
    hilbert,
    is_prime,
    jacobi,
    legendre,
    split_power,
    sqrt_2adic,
    squarefree_block,
    squarefree_part,
    squarefree_upto,
)
from noncongruent.errors import (
    NoRoot,
    NotCoprime,
    NotSquareFree,
    TooLarge,
    ZeroOrNegative,
)
from noncongruent.oracles import is_norm

PRIMES_UNDER_100 = [p for p in range(2, 100) if is_prime(p)]


def test_factor_squarefree_examples():
    sf = factor_squarefree(17)
    assert sf.primes == (17,) and not sf.is_even and sf.strict_eligibility
    sf = factor_squarefree(34)
    assert sf.primes == (17,) and sf.is_even and sf.odd_part == 17
    with pytest.raises(NotSquareFree):
        factor_squarefree(45)
    with pytest.raises(ZeroOrNegative):
        factor_squarefree(0)


def test_squarefree_block_matches_factor_squarefree_exhaustively():
    want = {}
    for n in range(1, 20001):
        try:
            want[n] = factor_squarefree(n)
        except NotSquareFree:
            pass
    assert dict(squarefree_block(1, 20001)) == want
    assert dict(squarefree_upto(20000)) == want
    for allowed, flag in ((arith.ELIGIBLE, "eligibility"), (arith.STRICT, "strict_eligibility")):
        kept = {n: sf for n, sf in want.items() if n % 8 in (1, 2) and getattr(sf, flag)}
        assert dict(squarefree_block(1, 20001, allowed)) == kept, allowed
        assert dict(squarefree_upto(20000, allowed)) == kept, allowed


def test_base_primes_are_sieved_once_per_bound_outgrown():
    want = [p for p in range(2, 5000) if all(p % q for q in range(2, isqrt(p) + 1))]
    assert arith.base_primes(4999) == tuple(want)
    assert arith.base_primes(100) == tuple(p for p in want if p <= 100)
    assert arith.base_primes(1) == ()
    table = arith._base_primes
    for _ in squarefree_upto(20000, arith.ELIGIBLE):
        pass
    assert arith._base_primes is table  # no block sieved its own primes


def test_factor_squarefree_invariants():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        prod = 2 if sf.is_even else 1
        for p in sf.primes:
            prod *= p
        assert prod == n
        assert list(sf.primes) == sorted(set(sf.primes))


def _flags_by_definition(sf):
    residues = {p % 8 for p in sf.primes}
    return residues <= {1, 7}, residues <= {1}


def test_eligibility_flags_match_their_definitions():
    # factor_squarefree and the sieve both build through from_primes
    checked = 0
    for n in range(1, 10**5 + 1):
        try:
            sf = factor_squarefree(n)
        except NotSquareFree:
            continue
        assert (sf.eligibility, sf.strict_eligibility) == _flags_by_definition(sf), n
        checked += 1
    assert checked == 60794
    rows = list(squarefree_upto(10**5, ELIGIBLE))
    for n, sf in rows:
        assert (sf.eligibility, sf.strict_eligibility) == _flags_by_definition(sf), n
        assert sf.eligibility
    assert any(sf.strict_eligibility for _, sf in rows)
    assert not all(sf.strict_eligibility for _, sf in rows)


def test_factorize_large_semiprime():
    # exercises the rho stage past the trial-division bound
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_is_prime_rejects_psi12():
    # psi_12 is a strong pseudoprime to every base 2..37; base 41 exposes it.
    p, q = 399165290221, 798330580441
    assert is_prime(p) and is_prime(q) and not is_prime(p * q)
    assert factor_squarefree(p * q).primes == (p, q)


def test_is_prime_refuses_psi13():
    # psi_13 is a strong pseudoprime to every base 2..41, so Miller-Rabin
    # with those bases cannot decide at or above it.
    psi13 = 1287836182261 * 2575672364521
    assert psi13 == 3317044064679887385961981
    with pytest.raises(TooLarge):
        is_prime(psi13)
    with pytest.raises(TooLarge):
        factor_squarefree(psi13)
    assert not is_prime(psi13 - 1)


# OEIS A014233: psi_j, the least odd composite that is a strong probable
# prime to each of the first j prime bases.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _miller_rabin_13(n):
    if n < 2:
        return False
    if any(n % p == 0 for p in FIRST_13_PRIMES):
        return n in FIRST_13_PRIMES
    return all(_strong_probable_prime(n, a) for a in FIRST_13_PRIMES)


@pytest.mark.parametrize("j", range(1, 13))
def test_is_prime_exposes_psi_j(j):
    # psi_j fools the first j bases, so a witness count cut to the size of n
    # must count n = psi_j itself into the tier above.
    psi = PSI[j - 1]
    assert all(_strong_probable_prime(psi, a) for a in FIRST_13_PRIMES[:j])
    assert not is_prime(psi)


def test_is_prime_agrees_with_thirteen_witnesses_around_each_psi_j():
    for psi in PSI[:12]:
        for n in range(psi - 50, psi + 51):
            assert is_prime(n) == _miller_rabin_13(n), n
    for n in range(PSI[12] - 50, PSI[12]):
        assert is_prime(n) == _miller_rabin_13(n), n


@st.composite
def below_psi13_by_tier(draw):
    """An n from a uniformly drawn nonempty tier [psi_(j-1), psi_j) below
    psi_13, and the least n' >= n that passes all 13 bases, if below psi_13."""
    lo, hi = draw(st.sampled_from([t for t in zip((0,) + PSI, PSI) if t[0] < t[1]]))
    n = draw(st.integers(lo, hi - 1))
    nxt = n
    while not _miller_rabin_13(nxt):
        nxt += 1
    return [n] + ([nxt] if nxt < PSI[12] else [])


@settings(max_examples=300, deadline=None)
@given(below_psi13_by_tier())
def test_is_prime_agrees_with_thirteen_witnesses_below_psi13(ns):
    for n in ns:
        assert is_prime(n) == _miller_rabin_13(n), n


def test_pollard_rho_gives_up_with_typed_error():
    # On a prime every c ends in the trivial factor n, so rho runs out of c.
    with pytest.raises(TooLarge):
        arith._pollard_rho(101)


def _check_factors(n, fac):
    assert prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


@pytest.mark.parametrize(
    "primes",
    [
        (997, 1009),
        (2, 991, 1013),
        (3, 983, 1019, 1021),
        (1009, 1013, 1000003),
        (997, 999983, 1000003, 1000033),
        (1000003, 10**9 + 7),
    ],
)
def test_factorize_products_straddling_trial_bound(primes):
    n = prod(primes)
    fac = factorize(n)
    _check_factors(n, fac)
    assert fac == [(p, 1) for p in sorted(primes)]
    assert factor_squarefree(n).primes == tuple(p for p in primes if p != 2)


@pytest.mark.parametrize(
    "n, fac",
    [
        (1009**2, [(1009, 2)]),
        (1009**2 * 1013, [(1009, 2), (1013, 1)]),
        (3 * 1000003**2, [(3, 1), (1000003, 2)]),
        (1000003**2 * 1009, [(1009, 1), (1000003, 2)]),
    ],
)
def test_factorize_squares_above_trial_bound(n, fac):
    assert factorize(n) == fac
    _check_factors(n, fac)
    with pytest.raises(NotSquareFree):
        factor_squarefree(n)


@st.composite
def products_below_psi13(draw):
    """(n, {p: e}) for n = u * (the product of 1-5 prime powers p^e) < psi_13,
    u in 1, 2, 3, 8, 30, each p drawn from [1009, 10^9] and e from 1-3; a
    power that would carry n past psi_13 is left out."""
    u = draw(st.sampled_from((1, 2, 3, 8, 30)))
    n, exps = u, dict(_trial_division(u))
    for _ in range(draw(st.integers(1, 5))):
        p = draw(st.integers(1009, 10**9))
        while not is_prime(p):
            p += 1
        e = draw(st.integers(1, 3))
        if n * p**e < arith._PSI_13:
            n *= p**e
            exps[p] = exps.get(p, 0) + e
    assume(n > u)
    return n, exps


@settings(max_examples=200, deadline=None)
@given(products_below_psi13())
def test_factorize_products_of_prime_powers(case):
    n, exps = case
    fac = factorize(n)
    _check_factors(n, fac)
    assert fac == sorted(exps.items())
    if any(e > 1 for e in exps.values()):
        with pytest.raises(NotSquareFree):
            factor_squarefree(n)
    else:
        assert factor_squarefree(n).primes == tuple(p for p in sorted(exps) if p != 2)


@pytest.mark.parametrize(
    "n, walks",
    [
        (9817 * 10007 * 10247, [9817 * 10007 * 10247]),
        (2 * 788353 * 795601 * 797473, [788353 * 795601 * 797473]),
        (1000003 * 1000033 * 1000037, [1000003 * 1000033 * 1000037]),
        # Round 16 is one batch of 16 steps, which meets 1013 at its first
        # step and 1031 at its twelfth: its gcd fails is_prime and gets a
        # walk of its own.
        (1013 * 1031 * 3041, [1013 * 1031 * 3041, 1013 * 1031]),
    ],
)
def test_factorize_walks_rho_once_per_composite(monkeypatch, n, walks):
    # Each split divides the factor out and goes on walking mod the
    # cofactor, so no prime piece starts a walk of its own.
    seen = []
    rho = arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda m: seen.append(m) or rho(m))
    fac = factorize(n)
    _check_factors(n, fac)
    assert len(fac) >= 3
    assert seen == walks


@pytest.mark.parametrize("n", [1031 * 1109, 9817 * 10007 * 10247])
def test_rho_steps_back_through_a_batch_whose_gcd_is_n(monkeypatch, n):
    # A batch meets every prime left, so its gcd is the whole modulus (for
    # the second n, the cofactor after the first split); one gcd per step
    # back through the batch finds a proper factor.
    gcds = []
    real = arith.gcd

    def spy(a, b):
        gcds.append((b, real(a, b)))
        return gcds[-1][1]

    monkeypatch.setattr(arith, "gcd", spy)
    fac = factorize(n)
    _check_factors(n, fac)
    assert any(g == m for m, g in gcds)
    assert any(1 < g < m for m, g in gcds)


def test_rho_splits_inside_a_four_step_block(monkeypatch):
    # Rounds 1-64 of Brent's walk y -> y^2 + 1 from y = 2 take 254 steps and
    # 11 batch gcds; round 128 compares x = y_254 with y_383.. y_510 in
    # batches of 16.  The first collision, with 20443, is y_408: step 10 of
    # the round's second batch, the second product of its third four-step
    # block, so that block's one reduction must keep all four differences.
    n = 20443 * 20477 * 20479
    ys = [2]
    for _ in range(408):
        ys.append((ys[-1] ** 2 + 1) % n)
    assert [gcd(ys[254] - y, n) for y in ys[383:]] == [1] * 25 + [20443]
    gcds = []
    real = arith.gcd

    def spy(a, b):
        gcds.append(real(a, b))
        return gcds[-1]

    monkeypatch.setattr(arith, "gcd", spy)
    assert sorted(arith._pollard_rho(n)) == [20443, 20477, 20479]
    assert gcds[:13] == [1] * 12 + [20443]


def _trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + ([(n, 1)] if n > 1 else [])


def test_factorize_matches_trial_division_and_skips_primality_below_bound_squared(
    monkeypatch,
):
    # no prime below 1000 survives the trial loop, so a cofactor or rho
    # factor below 10^6 is prime without a Miller-Rabin test; above it the
    # test still runs
    cases = [*range(1, 20000), 999983, 7 * 999983, 997 * 997, 997 * 1009, 1000003, 1009**2]
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or real(m))
    for n in cases:
        assert factorize(n) == _trial_division(n), n
    assert calls == [1000003, 1009**2]


def test_jacobi_examples():
    assert jacobi(1, 15) == 1
    assert jacobi(2, 17) == 1
    assert jacobi(3, 17) == -1
    with pytest.raises(NotCoprime):
        jacobi(3, 15)


def test_jacobi_multiplicative():
    rng = random.Random(2)
    for _ in range(300):
        b = rng.randrange(3, 10**5, 2)
        a1 = rng.randrange(1, 10**5)
        a2 = rng.randrange(1, 10**5)
        if gcd(a1, b) != 1 or gcd(a2, b) != 1:
            continue
        assert jacobi(a1, b) * jacobi(a2, b) == jacobi(a1 * a2 % b, b)


def test_jacobi_matches_legendre_euler():
    rng = random.Random(3)
    for _ in range(200):
        p = PRIMES_UNDER_100[rng.randrange(1, len(PRIMES_UNDER_100))]
        a = rng.randrange(1, p)
        assert jacobi(a, p) == legendre(a, p)


def test_hilbert_examples():
    assert hilbert(-1, -1, None) == -1
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(2, 17, 17) == 1


def test_hilbert_basic_identities():
    rng = random.Random(4)
    places = [None] + PRIMES_UNDER_100[:10]
    for _ in range(200):
        v = places[rng.randrange(len(places))]
        a = rng.choice([-1, 1]) * rng.randrange(1, 500)
        b = rng.choice([-1, 1]) * rng.randrange(1, 500)
        assert hilbert(a, b, v) == hilbert(b, a, v)
        assert hilbert(a, -a, v) == 1
        assert hilbert(a, b * b, v) == 1 if b != 0 else True


def _random_signed_smooth(rng):
    value = rng.choice([-1, 1])
    for _ in range(rng.randrange(1, 4)):
        value *= rng.choice(PRIMES_UNDER_100)
    return value


def test_hilbert_product_formula():
    rng = random.Random(5)
    for _ in range(500):
        a = _random_signed_smooth(rng)
        b = _random_signed_smooth(rng)
        primes = {2}
        for x in (a, b):
            for p, _ in factorize(abs(x)):
                primes.add(p)
        prod = hilbert(a, b, None)
        for p in primes:
            prod *= hilbert(a, b, p)
        assert prod == 1, (a, b)


def test_sqrt_mod_examples():
    s = sqrt_2adic(17, 6)
    assert 1 <= s <= 32 and (s * s - 17) % 64 == 0
    with pytest.raises(NoRoot):
        sqrt_2adic(3, 4)


def test_sqrt_mod_2adic_random():
    rng = random.Random(7)
    for _ in range(300):
        e = rng.randrange(3, 16)
        a = 8 * rng.randrange(0, 1 << (e - 3)) + 1
        s = sqrt_2adic(a, e)
        assert 1 <= s <= 1 << (e - 1)
        assert (s * s - a) % (1 << e) == 0


def test_split_power_refuses_zero():
    # every power of p divides 0, so the loop would never end
    assert split_power(-96, 2) == (5, -3)
    assert split_power(7, 3) == (0, 7)
    with pytest.raises(ValueError):
        split_power(0, 2)


def test_is_norm_examples():
    assert is_norm(-1, 17)
    assert not is_norm(-1, -34)
    assert is_norm(2, 17)


def test_is_norm_against_bounded_form_search():
    rng = random.Random(8)
    bound = 120
    logged = 0
    for _ in range(200):
        m = _random_signed_smooth(rng)
        m = squarefree_part(m)
        if m in (0, 1):
            continue
        divs = [1, 2]
        for p, _ in factorize(abs(m)):
            divs.append(p)
        e = rng.choice([-1, 1]) * rng.choice(divs)
        found = None
        for y in range(bound + 1):
            for z in range(1, bound + 1):
                x2 = m * y * y + e * z * z
                if x2 < 0:
                    continue
                x = isqrt(x2)
                if x * x == x2 and (x, y, z) != (0, 0, 0):
                    found = (x, y, z)
                    break
            if found:
                break
        if found:
            assert is_norm(e, m), (e, m, found)
        elif is_norm(e, m):
            logged += 1  # small search bound missed a solution; never a failure
        else:
            assert not is_norm(e, m)
    assert logged < 200
