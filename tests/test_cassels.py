import hashlib
import itertools
import json
import random
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noncongruent.arith import (
    SelmerTriple,
    factor_squarefree,
    hilbert,
    legendre,
    split_power,
    sqrt_2adic,
    squarefree_upto,
)
from noncongruent.cassels import (
    TangentData,
    _hilbert2,
    _pairing_inputs,
    closed_form_pairing,
    local_factors,
    pairing_matrix,
    pairing_product,
)
from noncongruent.criteria import distinguished_divisor
from noncongruent.errors import NotRankTwo, PrecisionExhausted, VerificationFailed
from noncongruent.matrices import selmer_elements
from noncongruent.oracles import LocalPoint, TorsorSystem, local_point_search
from noncongruent.reps import rep_2mu2_tau2


def _h2(ts):
    """H2 = -(H1 + H3), the third form of the torsor's pencil."""
    return tuple(-a - b for a, b in zip(ts.h1, ts.h3))


def test_torsor_coefficients_exact():
    ts = TorsorSystem(SelmerTriple(17, 1, 17), 17)
    assert ts.h1 == (-17, 0, 1, -17)
    assert _h2(ts) == (-17, -17, 0, 17)
    assert ts.h3 == (34, 17, -1, 0)
    # the three forms always sum to zero
    for i in range(4):
        assert ts.h1[i] + _h2(ts)[i] + ts.h3[i] == 0


def test_trivial_torsor_has_rational_point():
    ts = TorsorSystem(SelmerTriple(1, 1, 1), 17)
    pt = (0, 1, 1, 1)
    for form in (ts.h1, _h2(ts), ts.h3):
        assert sum(c * x * x for c, x in zip(form, pt)) == 0
    assert local_point_search(ts, None).coords == pt


def test_local_model_meets_its_definition():
    # At every odd p | n, for square-free n <= 3000 of both parities: both
    # forms have unit content, neither is a unit times one square mod p,
    # the pair is independent mod p, and p times the model (or the model
    # alone, when no coordinate scales) is the torsor's H1 and H3 with
    # each coordinate scaled by p ** scales.
    from noncongruent.oracles import _candidate_triples, _local_model

    models = 0
    for n, sf in squarefree_upto(3000, start=3):
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            for p in sf.primes:
                h1, h3, scales = _local_model(ts, p)
                lift = p if any(scales) else 1
                for form, torsor in ((h1, ts.h1), (h3, ts.h3)):
                    units = sum(c % p != 0 for c in form)
                    assert units > 0, ("content", n, lam, p)
                    assert units != 1, ("one square", n, lam, p)
                    assert [lift * c for c in form] == [
                        c * p ** (2 * s) for c, s in zip(torsor, scales)
                    ], (n, lam, p)
                assert any(
                    (h1[i] * h3[j] - h1[j] * h3[i]) % p for i in range(4) for j in range(i + 1, 4)
                ), (n, lam, p)
                models += 1
    assert models == 91116


@pytest.mark.parametrize(
    "lam, n",
    [
        ((3, 5, 15), 17),  # 3 divides d1 and d3 but not n
        ((1, 1, 1), 45),  # 3^2 divides n
        ((9, 1, 1), 3),  # 3 divides one d_i
        ((3, 3, 9), 3),  # 3 divides all three
    ],
)
def test_local_model_refuses_what_its_closed_form_does_not_cover(lam, n):
    with pytest.raises(VerificationFailed, match="p = 3"):
        local_point_search(TorsorSystem(SelmerTriple(*lam), n), 3)


def test_tangent_data_vanishing():
    for n in (17, 34, 161, 322):
        t1, t3 = _pairing_inputs(factor_squarefree(n))[1]
        for t in (t1, t3):
            assert sum(c * x * x for c, x in zip(t.form, t.point)) == 0
            assert sum(c * x for c, x in zip(t.linear, t.point)) == 0


def test_closed_form_examples():
    sf = factor_squarefree(17)
    assert closed_form_pairing(sf, 17, -3) == -1
    sf = factor_squarefree(34)
    assert closed_form_pairing(sf, 17, None) == 1
    sf = factor_squarefree(161)
    assert closed_form_pairing(sf, 23, -9) == 1


def test_local_pairing_examples():
    factors17 = local_factors(factor_squarefree(17))
    assert factors17[17] == -1  # (3/17)
    assert factors17[2] == 1
    assert local_factors(factor_squarefree(34))[2] == 1


def test_local_pairing_real_place_sign():
    # even case with negative distinguished divisor: the real factor is -1
    sf = factor_squarefree(322)
    assert distinguished_divisor(sf) == -7
    assert local_factors(sf)[None] == -1
    assert pairing_product(sf) == closed_form_pairing(sf, -7, None) == -1


@pytest.mark.parametrize(
    "n, d, factors",
    [
        (17, 17, [1, 1, -1]),
        (34, 17, [1, 1, 1]),
        (161, 23, [1, 1, 1, 1]),
        (322, -7, [-1, 1, 1, 1]),
        (3281, 3281, [1, 1, -1, -1]),
        (3122, -223, [-1, 1, 1, -1]),
    ],
)
def test_local_pairing_pinned_per_place(n, d, factors):
    # Each factor, in place order (oo, 2, then p | n): a product check
    # cannot catch two sign errors that cancel, as at 3281 and 3122.
    sf = factor_squarefree(n)
    assert distinguished_divisor(sf) == d
    got = local_factors(sf)
    assert list(got) == [None, 2, *sf.primes]
    assert list(got.values()) == factors


@given(
    st.integers(-(2**60), 2**60).filter(bool),
    st.integers(-(10**6), 10**6).map(lambda k: 2 * k + 1),
)
def test_two_adic_helper_matches_hilbert(x, d):
    # with a = 0 the value x is exact, whatever root of n = 1 is taken
    assert _hilbert2(0, x, 1, d) == hilbert(x, d, 2)


def test_two_adic_helper_takes_its_precision_from_the_norm():
    # b^2 - a^2*n fixes the precision, so no power of 2 is too large; only
    # x = 0, where that norm is 0, has no unit to read
    for x in (1 << 93, 1 << 200):
        assert _hilbert2(0, x, 1, 5) == hilbert(x, 5, 2)
    with pytest.raises(ValueError):
        _hilbert2(0, 0, 1, 5)


@given(
    st.integers(-(2**40), 2**40).filter(bool),
    st.integers(-(2**40), 2**40),
    st.integers(1, 2**30).map(lambda k: 8 * k + 1).filter(lambda n: isqrt(n) ** 2 != n),
)
def test_two_adic_precision_from_the_norm_pins_the_unit(a, b, n):
    # at e = v_2(b^2 - a^2*n) + 4 the truncated a*sqrt(n) + b is nonzero
    # with at least 3 known bits above its valuation, so its unit mod 8
    # is fixed, and the helper reads its symbol from that value
    e = split_power(b * b - a * a * n, 2)[0] + 4
    k = e - 1 + split_power(a, 2)[0]
    x = (a * sqrt_2adic(n, e) + b) % (1 << k)
    assert x and k - split_power(x, 2)[0] >= 3
    for d in (-1, 3, 5):
        assert _hilbert2(a, b, n, d) == hilbert(x, d, 2)


@pytest.mark.parametrize("n", [65, 138, 145, 210])
def test_pairing_outside_rank_two_is_refused(n):
    # each has a prime that is not +-1 mod 8, so classify calls it NotEligible
    # and records no d; every pairing quantity is refused with one error
    sf = factor_squarefree(n)
    for fn in (pairing_product, pairing_matrix, local_factors):
        with pytest.raises(NotRankTwo):
            fn(sf)


def test_pairing_matrix_examples():
    gram, nondeg = pairing_matrix(factor_squarefree(17))
    assert gram == ((1, -1), (-1, 1)) and nondeg
    gram, nondeg = pairing_matrix(factor_squarefree(34))
    assert gram == ((1, 1), (1, 1)) and not nondeg
    with pytest.raises(NotRankTwo):
        pairing_matrix(factor_squarefree(41 * 73))  # s2 = 4 here


def test_point_search_solvable_matches_selmer_membership():
    # for n = 17 the torsor of (1,17,17) is solvable at 17 and 2;
    # a non-Selmer triple must fail at some place
    sf = factor_squarefree(17)
    pure = selmer_elements(sf)
    places = [None, 2, 17]
    for lam in pure:
        ts = TorsorSystem(lam, 17)
        for v in places:
            assert local_point_search(ts, v) is not None
    # torsion translates of pure elements stay everywhere solvable
    translate = SelmerTriple(-1, 17, -17)
    ts = TorsorSystem(translate, 17)
    assert all(local_point_search(ts, v) is not None for v in places)
    # a genuinely non-Selmer triple fails 2-adically
    ts = TorsorSystem(SelmerTriple(2, 1, 2), 17)
    assert local_point_search(ts, 2) is None


def test_real_place_solvability_is_sign_of_d2():
    for lam, solvable in [
        (SelmerTriple(1, 1, 1), True),
        (SelmerTriple(-1, 1, -1), True),
        (SelmerTriple(1, -1, -1), False),
        (SelmerTriple(-1, -1, 1), False),
    ]:
        ts = TorsorSystem(lam, 17)
        assert (local_point_search(ts, None) is not None) == solvable


def test_good_place_spot_check():
    # At good odd primes the local factor is +1: evaluate the tangent forms
    # at a certified local point and take the Hilbert symbol directly.
    sf = factor_squarefree(17)
    d = distinguished_divisor(sf)
    t1, t3 = _pairing_inputs(sf)[1]
    ts = TorsorSystem(SelmerTriple(1, 17, 17), 17)
    good = (3, 5, 7, 11, 13, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)
    checked = 0
    for p in good:
        pt = local_point_search(ts, p)
        assert pt is not None  # good reduction is always solvable
        coords = pt.coords
        l1 = sum(c * x for c, x in zip(t1.linear, coords))
        l3 = sum(c * x for c, x in zip(t3.linear, coords))
        if l1 % p == 0 or l3 % p == 0:
            continue  # a tangent vanished at this particular point
        assert hilbert(l1 * l3, d, p) == 1
        checked += 1
    assert checked >= 15


def _brute_levels(ts, p, max_level):
    """(m, residues mod p^m with both forms 0 mod p^m) for m <= max_level.

    Each level lifts the one below by every shift by p^(m-1) of the three
    coordinates other than the patch (the first coordinate prime to p),
    kept when both forms vanish mod p^m: p^3 trials per residue, in the
    order of the shift's base-p digits, the first coordinate lowest.
    """
    from noncongruent.oracles import _level_one, _local_model

    h1, h3, _ = _local_model(ts, p)
    frontier = list(_level_one(h1, h3, p))
    for m in range(1, max_level + 1):
        if m > 1:
            mod, nxt = p ** (m - 1), []
            for x in frontier:
                patch = next(i for i, c in enumerate(x) if c % p)
                free = [i for i in range(4) if i != patch]
                for shift in range(p**3):
                    y = list(x)
                    for axis, i in enumerate(free):
                        y[i] += mod * (shift // p**axis % p)
                    if all(sum(c * v * v for c, v in zip(h, y)) % p**m == 0 for h in (h1, h3)):
                        nxt.append(tuple(y))
            frontier = nxt
        yield m, frontier


def _certified_points(ts, p, max_level):
    """All Hensel-certified points mod p^m for m <= max_level, with their
    minor valuation, in the brute lift's order (white box)."""
    from noncongruent.oracles import _certified, _local_model

    h1, h3, scales = _local_model(ts, p)
    for m, frontier in _brute_levels(ts, p, max_level):
        for x in frontier:
            e = _certified(h1, h3, x, p, m)
            if e is not None:
                yield tuple((x[i] * p ** scales[i]) % p**m for i in range(4)), m, e


def _factor_at_searched_point(sf, p, d, lam):
    """Local factor evaluated at search-found points instead of the proof's.

    Returns None when no certified point determines the tangent product's
    unit class (the caller skips such places).
    """
    t1, t3 = _pairing_inputs(sf)[1]
    margin = 3 if p == 2 else 1
    for coords, m, _ in _certified_points(TorsorSystem(lam, sf.n), p, 9 if p == 2 else 4):
        value = (
            sum(c * x for c, x in zip(t1.linear, coords))
            * sum(c * x for c, x in zip(t3.linear, coords))
        ) % p**m
        val = 0
        while val < m and value % p == 0:
            value //= p
            val += 1
        if m - val < margin:
            continue
        return hilbert(p**val * value, d, p)
    return None


def test_point_choice_independence_of_product():
    # replacing the explicit proof points by certified searched points must
    # not change the total product (individual factors may differ)
    from noncongruent.arith import squarefree_part
    from noncongruent import matrices

    factors_checked = 0
    complete_cases = 0
    for n in range(1, 400, 8):  # odd, 1 mod 8
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0 or not sf.eligibility or matrices.s2(sf) != 2:
            continue
        d = distinguished_divisor(sf)
        mu = rep_2mu2_tau2(n, d).mu
        lam = SelmerTriple(1, n, n)
        product = 1
        complete = True
        for p in (2, *sf.primes):
            factor = _factor_at_searched_point(sf, p, d, lam)
            if factor is None:
                complete = False
                break
            factors_checked += 1
            product *= factor
        if complete:
            complete_cases += 1
            assert product == closed_form_pairing(sf, d, mu), n
    assert complete_cases >= 5 and factors_checked >= 12


def test_level_one_matches_naive_enumeration():
    from itertools import product

    from noncongruent.oracles import _level_one

    def naive(h1, h3, p):
        # every x3, listed under its two terms (h1[3] x3^2, h3[3] x3^2) mod p
        last = {}
        for x in range(p):
            last.setdefault((h1[3] * x * x % p, h3[3] * x * x % p), []).append(x)
        out = []
        for patch in range(3):
            for xs in product(range(p), repeat=2 - patch):
                head = (0,) * patch + (1,) + xs
                s1 = sum(c * x * x for c, x in zip(h1, head))
                s3 = sum(c * x * x for c, x in zip(h3, head))
                out.extend(head + (x,) for x in last.get((-s1 % p, -s3 % p), ()))
        if h1[3] % p == 0 == h3[3] % p:
            out.append((0, 0, 0, 1))
        return out

    def coeff(rng, p):
        return rng.choice((0, p, rng.randrange(-99, 100)))

    rng = random.Random(7)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for draw in range(60):
            # zero coefficients mod p exercise every branch of both eliminations
            h1 = [coeff(rng, p) for _ in range(4)]
            if draw % 3 == 1:
                # h3 = c*h1 (mod p): the combination free of x3 vanishes identically
                c = rng.randrange(p)
                h3 = [c * x + p * rng.randrange(-3, 4) for x in h1]
            else:
                h3 = [coeff(rng, p) for _ in range(4)]
            if draw % 3 == 2:
                # no x3 term in either form: x2 is pinned by h1 or h3 itself
                h1[3], h3[3] = p * rng.randrange(-3, 4), p * rng.randrange(-3, 4)
            assert list(_level_one(h1, h3, p)) == naive(h1, h3, p), (h1, h3, p)


def test_no_two_adic_certificate_below_level_five():
    # every 2x2 Jacobian minor is 4*c_ij*x_i*x_j at p = 2, which is why
    # local_point_search scans no certificates below level 5
    from noncongruent.oracles import _candidate_triples

    levels = set()
    for n in (17, 34, 41, 82):
        sf = factor_squarefree(n)
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            found = [m for _, m, _ in _certified_points(ts, 2, 7)]
            if found:
                # the search still reports the first level with a certificate
                assert local_point_search(ts, 2).precision == min(found), (n, lam)
            levels.update(found)
    assert levels and min(levels) == 5


def _brute_search(ts, p):
    """What local_point_search at p must return, from the brute lift: None
    at the first empty level, else the first certified residue, up to the
    last level 2*v_p(4n^2) + 6; PrecisionExhausted past it."""
    from noncongruent.oracles import _certified, _local_model

    h1, h3, scales = _local_model(ts, p)
    last = 2 * (2 * (ts.n % p == 0) + 2 * (p == 2)) + 6  # n is square-free
    for m, frontier in _brute_levels(ts, p, last):
        if not frontier:
            return None
        for x in frontier:
            e = _certified(h1, h3, x, p, m)
            if e is not None:
                coords = tuple(x[i] * p ** scales[i] % p**m for i in range(4))
                return LocalPoint(p, coords, m, e)
    return PrecisionExhausted


def test_search_matches_brute_lift():
    # One F_p solve per point must find what trying every shift of every
    # residue finds: the same point, precision and minor, or None, at 2 and
    # at the odd places p <= 13.
    from noncongruent.oracles import _candidate_triples

    outcomes = set()
    for n, sf in squarefree_upto(150):
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            for p in (2, *(q for q in sf.primes if q <= 13)):
                want = _brute_search(ts, p)
                try:
                    got = local_point_search(ts, p)
                except PrecisionExhausted:
                    got = PrecisionExhausted
                assert got == want, (n, lam, p)
                outcomes.add((p > 2, type(got)))
    assert outcomes == {(odd, kind) for odd in (False, True) for kind in (LocalPoint, type(None))}


# SHA-256 of repr() of the list of local_point_search(ts, p) outcomes, for
# every square-free n < 500 in order, every candidate triple of n and the
# finite bad places 2, then the primes of n: points, precisions and minors
# as the level-by-level search found them.
SEARCH_DIGEST = "b8d9513f38e6ad9b3c92eb7106d076594f69720b72d96c1d6039317fe71deeeb"


def test_local_point_searches_are_pinned():
    from noncongruent.oracles import _candidate_triples

    outcomes = []
    for n, sf in squarefree_upto(499):
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            outcomes += [local_point_search(ts, p) for p in (2, *sf.primes)]
    assert (len(outcomes), outcomes.count(None)) == (12914, 8906)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == SEARCH_DIGEST


# SHA-256 of repr() of the list of local_point_search(ts, 2) outcomes, for
# every square-free 3 <= n <= 1500 in order and every candidate triple of n,
# as the search found them when it lifted 2-adic classes of eight residues.
SEARCH_AT_TWO_DIGEST = "998ba24d69a4decb65ddc7b07d533e497245b9589a44a28b8d3b71b8627e1796"


def test_local_point_searches_at_two_are_pinned():
    from noncongruent.oracles import _candidate_triples

    outcomes = [
        local_point_search(TorsorSystem(lam, n), 2)
        for n, sf in squarefree_upto(1500, start=3)
        for lam in _candidate_triples(sf)
    ]
    assert (len(outcomes), outcomes.count(None)) == (15700, 10854)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == SEARCH_AT_TWO_DIGEST


def test_square_class_keys_fix_the_search_outcome():
    # Each variable of H1, H2 and H3 carries one coefficient, the same in
    # all three forms, so a square factor of Q_p in n or a d_i is a change
    # of variables.  On the pinned test's corpus, searches at one place
    # whose square-class keys agree must agree on solvability.
    from noncongruent.oracles import _candidate_triples, _square_class

    outcomes = {}
    searches = 0
    for n, sf in squarefree_upto(499):
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            for p in (2, *sf.primes):
                key = (p, *(_square_class(x, p) for x in (n, *lam)))
                solvable = local_point_search(ts, p) is not None
                assert outcomes.setdefault(key, solvable) == solvable, (n, lam, p)
                searches += 1
    assert (searches, len(outcomes)) == (12914, 1208)
    assert sum(p == 2 for p, *_ in outcomes) == 96


def test_solve_mod_p_lists_every_solution_in_order():
    from noncongruent.oracles import _solve_mod_p

    def brute(rows, p):
        """Every y in F_p^3 solving the rows, in increasing y0 + p*y1 + p^2*y2."""
        return [
            (y0, y1, y2)
            for y2 in range(p)
            for y1 in range(p)
            for y0 in range(p)
            if all((a0 * y0 + a1 * y1 + a2 * y2 - b) % p == 0 for a0, a1, a2, b in rows)
        ]

    for rows in itertools.product(itertools.product(range(2), repeat=4), repeat=2):
        assert _solve_mod_p(rows, 2) == brute(rows, 2), rows
    rng = random.Random(15)
    for p in (3, 5, 7):
        sizes = set()
        for draw in range(240):
            # rank 2, rank 1 (the second row a multiple of the first) and
            # rank 0 (coefficients all 0 mod p); a shifted right side makes
            # the lower ranks inconsistent
            r1 = [rng.randrange(-3 * p, 3 * p) for _ in range(4)]
            r2 = [rng.randrange(-3 * p, 3 * p) for _ in range(4)]
            rank = draw % 3
            if rank < 2:
                c = rng.randrange(p)
                r2 = [c * a + p * rng.randrange(-2, 3) for a in r1]
                if rank == 0:
                    r1[:3] = [p * rng.randrange(-2, 3) for _ in range(3)]
                    r1[3] *= p * (draw % 2)
                    r2[:3] = [p * rng.randrange(-2, 3) for _ in range(3)]
                if draw % 4 == 1:
                    r2[3] += rng.randrange(1, p)
            rows = [r1, r2]
            want = brute(rows, p)
            assert _solve_mod_p(rows, p) == want, (rows, p)
            sizes.add(len(want))
        assert sizes == {0, p, p * p, p**3}, p


def test_search_draws_level_one_lazily(monkeypatch):
    # At a large place the first level-one point usually certifies: the
    # search must not make the other ~4p points first.
    from noncongruent import oracles
    from noncongruent.oracles import _candidate_triples

    drawn = []
    real = oracles._level_one

    def counted(h1, h3, p):
        points = real(h1, h3, p)
        assert iter(points) is points  # made as drawn, not listed first
        for x in points:
            drawn.append(x)
            yield x

    monkeypatch.setattr(oracles, "_level_one", counted)
    sf = factor_squarefree(10009)
    found = 0
    for lam in _candidate_triples(sf):
        drawn.clear()
        point = local_point_search(TorsorSystem(lam, sf.n), 10009)
        found += point is not None
        assert len(drawn) <= 4, (lam, len(drawn))
    assert found


def test_a_vanished_tangent_product_exits_3(monkeypatch, capsys):
    # At n = 34 the factor at 17 reads L1 = 2 - sqrt(2) at (1, 0, 2, sqrt(2)):
    # a wrong root 2 makes it vanish, which the CLI reports as exit 3.
    from noncongruent import cassels
    from noncongruent.cli import main

    monkeypatch.setattr(cassels, "sqrt2_mod", lambda p: 2)
    assert main(["verify", "pairing-product", "100"]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "tangent product vanished mod 17 for n = 34"}


def test_tangent_data_off_its_quadric_is_an_error():
    with pytest.raises(VerificationFailed, match="quadric"):
        TangentData(form=(-1, 0, 1, -1), point=(0, 0, 1, 2), linear=(0, 0, 1, -1))
    with pytest.raises(VerificationFailed, match="linear form"):
        TangentData(form=(-1, 0, 1, -1), point=(0, 0, 1, 1), linear=(0, 0, 1, 1))


def test_point_off_the_torsor_is_an_error(monkeypatch):
    # a lift that leaves the torsor is a bug, never a point skipped in silence
    from noncongruent import oracles

    monkeypatch.setattr(oracles, "_lift_children", lambda *args: [(1, 1, 0, 0)])
    ts = TorsorSystem(SelmerTriple(1, 17, 17), 17)
    with pytest.raises(VerificationFailed):
        local_point_search(ts, 2)


def test_search_at_two_lifts_lazily_below_level_five(monkeypatch):
    # Levels 2 to 4 at p = 2 are made only as far as the search draws: a
    # search that certifies at level 5 makes 6 to 14 lifts over these n,
    # where building levels 2 to 4 in full takes 43 lifts per search (a
    # residue at 2 has all eight children or none, so a few dead ends run).
    from noncongruent import oracles
    from noncongruent.oracles import _candidate_triples

    calls = []
    real = oracles._lift_children
    monkeypatch.setattr(oracles, "_lift_children", lambda *args: calls.append(1) or real(*args))
    searches = 0
    for n in (17, 41, 113, 161, 1057):
        sf = factor_squarefree(n)
        for lam in _candidate_triples(sf):
            calls.clear()
            point = local_point_search(TorsorSystem(lam, n), 2)
            if point is not None and point.precision == 5:
                searches += 1
                assert len(calls) <= 14, (n, lam, len(calls))
    assert searches == 28


def test_levels_raise_on_the_last_level_and_the_frontier_cap(monkeypatch):
    from noncongruent import oracles
    from noncongruent.oracles import _levels, _local_model

    ts = TorsorSystem(SelmerTriple(1, 17, 17), 17)
    (a1, a3, _), (b1, b3, _) = _local_model(ts, 2), _local_model(ts, 17)
    # 128 residues at level 5 and 69 points at level one; no level is empty
    # and none certifies
    with pytest.raises(PrecisionExhausted, match="live frontier at p = 2, level 6"):
        list(_levels(a1, a3, 2, 6))
    with pytest.raises(PrecisionExhausted, match="live frontier at p = 17, level 1"):
        list(_levels(b1, b3, 17, 1))
    monkeypatch.setattr(oracles, "_FRONTIER_CAP", 50)
    # the 51st residue passes the cap at level 5
    with pytest.raises(PrecisionExhausted, match="frontier blow-up at p = 2, level 5"):
        list(_levels(a1, a3, 2, 12))
    # the cap does not count level one; level 2 has 1156 points
    with pytest.raises(PrecisionExhausted, match="frontier blow-up at p = 17, level 2"):
        list(_levels(b1, b3, 17, 4))


def test_frontiers_list_each_residue_once():
    # a child is congruent to its parent and the parents are distinct, so
    # no level repeats a residue, at 2 as at odd p
    from noncongruent.oracles import _candidate_triples, _levels, _local_model

    levels = 0
    for n in (17, 34, 41, 82, 105, 161):
        sf = factor_squarefree(n)
        for lam in _candidate_triples(sf):
            ts = TorsorSystem(lam, n)
            for p in (2, *sf.primes):
                h1, h3, _ = _local_model(ts, p)
                seen = set()
                try:
                    for point in _levels(h1, h3, p, 12):
                        assert point not in seen, (n, lam, p, point)
                        seen.add(point)
                        if len(seen) > 1000:
                            break
                except PrecisionExhausted:
                    pass
                levels += len({m for m, _ in seen})
    assert levels > 300, levels


def test_pairing_product_computes_d_once(monkeypatch):
    from noncongruent import cassels, criteria

    calls = []
    real = criteria._checked_divisor
    monkeypatch.setattr(
        criteria,
        "_checked_divisor",
        lambda sf, kernel: calls.append(sf.n) or real(sf, kernel),
    )
    for n in (17, 161, 322):
        calls.clear()
        pairing_product(factor_squarefree(n))
        assert calls == [n]


def test_pairing_product_matches_closed_form_small():
    from noncongruent.arith import squarefree_part
    from noncongruent import matrices

    for n in range(1, 500):
        if n % 8 not in (1, 2) or squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0 or not sf.eligibility or matrices.s2(sf) != 2:
            continue
        d = distinguished_divisor(sf)
        mu = None if sf.is_even else rep_2mu2_tau2(n, d).mu
        assert pairing_product(sf) == closed_form_pairing(sf, d, mu), n
