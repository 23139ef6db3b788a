import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest

from noncongruent import arith, matrices, oracles, verify
from noncongruent.arith import factor_squarefree, squarefree_part
from noncongruent.errors import NotFundamental, OutOfRange, TooLarge, VerificationFailed
from noncongruent.matrices import h4, selmer_elements
from noncongruent.oracles import (
    _reduced_definite_forms,
    _reduced_indefinite_forms,
    class_group,
    compose,
    h4_oracle,
    is_fundamental,
    point_search,
    reduce_definite,
    selmer_oracle,
)


def test_class_group_examples():
    r = class_group(-68)
    assert r.order == 4 and r.invariant_factors == (4,)
    assert (r.r2, r.r4, r.r8) == (1, 1, 0)
    r = class_group(17)
    assert r.order == 1 and r.invariant_factors == ()
    r = class_group(-4)
    assert r.order == 1
    with pytest.raises(NotFundamental):
        class_group(-32)
    with pytest.raises(TooLarge):
        class_group(-(10**6) - 3)


def test_class_group_runs_the_odd_chain_when_q_squared_divides_h():
    # v_3(h) >= 2 in each: the 3-part is only known after the powering chain
    for disc, factors in ((-3299, (3, 9)), (-4027, (3, 3)), (-3896, (3, 12))):
        assert class_group(disc).invariant_factors == factors, disc


def test_cap_is_checked_before_anything_factors(monkeypatch):
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    n = 3239999999499600000007657  # a product of two 13-digit primes
    for oracle, arg in ((class_group, n), (h4_oracle, -n), (h4_oracle, -250001)):
        with pytest.raises(TooLarge, match="exceeds 1000000"):
            oracle(arg)
    assert calls == []


def test_class_group_known_values():
    # narrow class numbers (form class numbers) for a few discriminants
    assert class_group(-23).order == 3
    assert class_group(-47).order == 5
    assert class_group(-420).order == 8 and class_group(-420).r2 == 3
    assert class_group(12).order == 2  # narrow class group of Q(sqrt(3))
    assert class_group(40).order == 2
    assert class_group(5).order == 1


def _reduced_definite_by_a_b(disc):
    """The reference enumeration: every (a, b) with |b| <= a <= sqrt(|disc|/3)."""
    out = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if gcd(a, b, c) == 1:
                out.append((a, b, c))
    return out


def test_reduced_definite_forms_match_the_a_b_loop():
    # non-fundamental discriminants too, so that imprimitive forms turn up
    discs = [d for d in range(-4999, 0) if d % 4 in (0, 1)]
    for disc in discs + [-999995, -999991, -999988]:
        assert sorted(_reduced_definite_forms(disc)) == _reduced_definite_by_a_b(disc), disc


def _kronecker_sum(disc, upto):
    """(sum of chi(a) for 1 <= a <= upto, chi(2)) for the Kronecker symbol
    chi(a) = (disc / a): Euler's criterion at odd primes, disc mod 8 at 2,
    extended multiplicatively through a smallest-prime-factor sieve."""
    spf = list(range(upto + 1))
    for p in range(2, isqrt(upto) + 1):
        if spf[p] == p:
            for q in range(p * p, upto + 1, p):
                if spf[q] == q:
                    spf[q] = p
    chi2 = 0 if disc % 2 == 0 else (1 if disc % 8 in (1, 7) else -1)
    chi = [0, 1] + [0] * (upto - 1)
    for a in range(2, upto + 1):
        p = spf[a]
        if p < a:
            chi[a] = chi[p] * chi[a // p]
        elif p == 2:
            chi[a] = chi2
        else:
            r = pow(disc, (p - 1) // 2, p)
            chi[a] = 1 if r == 1 else -1 if r else 0
    return sum(chi[1:]), chi2


def test_definite_class_number_matches_dirichlet():
    # h(D) = (2 - chi(2))^-1 sum_(1 <= a < |D|/2) chi(a) for fundamental
    # D < -4: a route that shares no code with the form enumeration
    checked = 0
    for disc in range(-2999, -4):
        if not is_fundamental(disc):
            continue
        total, chi2 = _kronecker_sum(disc, (-disc - 1) // 2)
        h, rest = divmod(total, 2 - chi2)
        assert rest == 0 and h == len(_reduced_definite_forms(disc)) == class_group(disc).order, disc
        checked += 1
    assert checked == 909


# SHA-256 of repr([tuple(class_group(D)) ...]) over every fundamental D with
# |D| <= 5000 in increasing order: (disc, order, invariant factors, r2, r4,
# r8), as the form-class oracle gives them.
CLASS_GROUP_DIGEST = "bfba76a9274a7705ed904ed584ed70be54929e3dfc984471e4a29f9ed9f4c3d8"


def test_class_group_reports_are_pinned():
    reports = [tuple(class_group(d)) for d in range(-5000, 5001) if is_fundamental(d)]
    assert len(reports) == 3040
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == CLASS_GROUP_DIGEST


def test_h4_h8_oracle_examples():
    assert h4_oracle(-17) == 1
    assert h4_oracle(17) == 0
    assert class_group(-68).r8 == 0  # Q(sqrt(-17))


def test_composition_group_laws():
    group_forms = [(1, 0, 17), (2, 2, 9), (3, 2, 6), (3, -2, 6)]
    identity = (1, 0, 17)
    for f in group_forms:
        assert reduce_definite(compose(f, identity)) == f
    # (3,2,6) generates the cyclic group of order 4
    g = (3, 2, 6)
    g2 = reduce_definite(compose(g, g))
    g4 = reduce_definite(compose(g2, g2))
    assert g2 == (2, 2, 9)
    assert g4 == identity


def test_group_closure_on_spot_discriminants():
    # composition must permute the enumerated reduction classes: the class
    # list and the composition law are two independent routes to the group
    from noncongruent.oracles import _FormGroup

    spots = []
    d = -3
    while len(spots) < 25:
        if is_fundamental(d):
            spots.append(d)
        d -= 1
    d = 5
    while len(spots) < 50:
        if is_fundamental(d):
            spots.append(d)
        d += 1
    for disc in spots:
        group = _FormGroup(disc)
        elems = set(group.classes)
        assert group.principal in elems
        for f in group.classes:
            row = {group.mul(f, g) for g in group.classes}
            assert row == elems  # each row of the Cayley table is a permutation
            assert group.principal in {group.mul(f, g) for g in group.classes}
            # the raw composite is integral of discriminant disc, and the law
            # is commutative with the principal form as identity and the
            # opposite form (a, -b, c) as inverse
            composites = [compose(f, g) for g in group.classes]
            assert all(h[1] * h[1] - 4 * h[0] * h[2] == disc for h in composites)
            assert all(group.mul(f, g) == group.mul(g, f) for g in group.classes)
            assert group.mul(f, group.principal) == f
            assert group.mul(f, (f[0], -f[1], f[2])) == group.principal


def test_composes_distinct_catches_a_wrong_law(monkeypatch):
    # the h4 chain only squares, so verify's class-oracle suite checks the
    # law on two distinct classes; composing with g^-1 in place of g must
    # fail there (f*g^-1 = g*f^-1 needs (f*g^-1)^2 = 1, and -3299 has odd h)
    from noncongruent.oracles import _FormGroup

    for disc in (-3299, 1785, -56, -4, 5):
        assert _FormGroup(disc).composes_distinct(), disc
    real = oracles.compose
    monkeypatch.setattr(oracles, "compose", lambda f, g: real(f, (g[0], -g[1], g[2])))
    assert not _FormGroup(-3299).composes_distinct()


def test_power_equals_repeated_multiplication():
    from noncongruent.oracles import _FormGroup

    # Z/3 x Z/9 (definite) and Z/2 x Z/2 x Z/4 (indefinite)
    for disc in (-3299, 1785):
        group = _FormGroup(disc)
        for f in group.classes:
            out = group.principal
            for e in range(9):
                assert group.power(f, e) == out, (disc, f, e)
                out = group.mul(out, f)


def test_principal_class_has_one_rule_for_both_signs():
    # the earlier rule, one branch per sign: (1, disc mod 2, .) as listed
    # for disc < 0, (1, b0, .) with b0 the largest b <= sqrt(disc) of the
    # parity of disc, which is reduced, put in its cycle for disc > 0
    from noncongruent.oracles import _FormGroup

    checked = 0
    for disc in range(-5000, 5001):
        if not is_fundamental(disc):
            continue
        group = _FormGroup(disc)
        if disc < 0:
            b0 = disc % 2
            want = (1, b0, (b0 * b0 - disc) // 4)
        else:
            sq = isqrt(disc)
            b0 = sq if (sq - disc) % 2 == 0 else sq - 1
            want = group._rep[(1, b0, (b0 * b0 - disc) // 4)]
        assert group.principal == want, disc
        checked += 1
    assert checked == 3040


def _reduced_indefinite_by_full_window(disc):
    """The reference enumeration: every |a| in the whole reduced window
    (sqrt(disc) - b)/2 < |a| <= (sqrt(disc) + b)/2, for each b."""
    sq = isqrt(disc)
    out = []
    for b in range(1, sq + 1):
        if (disc - b * b) % 4:
            continue
        n4 = (disc - b * b) // 4
        for a in range((sq - b) // 2 + 1, (sq + b) // 2 + 1):
            if n4 % a == 0 and gcd(a, b, n4 // a) == 1:
                out += [(a, b, -(n4 // a)), (-a, b, n4 // a)]
    return sorted(out)


def test_reduced_indefinite_forms_match_the_full_window():
    # the half window below sqrt(n4) and its mirrors give the same forms
    discs = [d for d in range(5, 20001) if is_fundamental(d)]
    assert len(discs) == 6081
    for disc in discs:
        assert sorted(_reduced_indefinite_forms(disc)) == _reduced_indefinite_by_full_window(disc), disc


def test_squaring_is_compose_with_itself():
    from noncongruent.oracles import _FormGroup, _square

    checked = 0
    for disc in range(-3000, 3001):
        if not is_fundamental(disc):
            continue
        # every class of a positive disc is one of its reduced forms
        forms = _reduced_indefinite_forms(disc) if disc > 0 else _FormGroup(disc).classes
        for f in forms:
            assert _square(f) == compose(f, f), (disc, f)
        checked += len(forms)
    assert checked == 55334


def test_a_wrong_squaring_fails_the_class_oracle(monkeypatch):
    # r negated: (v^2, b - 2vr, .) is no form of the discriminant for most
    # classes and a wrong class for some; either the 4-ranks disagree with
    # Redei's on some fields or reducing a non-form raises
    def negated(f):
        a, b, c = f
        x, _, d1 = oracles._xgcd(b, abs(a))
        v = a // d1
        r = -(-x * c % v)
        b2 = b + 2 * v * r
        return v * v, b2, (b2 * b2 - (b * b - 4 * a * c)) // (4 * v * v)

    assert verify.run("class-oracle", 2000)["failed"] == 0
    monkeypatch.setattr(oracles, "_square", negated)
    try:
        failed = verify.run("class-oracle", 2000)["failed"]
    except (KeyError, VerificationFailed, ZeroDivisionError):
        return
    assert failed > 0


def test_h4_oracle_matches_class_group():
    for a in range(2, 501):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            assert h4_oracle(m) == class_group(m if m % 4 == 1 else 4 * m).r4, m


def test_h4_oracle_matches_redei_small():
    for a in range(2, 300):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            assert h4(m) == h4_oracle(m), m


def test_classify_and_scan_load_no_oracle():
    # A fresh interpreter runs classify and an eligible scan, then lists the
    # modules they must not load; those a bare interpreter loads (site hooks)
    # are not counted.  The oracle still loads on demand and agrees.
    heavy = [f"noncongruent.{m}" for m in ("oracles", "cassels", "tame")]
    heavy += ["dataclasses", "fractions", "multiprocessing"]
    listed = f"import json, sys; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n"
    code = (
        "from noncongruent.cli import main\n"
        "assert main(['classify', '17']) == 0\n"
        "assert main(['scan', '1', '3000', '--eligible', '--csv']) == 0\n"
        + listed
        + "from noncongruent import factor_squarefree, selmer_elements\n"
        "from noncongruent.oracles import selmer_oracle\n"
        "sf = factor_squarefree(161)\n"
        "assert selmer_oracle(sf) == selmer_elements(sf)\n"
    )
    runs = [subprocess.run([sys.executable, "-c", c], capture_output=True, text=True) for c in (listed, code)]
    assert [p.returncode for p in runs] == [0, 0], runs[1].stderr
    bare, loaded = (json.loads(p.stdout.splitlines()[-1]) for p in runs)
    assert set(loaded) <= set(bare), loaded


def test_no_command_loads_dataclasses_or_fractions():
    # The reports of tame and classgroup, and every record the verify suites
    # build, are named tuples; only point_search, which no command calls,
    # loads fractions.
    heavy = ["dataclasses", "fractions"]
    listed = f"import json, sys; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n"
    commands = [
        ["tame", "--", "-34"],
        ["classgroup", "--", "-68"],
        ["verify", "selmer-oracle", "40"],
        ["verify", "class-oracle", "60"],
        ["verify", "pairing-product", "300"],
        ["verify", "lemma-2symbol", "25"],
        ["verify", "proposition", "2000"],
        ["verify", "corollaries", "1500"],
        ["verify", "pell-orbit", "600"],
    ]
    assert sorted(c[1] for c in commands if c[0] == "verify") == sorted(verify.SUITES)
    code = "from noncongruent.cli import main\n" + "".join(
        f"assert main({c!r}) == 0\n" for c in commands
    ) + listed
    runs = [subprocess.run([sys.executable, "-c", c], capture_output=True, text=True) for c in (listed, code)]
    assert [p.returncode for p in runs] == [0, 0], runs[1].stderr
    bare, loaded = (json.loads(p.stdout.splitlines()[-1]) for p in runs)
    assert set(loaded) <= set(bare), loaded


def test_class_oracle_sweeps_no_n_past_the_cap(monkeypatch):
    # run takes no class-oracle bound above the cap on |disc|, and the sweep
    # builds no symbol table past its bound: so no n past the cap is swept.
    most = verify.SUITES["class-oracle"][1]
    assert most == oracles._DISC_CAP
    with pytest.raises(OutOfRange):
        verify.run("class-oracle", most + 1)
    tables = []
    real = matrices.symbol_table
    monkeypatch.setattr(matrices, "symbol_table", lambda sf: tables.append(sf.n) or real(sf))
    verify.run("class-oracle", 300)
    assert max(tables) == 299


def test_selmer_oracle_examples():
    for n in (17, 34, 5):
        sf = factor_squarefree(n)
        assert selmer_oracle(sf) == selmer_elements(sf)


# SHA-256 of repr() of the list of (n, triples) for every square-free n from
# 3 on, in order: sorted(selmer_elements(sf)) for n <= 20000 (the Monsky
# kernel's triples) and _candidate_triples(sf) in list order for n <= 2000
# (the oracle's grid).  Both build their triples through SelmerTriple.of,
# so a wrong map could agree with itself; these pin what it gives.
SELMER_ELEMENTS_DIGEST = "cc1f70925fe4c4a56d94a637554c33dcf19a5c575e6d22eb0cf4b729c62489fa"
CANDIDATE_TRIPLES_DIGEST = "fde02edb24bd632a865872dc2c81ff8de9939160a2175e66a2aef484ea843860"


def test_selmer_triples_are_pinned():
    kernel = [(n, sorted(selmer_elements(sf))) for n, sf in arith.squarefree_upto(20000, start=3)]
    grid = [(n, oracles._candidate_triples(sf)) for n, sf in arith.squarefree_upto(2000, start=3)]
    assert (len(kernel), len(grid)) == (12158, 1213)
    assert hashlib.sha256(repr(kernel).encode()).hexdigest() == SELMER_ELEMENTS_DIGEST
    assert hashlib.sha256(repr(grid).encode()).hexdigest() == CANDIDATE_TRIPLES_DIGEST


@pytest.mark.parametrize("mutation", ["swap-d1-d2", "flip-even-d3-sign"])
def test_a_wrong_triple_map_fails_the_oracle(monkeypatch, mutation):
    # The oracle decides membership by local solvability alone, so a wrong
    # but injective map from divisor pairs to triples shows up as a mismatch
    # with the Monsky kernel, though both sides build triples through it.
    real = arith.SelmerTriple.of

    def wrong(cls, is_even, a, b):
        if mutation == "swap-d1-d2":
            d1, d2, d3 = real(is_even, a, b)
            return cls(d2, d1, d3)
        if not is_even:
            return real(is_even, a, b)
        d3 = -b if b % 4 == 1 else b
        return cls(a * d3 // gcd(a, d3) ** 2, a, d3)

    monkeypatch.setattr(arith.SelmerTriple, "of", classmethod(wrong))
    pairs = ((selmer_oracle(sf), selmer_elements(sf)) for _, sf in arith.squarefree_upto(300, start=3))
    assert any(oracle != kernel for oracle, kernel in pairs)


@pytest.mark.parametrize("mutation", ["units-mod-4", "no-valuation-parity"])
def test_a_wrong_square_class_key_fails_the_oracle(monkeypatch, mutation):
    # The oracle reuses one search per place and square-class key, so a key
    # that merges two classes hands some torsor another's answer.
    def wrong(x, p):
        e, u = arith.split_power(x, p)
        if p != 2:
            return (0 if mutation == "no-valuation-parity" else e & 1), pow(u, p >> 1, p)
        return (0, u % 8) if mutation == "no-valuation-parity" else (e & 1, u % 4)

    monkeypatch.setattr(oracles, "_square_class", wrong)
    # A table left warm by earlier tests would answer the wrong keys right.
    monkeypatch.setattr(oracles, "_SOLVABLE", {})
    pairs = ((selmer_oracle(sf), selmer_elements(sf)) for _, sf in arith.squarefree_upto(300, start=3))
    assert any(oracle != kernel for oracle, kernel in pairs)


def test_one_table_keeps_every_place():
    verify.run("selmer-oracle", 3000)
    table = oracles._SOLVABLE
    for p, *classes in table:
        assert arith.is_prime(p) and len(classes) == 4, (p, classes)
        assert all(len(c) == 2 and c[0] in (0, 1) for c in classes), (p, classes)
    # 8 classes of n, 4 of each of the odd d1 and d2, and d3's follows.
    assert 0 < sum(key[0] == 2 for key in table) <= 128
    assert any(key[0] != 2 for key in table)
    assert len(table) <= oracles._SOLVABLE_CAP


@pytest.mark.parametrize("table", ["kept", "cleared-each-call", "cap-8"])
def test_the_table_changes_no_selmer_set(monkeypatch, table):
    # A hit hands a torsor the answer of another with its key, so the sets
    # must not depend on what the table holds: kept across calls from empty,
    # cleared before every call, or cleared at a cap of 8 keys, which no
    # search may find the table past.
    monkeypatch.setattr(oracles, "_SOLVABLE", {})
    if table == "cap-8":
        monkeypatch.setattr(oracles, "_SOLVABLE_CAP", 8)
    search = oracles.local_point_search

    def capped(ts, p):
        assert len(oracles._SOLVABLE) < oracles._SOLVABLE_CAP
        return search(ts, p)

    monkeypatch.setattr(oracles, "local_point_search", capped)
    for n, sf in arith.squarefree_upto(3000, start=3):
        if table == "cleared-each-call":
            oracles._SOLVABLE.clear()
        assert selmer_oracle(sf) == selmer_elements(sf), n


def test_square_root_tables_are_the_scan_and_live_for_one_call():
    from noncongruent.oracles import _square_roots

    for p in (q for q in range(2, 2000) if arith.is_prime(q)):
        roots = [[] for _ in range(p)]
        for x in range(p):
            roots[x * x % p].append(x)
        assert list(map(list, _square_roots(p))) == roots, p
    # n = 3 * 5 * 7 * 11 * 13: its search reads at most the tables of 2n's primes
    sf = factor_squarefree(15015)
    assert selmer_oracle(sf) == selmer_elements(sf)
    assert 0 < _square_roots.cache_info().currsize <= 6
    selmer_oracle(factor_squarefree(10009))
    assert _square_roots.cache_info().currsize <= 2


def test_point_search_examples():
    pts = point_search(5, 100)
    assert (Fraction(-4), Fraction(6)) in pts
    pts = point_search(6, 100)
    assert (Fraction(-3), Fraction(9)) in pts
    assert point_search(17, 10**4) == []


def test_point_search_triangle_correspondence():
    for n, height in ((5, 100), (6, 100), (7, 500), (34, 3000)):
        for x, y in point_search(n, height):
            rhs = x**3 - n * n * x
            assert y * y == rhs
            # The right triangle of area n attached to a non-torsion point.
            a, b, c = abs((x * x - n * n) / y), abs(2 * n * x / y), abs((x * x + n * n) / y)
            assert a * a + b * b == c * c
            assert a * b / 2 == n


def test_is_fundamental():
    assert is_fundamental(-68) and is_fundamental(17) and is_fundamental(-4)
    assert not is_fundamental(-32)
    assert not is_fundamental(25)
    assert not is_fundamental(100)
