import json
import random
import sys
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noncongruent import arith, cli, criteria, f2linalg, matrices, reps, verify
from noncongruent.arith import (
    SquareFreeN,
    factor_squarefree,
    hilbert,
    is_prime,
    squarefree_upto,
)
from noncongruent.criteria import VerdictKind, classify, distinguished_divisor
from noncongruent.errors import VerificationFailed


def test_distinguished_divisor_examples():
    assert distinguished_divisor(factor_squarefree(17)) == 17
    assert distinguished_divisor(factor_squarefree(161)) == 23
    assert distinguished_divisor(factor_squarefree(34)) == 17
    assert distinguished_divisor(factor_squarefree(322)) == -7


@pytest.mark.parametrize("n, wrong", [(161, 7), (322, 23)])
def test_distinguished_divisor_rechecks_the_kernel(monkeypatch, n, wrong):
    # a kernel vector that names another divisor must fail the Hilbert
    # re-verification (for 322, -23 is 1 mod 8 but not a norm)
    monkeypatch.setattr(matrices, "psi", lambda vec, primes: wrong)
    with pytest.raises(VerificationFailed, match=f"d = -?{wrong}, n = {n}"):
        distinguished_divisor(factor_squarefree(n))


def test_divisor_recheck_at_2_catches_a_faulty_odd_place_check(monkeypatch):
    # With the odd places waved through, d = 23 for n = 391 = 17 * 23 fails
    # only at 2: (23, 391)_2 = -1.
    monkeypatch.setattr(criteria, "_odd_places_hold", lambda d, sf: True)
    sf = factor_squarefree(391)
    assert matrices.psi(0b10, sf.primes) == 23 and hilbert(23, 391, 2) == -1
    with pytest.raises(VerificationFailed, match="d = 23, n = 391"):
        criteria._checked_divisor(sf, [0, 0b10])


def test_odd_place_recheck_is_the_hilbert_symbol():
    # Every signed divisor d != 1 of every square-free n <= 3000 with k >= 1
    # (2 * d included for even n): one Euler criterion at each odd p | n,
    # (d / p) or (-(n/d) / p), accepts d exactly when hilbert does.  Then
    # (d, n)_2 = +1 too: (d, n)_oo = +1 for n > 0, and Hilbert reciprocity.
    cases = accepted = 0
    for n, sf in squarefree_upto(3000):
        if sf.k == 0:
            continue
        for e in sf.odd_divisors():
            for d in {e, -e, 2 * e, -2 * e} if sf.is_even else {e, -e}:
                if d == 1:
                    continue
                want = all(hilbert(d, n, p) == 1 for p in sf.primes)
                assert criteria._odd_places_hold(d, sf) == want, (n, d)
                assert hilbert(d, n, 2) == 1 or not want, (n, d)
                cases += 1
                accepted += want
    assert (cases, accepted) == (17006, 5274)


def test_odd_pairing_symbol_is_the_jacobi_symbol():
    # classify takes (-mu / d) as a product of Euler criteria over the
    # primes of d; arith.jacobi is the reference.
    cases = 0
    for n, sf in squarefree_upto(10**5, arith.ELIGIBLE):
        v = classify(sf)
        if sf.is_even or v.d is None:
            continue
        assert v.pairing_symbol == arith.jacobi(-v.mu, v.d), n
        cases += 1
    assert cases == 3786


# The sieve's filter for even eligible n: n = 2 mod 8, every odd prime +-1 mod 8.
_EVEN_ELIGIBLE = ((2,), (1, 7))


def test_even_pairing_symbol_is_the_z2_jacobi_symbol():
    # classify takes ((2 - sqrt(2)) / |d|) as (-1)^#{p | d : p = +-7 mod 16};
    # reps.z2_jacobi, which reduces sqrt(2) to sqrt2_mod(p) and takes Euler's
    # criterion, is the reference, prime by prime and on every even verdict.
    primes = 0
    for p in arith.base_primes(10**6):
        if p % 8 in (1, 7):
            assert reps.z2_jacobi(2, -1, (p,)) == (-1 if p % 16 in (7, 9) else 1), p
            primes += 1
    assert primes == 39221
    cases = 0
    for n, sf in squarefree_upto(10**6, _EVEN_ELIGIBLE):
        v = classify(sf)
        if v.d is None:
            continue
        assert v.pairing_symbol == reps.z2_jacobi(2, -1, tuple(p for p in sf.primes if v.d % p == 0)), n
        cases += 1
    assert cases == 17492


def _primes_1_mod_8_near(x, rng, count):
    """``count`` distinct primes = 1 mod 8, each the first at or past a
    random start in [x, 2x)."""
    found = set()
    while len(found) < count:
        p = rng.randrange(x, 2 * x)
        p += (1 - p) % 8
        while not is_prime(p):
            p += 8
        found.add(p)
    return sorted(found)


def test_k1_laws_hold_at_every_size():
    # Whole verdicts (the gate, d, mu and the symbol) at k = 1 against two
    # laws in p alone, for p = 1 mod 8 up to 2 * 10^24.
    # - n = 2p: d = p, so the even symbol is -1 exactly when p = 9 mod 16
    #   (closed_form_pairing); given s2 = 2, this law is proved.
    # - n = p: non-congruent with Sha[2] = (Z/2)^2 exactly when
    #   (2/p)_4 = 2^((p-1)/4) mod p differs from (-1)^((p-1)/8).  This law
    #   is observed, not proved: with the law of 2p it held on all 56668
    #   eligible n = p or 2p <= 2 * 10^6 with s2 = 2 (37116 of them n = p),
    #   and on p and 2p for 2000 random primes near 10^9 to 10^18.
    small = [p for p in arith.base_primes(2 * 10**5) if p % 8 == 1]
    assert len(small) == 4466
    rng = random.Random(37)
    primes = small + [p for x in (10**9, 10**12, 10**15, 10**18, 10**24) for p in _primes_1_mod_8_near(x, rng, 100)]
    for p in primes:
        odd, even = classify(p), classify(2 * p)
        assert odd.s2 == even.s2 == 2, p
        assert (even.verdict == VerdictKind.NON_CONGRUENT_SHA22) == (p % 16 == 9), p
        quartic = pow(2, (p - 1) // 4, p)
        sign = 1 if (p - 1) // 8 % 2 == 0 else p - 1
        assert (odd.verdict == VerdictKind.NON_CONGRUENT_SHA22) == (quartic != sign), p


@pytest.mark.parametrize("n", [161, 322])
def test_failed_4rank_gate_is_an_error(monkeypatch, capsys, n):
    # For eligible n, s2 = 2 forces h4(-n') = 1 (and h4(n) = 0 for odd n),
    # so a wrong 4-rank is a bug to report, not a CriterionFails verdict.
    # An empty memo: a shape classified earlier would never call h4.
    monkeypatch.setattr(criteria, "_SHAPES", {})
    real = matrices.SymbolTable.h4

    def wrong(table, m):
        return real(table, m) + (m == -161)

    monkeypatch.setattr(matrices.SymbolTable, "h4", wrong)
    with pytest.raises(VerificationFailed, match=f"s2 = 2 but h4 = .* for n = {n}"):
        classify(n)
    assert cli.main(["classify", str(n)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert json.loads(err) == {"error": f"s2 = 2 but h4 = (2, {0 if n % 2 else None}) for n = {n}"}


def _eligible_tables(k):
    """(A, D_(-1)) of every symbol table of k primes +-1 mod 8 with product
    1 mod 8: A's upper triangle is free, its lower triangle follows by
    reciprocity, D_(-1) has even weight (the primes 7 mod 8) and D_2 = 0."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for minus_one in range(1 << k):
        if minus_one.bit_count() % 2:
            continue
        for upper in range(1 << len(pairs)):
            rows = [0] * k
            for b, (i, j) in enumerate(pairs):
                s = upper >> b & 1
                rows[i] |= s << j
                rows[j] |= (s ^ (minus_one >> i & minus_one >> j & 1)) << i
            yield tuple(r | (r.bit_count() & 1) << i for i, r in enumerate(rows)), minus_one


def test_every_table_shape_passes_the_4rank_gate():
    # The F2 fields of classify read only (parity, A, D_(-1)) past the gate,
    # so these tables cover every eligible n with k <= 5.  The stand-in
    # primes (all 1 mod 8) give each table its k, parity and n' = 1 mod 8.
    counts = {}
    for k in range(1, 6):
        primes = (17, 41, 73, 89, 97)[:k]
        odd = SquareFreeN.from_primes(prod(primes), primes)
        even = SquareFreeN.from_primes(2 * odd.n, primes)
        for a, minus_one in _eligible_tables(k):
            tables = [matrices.SymbolTable(sf, a, minus_one, 0) for sf in (odd, even)]
            s2 = tables[0].s2()
            assert tables[1].s2() == s2, (a, minus_one)
            if s2 == 2:
                for table in tables:
                    sf = table.sf
                    assert table.h4(-sf.odd_part) == 1, (sf.n, a, minus_one)
                    assert sf.is_even or table.h4(sf.n) == 0, (a, minus_one)
                    assert len(table.divisor_kernel()) == 2, (sf.n, a, minus_one)
            counts[k, s2] = counts.get((k, s2), 0) + 1
    # the counts of s2 = 2, 4, ... for each k
    assert {k: [counts[k, s] for s in range(2, 2 * k + 1, 2)] for k in range(1, 6)} == {
        1: [1],
        2: [3, 1],
        3: [22, 9, 1],
        4: [332, 160, 19, 1],
        5: [10288, 5380, 680, 35, 1],
    }
    assert sum(counts.values()) == 1 + 4 + 32 + 512 + 16384


def test_selmer_oracle_agrees_on_a_witness_of_every_memo_key():
    # The least n of each memo key (parity, A, D_(-1)) with k <= 4, from the
    # primes +-1 mod 8 below 400: every one of the 1098 keys has one, the
    # even witnesses are twice the odd ones, and at each the descent oracle
    # finds the Monsky kernel, at k = 4 and at primes CI's pins never reach.
    from noncongruent.oracles import selmer_oracle

    primes = [p for p in arith.base_primes(400) if p % 8 in (1, 7)]
    least = {}
    for k in range(1, 5):
        for ps in combinations(primes, k):
            odd = prod(ps)
            for n in (odd, 2 * odd):
                if n % 8 in (1, 2):
                    sf = SquareFreeN.from_primes(n, ps)
                    table = matrices.symbol_table(sf)
                    key = (sf.is_even, table.a, table.minus_one)
                    least[key] = min(least.get(key, sf), sf)
    assert len(least) == 1098 and max(least.values()).n == 752556722
    for sf in least.values():
        assert selmer_oracle(sf) == matrices.selmer_elements(sf), sf.n


def test_distinguished_divisor_is_unique_brute_force():
    # for 161, check d = 23 is the only nontrivial divisor with all symbols +1
    sf = factor_squarefree(161)
    good = [
        d
        for d in (7, 23, 161)
        if all(hilbert(d, 161, v) == 1 for v in (None, 2, 7, 23))
    ]
    assert good == [23]


def test_thm_main1_examples():
    v = classify(factor_squarefree(17))
    assert v.verdict == VerdictKind.NON_CONGRUENT_SHA22
    assert (v.h4_minus, v.h4_plus, v.d, v.mu, v.pairing_symbol) == (1, 0, 17, -3, -1)
    assert classify(factor_squarefree(161)).verdict == VerdictKind.CRITERION_FAILS
    assert classify(factor_squarefree(15)).verdict == VerdictKind.NOT_ELIGIBLE


def test_thm_main2_examples():
    assert classify(factor_squarefree(34)).verdict == VerdictKind.CRITERION_FAILS
    v = classify(factor_squarefree(322))
    assert v.verdict == VerdictKind.NON_CONGRUENT_SHA22
    assert (v.h4_minus, v.d, v.pairing_symbol) == (1, -7, -1)  # h4(-161) = 1 and ((2-sqrt(2))/7) = -1


def test_classify_examples():
    assert classify(17).verdict == VerdictKind.NON_CONGRUENT_SHA22
    assert classify(34).verdict == VerdictKind.CRITERION_FAILS
    assert classify(15).verdict == VerdictKind.NOT_ELIGIBLE
    assert classify(1).verdict == VerdictKind.S2_NOT_TWO
    assert classify(2).verdict == VerdictKind.S2_NOT_TWO
    assert classify(45).verdict == VerdictKind.NOT_ELIGIBLE  # not square-free


@pytest.mark.parametrize(
    "n, member",
    [
        (17, VerdictKind.NON_CONGRUENT_SHA22),
        (34, VerdictKind.CRITERION_FAILS),
        (1513, VerdictKind.S2_NOT_TWO),
        (15, VerdictKind.NOT_ELIGIBLE),
    ],
)
def test_verdict_is_the_member_everywhere(capsys, n, member):
    v = classify(n)
    assert v.verdict is member
    assert v.to_dict()["verdict"] == member.value
    assert cli.main(["scan", str(n), str(n), "--csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split(",")[header.split(",").index("verdict")] == member.value
    # corollaries sweeps the strictly eligible n (every prime 1 mod 8), so not 15
    details = {case: detail for case, _, detail in verify.SUITES["corollaries"][0](n)}
    if n == 15:
        assert n not in details
    else:
        assert details[n]["verdict"] == member.value


def test_classify_trace_and_fields():
    v = classify(17)
    assert v.s2 == 2 and v.h4_minus == 1 and v.h4_plus == 0
    assert v.d == 17 and v.mu == -3 and v.pairing_symbol == -1
    fields = [f for f, _ in v.trace]
    assert "s2" in fields and "pairing_symbol" in fields
    out = v.to_dict()
    assert out["verdict"] == "NonCongruentSha22"


def test_verdicts_refuse_edits():
    # A verdict is an immutable record whose trace is its exit's shared
    # constant, so no caller's edit can reach a later verdict.
    first, other = classify(17), classify(41).to_dict()
    want = first.to_dict()
    with pytest.raises(AttributeError):
        first.trace.append(("s2", "tampered"))
    with pytest.raises(TypeError):
        first.trace[0] = ("n", "tampered")
    with pytest.raises(AttributeError):
        first.d = 1
    assert classify(17).to_dict() == want and classify(41).to_dict() == other
    assert classify(17) == first != classify(41)
    assert list(want) == ["n", "verdict", "s2", "h4_minus", "h4_plus", "d", "mu", "pairing_symbol", "trace"]
    for n in (12, 15, 1, 1513, 34, 17):  # one n for each exit path
        assert classify(n).trace is classify(n).trace


def test_classify_never_marks_sha_without_symbol():
    for n in range(1, 800):
        v = classify(n)
        if v.verdict == VerdictKind.NON_CONGRUENT_SHA22:
            assert v.s2 == 2 and v.pairing_symbol == -1
            assert v.d is not None and v.d != 1


def _route(monkeypatch, real, replacement):
    """Replace ``real`` in every namespace of the package that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "noncongruent" or name.startswith("noncongruent."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)


def _count_factorize(monkeypatch):
    """Route arith.factorize, in every namespace that holds it, through a counter."""
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    _route(monkeypatch, real, counting)
    return calls


def test_even_rows_take_no_square_root_of_2(monkeypatch):
    # The even symbol is a congruence mod 16, so classify of an even n never
    # reaches reps.sqrt2_mod: no prime element, no z2_jacobi.
    calls = []
    real = reps.sqrt2_mod

    def counting(p):
        calls.append(p)
        return real(p)

    _route(monkeypatch, real, counting)
    rows = 0
    for n, sf in squarefree_upto(2 * 10**4, _EVEN_ELIGIBLE):
        rows += classify(sf).pairing_symbol is not None
    assert (calls, rows) == ([], 422)
    # the counter sees the calls that z2_jacobi makes
    reps.z2_jacobi(2, -1, (7, 23))
    assert calls == [7, 23]


@pytest.mark.parametrize("n", [2446197334673, 2213746])  # 1375951 * 1777823, 2 * 1009 * 1097
def test_classify_factors_once(monkeypatch, n):
    calls = _count_factorize(monkeypatch)
    assert classify(n).s2 == 2
    assert calls == [n]


def test_classify_takes_a_factored_n():
    for n in (17, 34, 161, 322, 2213746):
        assert classify(factor_squarefree(n)) == classify(n)


def test_scan_block_never_factorizes(monkeypatch):
    calls = _count_factorize(monkeypatch)
    text = cli._scan_block((99329, 100353, arith.ELIGIBLE, False, True))
    assert text and calls == []


def test_selmer_oracle_sweep_never_factorizes(monkeypatch):
    # The sieve hands each n factored; divisors and square-free parts come from its primes.
    calls = _count_factorize(monkeypatch)
    report = verify.run("selmer-oracle", 300)
    assert report["passed"] > 0 and report["failed"] == 0
    assert calls == []


def test_classify_shares_its_eliminations(monkeypatch):
    # A memo miss ranks the Monsky matrix (2k columns), the Redei matrix of
    # -n' (k + 1, since -n' = 3 mod 4) and, for odd n, that of n (k, since
    # n = 1 mod 8), and lists one kernel, the divisor kernel; a second
    # classify of the same n reads the memo and eliminates nothing.
    monkeypatch.setattr(criteria, "_SHAPES", {})
    calls = _counting_eliminations(monkeypatch)
    for n in (17, 161, 2446197334673, 34, 322, 2213746):
        criteria._SHAPES.clear()
        calls.clear()
        assert classify(n).s2 == 2
        k = factor_squarefree(n).k
        redei = [("rank", k + 1)] + [("rank", k)] * (n % 2)
        assert calls == [("rank", 2 * k), *redei, ("kernel", k)], n
        calls.clear()
        assert classify(n).s2 == 2
        assert calls == [], n


def _routes_agree(sf):
    """For an n that classify takes (so D_2 = 0): its s2, h4 and d against
    the generic eliminations of their matrices."""
    table = matrices.symbol_table(sf)
    k, odd = sf.k, sf.odd_part
    kernel = f2linalg.kernel(table.divisor_matrix(), k)
    assert table.divisor_kernel() == kernel
    assert table.h4(-odd) == matrices.h4(-odd)
    if not sf.is_even:
        assert table.h4(sf.n) == matrices.h4(sf.n)
        # diag(A, A + D_(-1))
        assert table.monsky_matrix() == table.a + tuple(r << k for r in table.divisor_matrix())
    v = classify(sf)
    assert v.s2 == 2 * k - f2linalg.rank(table.monsky_matrix(), 2 * k)
    if v.h4_minus is not None:
        assert v.h4_minus == matrices.h4(-odd)
    if v.h4_plus is not None:
        assert v.h4_plus == matrices.h4(sf.n)
    if v.d is not None:
        assert abs(v.d) == matrices.psi(kernel[1], sf.primes)


def _classified(sf):
    return sf.k >= 1 and sf.eligibility and sf.n % 8 in (1, 2)


def test_classify_routes_agree_exhaustively(monkeypatch):
    # From an empty memo: a row misses when it adds a shape or has k > 4,
    # and every row's fields, hit or miss, agree with the generic routes.
    monkeypatch.setattr(criteria, "_SHAPES", {})
    seen = misses = 0
    for _, sf in squarefree_upto(200000, arith.ELIGIBLE):
        if _classified(sf):
            shapes = len(criteria._SHAPES)
            _routes_agree(sf)
            seen += 1
            misses += len(criteria._SHAPES) > shapes or sf.k > 4
    assert seen > 10000 and misses <= seen // 100


def _counting_eliminations(monkeypatch):
    """Route f2linalg's rank and kernel through a log of (name, ncols)."""
    calls = []
    for name in ("rank", "kernel"):
        real = getattr(f2linalg, name)

        def counting(rows, ncols, _real=real, _name=name):
            calls.append((_name, ncols))
            return _real(rows, ncols)

        _route(monkeypatch, real, counting)
    return calls


@pytest.mark.parametrize("first, second", [(161, 497), (322, 994)])  # 7 * 23, 7 * 71 (times 2)
def test_a_shape_is_eliminated_once(monkeypatch, first, second):
    monkeypatch.setattr(criteria, "_SHAPES", {})
    calls = _counting_eliminations(monkeypatch)
    assert classify(first).s2 == 2 and calls
    calls.clear()
    v = classify(second)
    assert calls == [] and v.s2 == 2
    assert len(criteria._SHAPES) == 1
    monkeypatch.setattr(criteria, "_SHAPES", {})
    assert classify(second) == v
    _routes_agree(factor_squarefree(second))


def _memo_is_bounded():
    assert all(len(a) <= 4 for _, a, _ in criteria._SHAPES)
    assert len(criteria._SHAPES) <= 2 * (1 + 4 + 32 + 512)


def test_memo_keeps_no_shape_past_four_primes():
    # The window below scan's cap holds k = 4 and k = 5 rows.
    ks = []
    for _, sf in arith.squarefree_block(99800001, 100000001, arith.ELIGIBLE):
        if sf.k >= 4:
            ks.append(sf.k)
            _routes_agree(sf)
    assert (ks.count(4), ks.count(5), len(ks)) == (119, 4, 123)
    _memo_is_bounded()


@st.composite
def eligible_products(draw, fewest=1):
    """Square-free n = n' or 2n' with n' = 1 mod 8 a product of 1-8 primes
    (at least ``fewest``) +-1 mod 8, each the next such prime after a draw
    up to 10^(12/k)."""
    k = draw(st.integers(fewest, 8))
    primes = [1]
    for q in sorted(draw(st.lists(st.integers(7, round(10 ** (12 / k))), min_size=k, max_size=k))):
        q = max(q, primes[-1] + 1)
        while not (q % 8 in (1, 7) and is_prime(q)):
            q += 1
        primes.append(q)
    odd = prod(primes)
    assume(odd % 8 == 1)
    return SquareFreeN.from_primes(odd * draw(st.sampled_from((1, 2))), tuple(primes[1:]))


@settings(max_examples=80, deadline=None)
@given(eligible_products())
def test_classify_routes_agree_on_products(sf):
    assert _classified(sf)
    _routes_agree(sf)


@settings(max_examples=40, deadline=None)
@given(eligible_products(fewest=5))
def test_memo_stays_bounded_on_products(sf):
    _routes_agree(sf)
    _memo_is_bounded()
