import pytest

from noncongruent.arith import factor_squarefree, squarefree_part
from noncongruent.errors import OutOfRange
from noncongruent.oracles import is_norm
from noncongruent.tame import r4_tame, tame_report, v_sets_direct


def v_sets(m):
    report = tame_report(m)
    return report.v1, report.v2


def _r4_of(v1, v2, m):
    """r4 = log2(|V1| + |V2|) - 1 - [m < 0], from sets listed by any route."""
    return (len(v1) + len(v2)).bit_length() - 2 - (m < 0)


def test_r2_examples():
    assert tame_report(17).r2 == 3
    assert tame_report(-34).r2 == 1
    assert tame_report(-17).r2 == 1
    with pytest.raises(OutOfRange):
        tame_report(2)


def _r2_hilbert(m):
    """r2 by the Hilbert-symbol route: k plus log2 of the number of norms from
    Q(sqrt(m)) among +-1, +-2 (among 1, 2, less one, for m < 0)."""
    k = factor_squarefree(abs(m)).k
    norms = sum(1 for e in ((1, -1, 2, -2) if m > 0 else (1, 2)) if is_norm(e, m))
    return k - (m < 0) + norms.bit_length() - 1


def test_r2_matches_hilbert_route_sweep():
    for a in range(3, 5001):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            assert tame_report(m).r2 == _r2_hilbert(m), m


def test_v_sets_examples():
    v1, v2 = v_sets(17)
    assert v1 == {1, 17} and v2 == frozenset()
    v1, v2 = v_sets(-34)
    assert v1 == {1, 17, -1, -17} and v2 == {1, 17, -1, -17}
    v1, v2 = v_sets(-161)
    count = len(v1) + len(v2)
    assert count & (count - 1) == 0


def test_r4_examples():
    assert r4_tame(17) == 0
    assert r4_tame(-34) == 1
    assert r4_tame(161) == 1


def test_report_fields():
    rep = tame_report(-34)
    assert rep.r2 == 1 and rep.r4 == 1 and rep.mu_used == 1
    assert len(rep.v1) + len(rep.v2) == 8


def test_dual_route_agreement_sweep():
    # one augmented kernel, and r4_tame's ranks, vs literal per-divisor
    # Hilbert checks, which share no F2 code with either, |m| <= 5000
    for a in range(3, 5001):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            direct = v_sets_direct(m)
            assert v_sets(m) == direct, m
            assert r4_tame(m) == _r4_of(*direct, m), m


def test_dual_route_agreement_at_large_k():
    # |m| <= 5000 has k <= 4; here k runs 5..9, so [B | b_-1 | b_2 | b_mu]
    # has 8 to 12 columns
    import math
    import random

    odd_primes = [p for p in range(3, 400) if all(p % q for q in range(2, p))]
    plus_minus_one = [p for p in odd_primes if p % 8 in (1, 7)]
    rng = random.Random(18)
    with_v2 = 0
    for i in range(100):
        pool = plus_minus_one if i % 2 else odd_primes
        a = math.prod(rng.sample(pool, rng.randrange(5, 10)))
        if rng.random() < 0.3:
            a *= 2
        for m in (a, -a):
            v1, v2 = v_sets(m)
            assert (v1, v2) == v_sets_direct(m), m
            assert r4_tame(m) == _r4_of(v1, v2, m), m
            count = len(v1) + len(v2)
            assert count & (count - 1) == 0 and count >= (2 if m > 0 else 4), m
            with_v2 += bool(v2)
    assert with_v2 >= 50


def test_k8_reports():
    rep = tame_report(1694842751854)
    assert (rep.r2, rep.r4, rep.mu_used) == (9, 1, 920555)
    assert sorted(rep.v1) == [1, 847421375927] and sorted(rep.v2) == [860591, 984697]
    rep = tame_report(-847421375927)
    assert (rep.r2, rep.r4, rep.mu_used) == (8, 0, 257)
    assert sorted(rep.v1) == [-847421375927, 1] and sorted(rep.v2) == [-14185871, 59737]


def test_corollary_formula_equivalence_strict_odd():
    # r4 = 0 <=> rank(A) = k-1 and (mu/n) = -1, both sides independent
    from noncongruent import f2linalg
    from noncongruent.arith import factor_squarefree, jacobi
    from noncongruent.matrices import symbol_table
    from noncongruent.reps import least_2mu2_tau2

    checked = 0
    for n in range(9, 20000, 8):
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0 or not sf.strict_eligibility:
            continue
        checked += 1
        mu = least_2mu2_tau2(n).mu
        rhs = f2linalg.rank(symbol_table(sf).a, sf.k) == sf.k - 1 and jacobi(mu, n) == -1
        assert (r4_tame(n) == 0) == rhs, n
    assert checked > 50


def test_count_power_of_two_sweep():
    for a in range(3, 2000):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            v1, v2 = v_sets(m)
            count = len(v1) + len(v2)
            assert count & (count - 1) == 0
            assert count >= (2 if m > 0 else 4)
            assert r4_tame(m) >= 0


def test_tame_report_factors_once_and_solves_once(monkeypatch):
    import sys

    from noncongruent import arith, f2linalg, reps, tame

    calls = dict.fromkeys(("factorize", "mu", "is_norm", "kernel", "rank"), 0)
    for name, real in (
        ("factorize", arith.factorize),
        ("mu", reps.least_2mu2_tau2),
        ("is_norm", is_norm),
        ("kernel", f2linalg.kernel),
        ("rank", f2linalg.rank),
    ):

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "noncongruent" or mod_name.startswith("noncongruent."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting)
    # each reader factors once and solves for mu once, if 2 is a norm; the
    # sizes of V1 and V2 take the ranks of [B | b_-1 | b_2], [B | b_-1] and,
    # when mu exists, [B | b_-1 | b_mu]; r4_tame lists no kernel, tame_report one
    for m, mus in ((161, 1), (-161, 1), (-34, 1), (15, 0), (-105, 0)):
        for reader, kernels in ((tame.tame_report, 1), (tame.r4_tame, 0)):
            calls.update(dict.fromkeys(calls, 0))
            reader(m)
            expected = {"factorize": 1, "mu": mus, "is_norm": 0, "kernel": kernels, "rank": 2 + mus}
            assert calls == expected, (reader.__name__, m)
    rep = tame_report(161)
    assert rep.mu_used == 9 and rep.r4 == 1


def test_tame_report_takes_a_factored_m():
    # r4_tame of a handed-over record is r4_tame of m, and the report (which
    # factors |m| itself) agrees; a record of another |m| is refused, and
    # |m| <= 2 stays out of range
    for m in (161, -161, -34, 34, 1694842751854, -847421375927):
        sf = factor_squarefree(abs(m))
        assert r4_tame(m, sf) == r4_tame(m) == tame_report(m).r4, m
    with pytest.raises(ValueError):
        r4_tame(17, factor_squarefree(161))
    with pytest.raises(OutOfRange):
        r4_tame(-2, factor_squarefree(2))


def test_corollaries_factor_nothing_past_the_sieve(monkeypatch):
    # the suite hands the sieve's record to classify and r4_tame alike
    import sys

    from noncongruent import arith, verify

    calls = []
    real = arith.factorize
    for name, module in list(sys.modules.items()):
        if name == "noncongruent" or name.startswith("noncongruent."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, lambda n: calls.append(n) or real(n))
    report = verify.run("corollaries", 5000)
    assert report["failed"] == 0 and report["passed"] > 100
    assert calls == []
