import pytest

from noncongruent.arith import factor_squarefree, is_norm, squarefree_part
from noncongruent.errors import OutOfRange
from noncongruent.tame import r2_tame, r4_tame, tame_report, v_sets, v_sets_direct


def test_r2_examples():
    assert r2_tame(17) == 3
    assert r2_tame(-34) == 1
    assert r2_tame(-17) == 1
    with pytest.raises(OutOfRange):
        r2_tame(2)


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
            assert r2_tame(m) == _r2_hilbert(m), m


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
    # F2-solve route vs literal per-divisor Hilbert checks, |m| <= 5000
    for a in range(3, 5001):
        if squarefree_part(a) != a:
            continue
        for m in (a, -a):
            assert v_sets(m) == v_sets_direct(m), m


def test_corollary_formula_equivalence_strict_odd():
    # r4 = 0 <=> rank(A) = k-1 and (mu/n) = -1, both sides independent
    from noncongruent import f2linalg
    from noncongruent.arith import factor_squarefree, jacobi
    from noncongruent.matrices import symbol_table
    from noncongruent.reps import fundamental_2mu2_tau2

    checked = 0
    for n in range(9, 20000, 8):
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if sf.k == 0 or not sf.strict_eligibility:
            continue
        checked += 1
        mu = fundamental_2mu2_tau2(n)[0]
        rhs = f2linalg.rank(symbol_table(sf).a_matrix()) == sf.k - 1 and jacobi(mu, n) == -1
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

    from noncongruent import arith, f2linalg, reps

    calls = {"factorize": [], "mu": [], "is_norm": [], "kernel": []}
    for name, real in (
        ("factorize", arith.factorize),
        ("mu", reps.fundamental_2mu2_tau2),
        ("is_norm", arith.is_norm),
        ("kernel", f2linalg.kernel),
    ):

        def counting(n, *args, _real=real, _name=name):
            calls[_name].append(n)
            return _real(n, *args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "noncongruent" or mod_name.startswith("noncongruent."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting)
    rep = tame_report(161)
    assert rep.mu_used == 9 and rep.r4 == 1
    assert calls["factorize"] == calls["mu"] == [161]
    assert calls["is_norm"] == [] and len(calls["kernel"]) == 1
