import sys

import pytest

from noncongruent import arith, cli, matrices, verify
from noncongruent.arith import Place, REAL_PLACE, factor_squarefree, hilbert
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


def test_distinguished_divisor_is_unique_brute_force():
    # for 161, check d = 23 is the only nontrivial divisor with all symbols +1
    sf = factor_squarefree(161)
    places = [REAL_PLACE, Place(2), Place(7), Place(23)]
    good = [
        d
        for d in (7, 23, 161)
        if all(hilbert(d, 161, v) == 1 for v in places)
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


def test_classify_trace_and_fields():
    v = classify(17)
    assert v.s2 == 2 and v.h4_minus == 1 and v.h4_plus == 0
    assert v.d == 17 and v.mu == -3 and v.pairing_symbol == -1
    fields = [f for f, _ in v.trace]
    assert "s2" in fields and "pairing_symbol" in fields
    out = v.to_dict()
    assert out["verdict"] == "NonCongruentSha22"


def test_classify_never_marks_sha_without_symbol():
    for n in range(1, 800):
        v = classify(n)
        if v.verdict == VerdictKind.NON_CONGRUENT_SHA22:
            assert v.s2 == 2 and v.pairing_symbol == -1
            assert v.d is not None and v.d != 1


def _count_factorize(monkeypatch):
    """Route arith.factorize, in every namespace that holds it, through a counter."""
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name == "noncongruent" or name.startswith("noncongruent."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


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
    opts = {"parity": "all", "filter": "eligible", "oracle": False}
    rows = cli._scan_block((99329, 100353, opts))
    assert rows and calls == []


def test_selmer_oracle_sweep_never_factorizes(monkeypatch):
    # The sieve hands each n factored; divisors and square-free parts come from its primes.
    calls = _count_factorize(monkeypatch)
    report = verify.run("selmer-oracle", 300)
    assert report["passed"] > 0 and report["failed"] == 0
    assert calls == []
