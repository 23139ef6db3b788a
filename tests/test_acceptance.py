"""Acceptance suite: every criterion runs at its stated bound and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
All checks are exact equalities over the integers; there are no numeric
tolerances anywhere.  Criteria with a ``noncongruent verify`` suite run that
suite at the README bound and pin how many cases it checked.
"""

from noncongruent import cassels, criteria, matrices, oracles, tame, verify
from noncongruent.arith import factor_squarefree, hilbert, squarefree_upto
from noncongruent.criteria import VerdictKind


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_rank_bridge_odd():
    checked = 0
    for n, sf in squarefree_upto(50000):
        if n % 8 != 1 or sf.k == 0 or not sf.eligibility:
            continue
        checked += 1
        lhs = matrices.s2(sf) == 2
        rhs = matrices.h4(-n) == 1 and matrices.h4(n) == 0
        assert lhs == rhs, n
    _report("criterion 1: odd rank bridge s2=2 <=> (h4(-n),h4(n))=(1,0)", True, f"{checked} n")


def test_criterion_2_rank_bridge_even():
    checked = 0
    for n, sf in squarefree_upto(50000):
        if n % 8 != 2 or sf.k == 0 or not sf.eligibility:
            continue
        checked += 1
        lhs = matrices.s2(sf) == 2
        rhs = matrices.h4(-n // 2) == 1
        assert lhs == rhs, n
    _report("criterion 2: even rank bridge s2=2 <=> h4(-n/2)=1", True, f"{checked} n")


def _sweep(suite: str, bound: int, cases: int, name: str) -> None:
    """Run a verify suite at its README bound; it must pass the pinned number of cases."""
    report = verify.run(suite, bound)
    assert report["failed"] == 0, report
    assert report["passed"] == cases, report
    _report(name, True, f"{cases} cases")


def test_criterion_3_h4_oracle_agreement():
    _sweep("class-oracle", 3000, 3646, "criterion 3: Redei h4 = class-group oracle h4")


def test_criterion_4_selmer_anti_circularity():
    _sweep("selmer-oracle", 2000, 1213, "criterion 4: local-solvability oracle = Monsky kernel")


def test_criterion_5_pairing_product():
    _sweep("pairing-product", 2000, 138, "criterion 5: local pairing product = closed form")


def test_criterion_6_lemma_2symbol():
    _sweep("lemma-2symbol", 500, 500, "criterion 6: (-u +- sqrt(n), -1)_2 = (-mu, -1)_2 at 2^12")


def test_criterion_7_corollary_dual_route():
    _sweep("corollaries", 50000, 2255, "criterion 7: classify route <=> tame-kernel r4 route")


def test_criterion_8_proposition_eight_way():
    # The stated precondition h4(-n) = 0 is unsatisfiable here, so the suite
    # checks h4(-n) >= 1 and the sub-equivalences that hold without it.
    _sweep(
        "proposition",
        100000,
        2852,
        "criterion 8: h4(-n) >= 1, (i) <=> (ii) <=> (iv) and (vi) <=> (viii)",
    )


def test_criterion_8_proposition_checks_b(monkeypatch):
    # b from the window scan is compared, not only read: a window that
    # answers b + 1 flips (i) against (ii) and (iv).
    window = oracles.window_a2_8b2

    def off_by_one(n):
        a, b, n = window(n)
        return a, b + 1, n

    monkeypatch.setattr(oracles, "window_a2_8b2", off_by_one)
    report = verify.run("proposition", 2000)
    assert report["failed"] > 0
    assert "b_even" in report["first_counterexample"]["detail"]


def test_criterion_9_pinned_values():
    assert criteria.classify(17).verdict == VerdictKind.NON_CONGRUENT_SHA22
    # second route: strict corollary via the tame kernel
    assert tame.r4_tame(17) == 0

    # r4 values double-checked against the literal divisor-condition route
    for m in (17, -34):
        report = tame.tame_report(m)
        assert (report.v1, report.v2) == tame.v_sets_direct(m)
    assert tame.r4_tame(-34) == 1

    # h4(-17) by Redei rank and by form-class-group composition
    assert matrices.h4(-17) == 1 == oracles.h4_oracle(-17)

    # d(161) from the kernel and by brute-force Hilbert conditions
    sf161 = factor_squarefree(161)
    assert criteria.distinguished_divisor(sf161) == 23
    brute = [
        d for d in (7, 23, 161) if all(hilbert(d, 161, v) == 1 for v in (None, 2, 7, 23))
    ]
    assert brute == [23]

    # closed-form pairing of 34 and its local-product double check
    sf34 = factor_squarefree(34)
    assert cassels.closed_form_pairing(sf34, 17, None) == 1
    assert cassels.pairing_product(sf34) == 1
    _report("criterion 9: pinned values, each by two routes", True)


def test_criterion_10_pell_orbit_invariance():
    _sweep("pell-orbit", 10000, 422, "criterion 10: (-mu/d) invariant along the unit orbit")


def test_noncongruent_verdicts_have_no_small_points():
    # classify = NonCongruentSha22 implies rank 0, so bounded point search
    # must come back empty; a found point would falsify the theorem chain.
    assert oracles.point_search(17, 10**4) == []
    for n in (73, 89, 97, 113, 322):
        if criteria.classify(n).verdict == VerdictKind.NON_CONGRUENT_SHA22:
            assert oracles.point_search(n, 2000) == [], n
    _report("bonus: no rational points below height bound on classified curves", True)
