"""Verification suites: each formula swept against an independent route.

A suite maps a bound to a stream of (case, ok, detail) triples; ``run``
counts them into the report that ``noncongruent verify`` prints and that
the acceptance tests assert on, so every sweep exists once.
"""

from __future__ import annotations

import itertools

from . import criteria, matrices
from .arith import BLOCK, ELIGIBLE, STRICT, jacobi, squarefree_block, squarefree_upto
from .criteria import VerdictKind
from .errors import OutOfRange, TooLarge
from .reps import _products, least_2mu2_tau2, orbit_step_2mu2, z2_jacobi

# Eligible n = 1 mod 8: the odd half of ``ELIGIBLE``.
_ODD_ELIGIBLE = ((1,), ELIGIBLE[1])


def _selmer_oracle(bound: int):
    from . import oracles

    # At n = 1 and 2, the only square-free n with no odd prime, the Monsky
    # matrix is 0 x 0 and both sides give {(1,1,1)}; a tier-1 test checks
    # them, and the sweep starts at 3 so that its pinned counts stand.
    for n, sf in squarefree_upto(bound, start=3):
        got = oracles.selmer_oracle(sf)
        want = matrices.selmer_elements(sf)
        yield n, got == want, {"oracle": sorted(map(str, got)), "kernel": sorted(map(str, want))}


def _class_oracle(bound: int):
    from . import oracles

    # m = 1 defines no quadratic field, so the sweep starts at n = 2; ``run``
    # takes no bound above 10^6, the cap on |disc|, so only 4n can pass it.
    for n, sf in squarefree_upto(bound, start=2):
        table = matrices.symbol_table(sf)
        for m in (n, -n):
            try:
                group = oracles.form_group(m)
            except TooLarge:
                continue  # |disc| = 4n is above the cap
            redei, oracle = table.h4(m), group.h4()
            composes = group.composes_distinct()
            ok = redei == oracle and composes
            yield m, ok, {"redei": redei, "oracle": oracle, "composes": composes}


def _pairing_product(bound: int):
    from . import cassels

    for n, sf in squarefree_upto(bound, ELIGIBLE):
        v = criteria.classify(sf)
        if v.d is None:
            continue
        product = cassels.pairing_product(sf)
        yield n, product == v.pairing_symbol, {"symbol": v.pairing_symbol, "product": product}


def _lemma_2symbol(count: int):
    """The first ``count`` square-free eligible n = 1 mod 8 with k >= 1:
    the sieve's eligible n = 1 mod 8 from 17 on, since 1 has no odd prime."""
    from . import cassels

    rows = itertools.chain.from_iterable(
        squarefree_block(lo, lo + BLOCK, _ODD_ELIGIBLE) for lo in itertools.count(17, BLOCK)
    )
    # islice refuses a negative count; run reports a sweep with no case.
    for n, sf in itertools.islice(rows, max(count, 0)):
        rep = least_2mu2_tau2(n, sf)
        lhs, rhs = cassels.two_symbol_check(n, rep.u, rep.mu)
        yield n, lhs == [rhs, rhs], {"lhs": lhs, "rhs": rhs}


def _proposition(bound: int):
    """The proposition's sub-equivalences that hold without its hypothesis.

    The stated precondition h4(-n) = 0 never holds when every prime is
    1 mod 8 (the Redei matrix of -n contains the row-sum-zero block A), so
    each case also checks h4(-n) >= 1.  The equivalences are
    (i) b even <=> (ii) ((1+sqrt 2)/n) = 1 <=> (iv) (sqrt 2/n) = (-1)^((n-1)/8)
    for n = a^2 + 8b^2, and (vi) |mu| = 1 mod 4 <=> (viii) (mu/n) = 1.
    b is read off the complete window scan ``oracles.window_a2_8b2``.
    """
    from . import oracles

    for n, sf in squarefree_upto(bound, ((1,), STRICT[1]), start=3):
        h4m = matrices.symbol_table(sf).h4(-n)
        mu = least_2mu2_tau2(n, sf).mu
        b = {
            "b_even": oracles.window_a2_8b2(n)[1] % 2 == 0,
            "one_plus_sqrt2": z2_jacobi(1, 1, sf.primes) == 1,
            "sqrt2_vs_n": z2_jacobi(0, 1, sf.primes) == (-1) ** ((n - 1) // 8),
            "mu_mod4": abs(mu) % 4 == 1,
            "mu_symbol": jacobi(mu, n) == 1,
        }
        ok = (
            h4m >= 1
            and b["b_even"] == b["one_plus_sqrt2"] == b["sqrt2_vs_n"]
            and b["mu_mod4"] == b["mu_symbol"]
        )
        yield n, ok, {"h4_minus": h4m, **b}


def _corollaries(bound: int):
    from . import tame

    for n, sf in squarefree_upto(bound, STRICT, start=3):
        v = criteria.classify(sf)
        r4 = tame.r4_tame(n if n % 2 == 1 else -n, sf)
        ok = (v.verdict == VerdictKind.NON_CONGRUENT_SHA22) == (r4 == 0)
        yield n, ok, {"verdict": v.verdict.value, "r4_tame": r4}


def _pell_orbit(bound: int):
    """Odd eligible n with s2 = 2: mu is the window scan's least |mu|, and each
    unit orbit (a product of ``_products`` of norm -n) gives the verdict's
    (-mu/d), mu = d mod 4, at three steps of 3 + 2*sqrt(2)."""
    from . import oracles

    for n, sf in squarefree_upto(bound, _ODD_ELIGIBLE):
        v = criteria.classify(sf)
        if v.d is None:
            continue
        d = v.d
        window_mu = oracles.window_2mu2_tau2(n)[0]
        symbols = [v.pairing_symbol]
        for tau, mu in _products(n, sf):
            for _ in range(3):
                mu, tau = orbit_step_2mu2(mu, tau)
                symbols.append(jacobi(-mu if (mu - d) % 4 == 0 else mu, d))
        ok = len(set(symbols)) == 1 and abs(v.mu) == window_mu
        yield n, ok, {"symbols": symbols, "mu": v.mu, "window_mu": window_mu}


# Each suite and the largest bound it takes (a count of n for lemma-2symbol).
SUITES = {
    "selmer-oracle": (_selmer_oracle, 10**5),
    "class-oracle": (_class_oracle, 10**6),
    "pairing-product": (_pairing_product, 10**5),
    "lemma-2symbol": (_lemma_2symbol, 10**4),
    "proposition": (_proposition, 10**6),
    "corollaries": (_corollaries, 10**6),
    "pell-orbit": (_pell_orbit, 10**6),
}


def run(suite: str, bound: int) -> dict:
    """Run one suite: pass and fail counts, plus the first failing case.

    A bound above the suite's maximum raises ``OutOfRange`` before the
    sweep starts.  A bound that leaves the suite no case raises it too: a
    report of no passes and no failures would check nothing.
    """
    sweep, most = SUITES[suite]
    if bound > most:
        raise OutOfRange(f"suite {suite} takes a bound of at most {most}, not {bound}")
    passed = failed = 0
    first_bad = None
    for case, ok, detail in sweep(bound):
        if ok:
            passed += 1
        else:
            failed += 1
            if first_bad is None:
                first_bad = {"case": case, "detail": detail}
    if passed + failed == 0:
        raise OutOfRange(f"suite {suite} has no case for bound {bound}")
    report = {"suite": suite, "bound": bound, "passed": passed, "failed": failed}
    if first_bad is not None:
        report["first_counterexample"] = first_bad
    return report
