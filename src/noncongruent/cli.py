"""Command-line surface: classify, scan, verify, tame, classgroup.

All output is exact-integer JSON (one object per line for scans) or the CSV
projection of the same fields.  Scans are deterministic: the range is cut
into 1024-blocks, workers classify blocks independently, and rows are merged
back in order.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import asdict
from math import isqrt

from . import cassels, criteria, matrices, oracles, tame
from .arith import SquareFreeN, factor_squarefree, squarefree_part
from .criteria import VerdictKind
from .errors import NoncongruentError

_BLOCK = 1024

CSV_COLUMNS = [
    "n",
    "eligible",
    "strict",
    "s2",
    "h4_minus",
    "h4_plus",
    "d",
    "mu",
    "symbol",
    "verdict",
    "h4_agree",
]


def _scan_row(sf: SquareFreeN, with_oracle: bool) -> dict:
    n = sf.n
    v = criteria.classify(sf)
    row = {
        "n": n,
        "eligible": sf.eligibility and n % 8 in (1, 2),
        "strict": sf.strict_eligibility and n % 8 in (1, 2),
        "s2": v.s2,
        "h4_minus": v.h4_minus,
        "h4_plus": v.h4_plus,
        "d": v.d,
        "mu": v.mu,
        "symbol": v.pairing_symbol,
        "verdict": v.verdict.value,
        "h4_agree": None,
    }
    if with_oracle and sf.k >= 1:
        m = -n if n % 2 == 1 else -(n // 2)
        row["h4_agree"] = matrices.h4(m, sf.primes) == oracles.h4_oracle(m)
    return row


def _squarefree_block(lo: int, hi: int):
    """(n, SquareFreeN) for each square-free n in [lo, hi), by a segmented
    sieve: each prime p <= sqrt(hi) is divided out of its multiples (twice
    means a square), and what is left above 1 is one prime > sqrt(hi)."""
    bound = isqrt(hi - 1)
    is_p = bytearray([1]) * (bound + 1)
    rem = list(range(lo, hi))
    primes: list[list[int] | None] = [[] for _ in rem]
    for p in range(2, bound + 1):
        if not is_p[p]:
            continue
        is_p[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
        for i in range(-lo % p, len(rem), p):
            if primes[i] is not None:
                rem[i] //= p
                if rem[i] % p == 0:
                    primes[i] = None
                elif p != 2:
                    primes[i].append(p)
    for n, r, ps in zip(range(lo, hi), rem, primes):
        if ps is not None:
            yield n, factor_squarefree(n, (*ps, r) if r > 2 else tuple(ps))


def _scan_block(args: tuple[int, int, dict]) -> list[dict]:
    lo, hi, opts = args
    rows = []
    for n, sf in _squarefree_block(lo, hi):
        if opts["parity"] != "all" and (n % 2 == 0) != (opts["parity"] == "even"):
            continue
        if opts["filter"] != "all" and not (
            n % 8 in (1, 2)
            and sf.k >= 1
            and (sf.eligibility if opts["filter"] == "eligible" else sf.strict_eligibility)
        ):
            continue
        rows.append(_scan_row(sf, opts["oracle"]))
    return rows


def _emit_rows(rows, fmt: str, out) -> None:
    for row in rows:
        if fmt == "csv":
            out.write(",".join("" if row[c] is None else str(row[c]) for c in CSV_COLUMNS))
            out.write("\n")
        else:
            out.write(json.dumps(row, separators=(",", ":")))
            out.write("\n")


def cmd_classify(args) -> int:
    try:
        v = criteria.classify(args.n)
    except NoncongruentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    print(json.dumps(v.to_dict(), separators=(",", ":")))
    return {
        VerdictKind.NON_CONGRUENT_SHA22: 0,
        VerdictKind.CRITERION_FAILS: 1,
        VerdictKind.S2_NOT_TWO: 2,
        VerdictKind.NOT_ELIGIBLE: 2,
    }[v.verdict]


def cmd_scan(args) -> int:
    if not 1 <= args.min <= args.max <= 10**8:
        print("scan range must satisfy 1 <= min <= max <= 10^8", file=sys.stderr)
        return 3
    lo = max(args.min, args.start or args.min)
    opts = {
        "parity": "odd" if args.odd else "even" if args.even else "all",
        "filter": "strict" if args.strict else "eligible" if args.eligible else "all",
        "oracle": args.oracle,
    }
    fmt = "csv" if args.csv else "json"
    if fmt == "csv":
        sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
    blocks = [
        (b, min(b + _BLOCK, args.max + 1), opts)
        for b in range(lo, args.max + 1, _BLOCK)
    ]
    jobs = int(os.environ.get("NONCONGRUENT_JOBS", args.jobs))
    if jobs > 1 and len(blocks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            for rows in pool.imap(_scan_block, blocks):
                _emit_rows(rows, fmt, sys.stdout)
    else:
        for block in blocks:
            _emit_rows(_scan_block(block), fmt, sys.stdout)
    return 0


def cmd_tame(args) -> int:
    try:
        report = tame.tame_report(args.m)
    except NoncongruentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    out = asdict(report)
    out["v1"] = sorted(out["v1"])
    out["v2"] = sorted(out["v2"])
    print(json.dumps(out, separators=(",", ":")))
    return 0


def cmd_classgroup(args) -> int:
    try:
        report = oracles.class_group(args.disc)
    except NoncongruentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    out = asdict(report)
    out["invariant_factors"] = list(report.invariant_factors)
    print(json.dumps(out, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _squarefree_range(bound: int):
    for lo in range(1, bound + 1, _BLOCK):
        yield from _squarefree_block(lo, min(lo + _BLOCK, bound + 1))


def _suite_selmer_oracle(bound: int):
    for n, sf in _squarefree_range(min(bound, 500)):
        if sf.k == 0:
            continue
        got = oracles.selmer_oracle(sf)
        want = matrices.selmer_elements(sf)
        yield n, got == want, {"oracle": sorted(map(str, got)), "kernel": sorted(map(str, want))}


def _suite_class_oracle(bound: int):
    for n, _ in _squarefree_range(bound):
        if n == 1:
            continue
        for m in (n, -n):
            if abs(matrices.field_discriminant(m)) > 10**6:
                continue
            yield m, matrices.h4(m) == oracles.h4_oracle(m), {
                "redei": matrices.h4(m),
                "oracle": oracles.h4_oracle(m),
            }


def _suite_pairing_product(bound: int):
    for n, sf in _squarefree_range(bound):
        v = criteria.classify(sf)
        if v.s2 != 2:
            continue
        closed = cassels.closed_form_pairing(sf, v.d, v.mu)
        product = cassels.pairing_product(sf)
        _, nondeg = cassels.pairing_matrix(sf)
        ok = product == closed and nondeg == (closed == -1)
        yield n, ok, {"closed": closed, "product": product}


def _suite_lemma_2symbol(count: int):
    from .cassels import two_symbol_check
    from .reps import fundamental_2mu2_tau2, linked_u2w, Rep2MuTau

    seen = 0
    n = 9
    while seen < count:
        n += 8
        if squarefree_part(n) != n:
            continue
        sf = factor_squarefree(n)
        if not sf.eligibility or sf.k == 0:
            continue
        seen += 1
        mu, tau_ = fundamental_2mu2_tau2(n)
        rep = Rep2MuTau(mu, tau_, n)
        u = linked_u2w(rep).u
        lhs, rhs = two_symbol_check(n, u, mu)
        yield n, lhs[0] == rhs and lhs[1] == rhs, {"lhs": lhs, "rhs": rhs}


def _suite_proposition(bound: int):
    qualifying = 0
    for n, sf in _squarefree_range(bound):
        if sf.is_even or not sf.strict_eligibility or sf.k == 0:
            continue
        h4m = matrices.h4(-n, sf.primes)
        # The stated precondition h4(-n) = 0 never holds in this family
        # (h4(-n) >= 1 whenever all factors are 1 mod 8); assert that, and
        # evaluate the eight-way equivalence on any n that would qualify.
        if h4m < 1:
            qualifying += 1
            booleans = criteria.proposition_conditions(sf)
            vals = set(booleans.values())
            yield n, len(vals) == 1, booleans
    yield ("qualifying-count", qualifying), True, {"qualifying": qualifying}


def _suite_corollaries(bound: int):
    for n, sf in _squarefree_range(bound):
        if sf.k == 0 or not sf.strict_eligibility or n % 8 not in (1, 2):
            continue
        v = criteria.classify(sf)
        m = n if n % 2 == 1 else -n
        r4 = tame.r4_tame(m)
        ok = (v.verdict == VerdictKind.NON_CONGRUENT_SHA22) == (r4 == 0)
        yield n, ok, {"verdict": v.verdict.value, "r4_tame": r4}


def _suite_pell_orbit(bound: int):
    from .reps import orbit_step_2mu2, rep_2mu2_tau2
    from .arith import jacobi

    for n, sf in _squarefree_range(bound):
        if n % 8 != 1 or not sf.eligibility or sf.k == 0 or matrices.s2(sf) != 2:
            continue
        d = criteria.distinguished_divisor(sf)
        rep = rep_2mu2_tau2(n, d, sf.primes)
        base = jacobi(-rep.mu, d)
        mu, tau = rep.mu, rep.tau
        ok = True
        symbols = [base]
        for _ in range(3):
            mu, tau = orbit_step_2mu2(mu, tau)
            mu_n = mu if (mu - d) % 4 == 0 else -mu
            symbols.append(jacobi(-mu_n, d))
            ok = ok and symbols[-1] == base
        yield n, ok, {"symbols": symbols}


_SUITES = {
    "selmer-oracle": _suite_selmer_oracle,
    "class-oracle": _suite_class_oracle,
    "pairing-product": _suite_pairing_product,
    "lemma-2symbol": _suite_lemma_2symbol,
    "proposition": _suite_proposition,
    "corollaries": _suite_corollaries,
    "pell-orbit": _suite_pell_orbit,
}


def cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    passed = failed = 0
    first_bad = None
    for key, ok, detail in suite(args.bound):
        if ok:
            passed += 1
        else:
            failed += 1
            if first_bad is None:
                first_bad = {"case": key if not isinstance(key, tuple) else list(key), "detail": detail}
    report = {"suite": args.suite, "bound": args.bound, "passed": passed, "failed": failed}
    if first_bad is not None:
        report["first_counterexample"] = first_bad
    print(json.dumps(report, separators=(",", ":"), default=str))
    return 0 if failed == 0 else 4


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 3 for parse errors (2 is a verdict code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noncongruent",
        description="Non-congruent number criteria and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a single n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true", help="JSON output (always on)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="scan a range of n")
    p.add_argument("min", type=int)
    p.add_argument("max", type=int)
    parity = p.add_mutually_exclusive_group()
    parity.add_argument("--odd", action="store_true")
    parity.add_argument("--even", action="store_true")
    elig = p.add_mutually_exclusive_group()
    elig.add_argument("--eligible", action="store_true")
    elig.add_argument("--strict", action="store_true")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--oracle", action="store_true", help="add class-group oracle agreement flags")
    p.add_argument("--from", dest="start", type=int, default=None, help="resume from this n")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("bound", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tame", help="tame kernel 2- and 4-rank report")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("classgroup", help="narrow class group report")
    p.add_argument("disc", type=int)
    p.set_defaults(func=cmd_classgroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())
