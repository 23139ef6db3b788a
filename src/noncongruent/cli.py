"""Command-line surface: classify, scan, verify, tame, classgroup.

All output is exact-integer JSON (one object per line for scans) or the CSV
projection of the same fields.  Scans are deterministic: the range is cut
into blocks of ``arith.BLOCK``, each block (in a worker under --jobs) returns
its finished text, and the blocks are written back in order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import criteria, matrices, verify
from .arith import ANY, BLOCK, ELIGIBLE, STRICT, SquareFreeN, squarefree_block
from .criteria import VerdictKind
from .errors import NoncongruentError, OutOfRange, TooLarge

_NOT_ELIGIBLE = VerdictKind.NOT_ELIGIBLE  # a global: the enum's class lookup costs more per row

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


def _scan_row(sf: SquareFreeN, with_oracle: bool) -> tuple:
    """The scan row of ``sf``: its fields as a tuple in the order of
    ``CSV_COLUMNS``, ``h4_agree`` filled only ``with_oracle``."""
    v = criteria.classify(sf)
    eligible = v.verdict is not _NOT_ELIGIBLE
    agree = None
    if with_oracle and sf.k >= 1:
        from . import oracles

        # h4(-n) for odd n, h4(-n/2) for even n: classify's h4_minus where
        # it recorded one (every s2 = 2 row), else read off a new table.
        m = -sf.odd_part
        try:
            oracle = oracles.h4_oracle(m)
        except TooLarge:
            pass  # past the form class group's cap the field stays empty
        else:
            agree = oracle == (v.h4_minus if v.h4_minus is not None else matrices.symbol_table(sf).h4(m))
    # ``_value_`` is what ``.value`` returns, without its descriptor call.
    return (sf.n, eligible, eligible and sf.strict_eligibility, v.s2, v.h4_minus, v.h4_plus, v.d, v.mu,
            v.pairing_symbol, v.verdict._value_, agree)


def _scan_block(args: tuple) -> str:
    """The CSV or JSON lines of the n in [lo, hi) that pass the sieve's
    filter ``allowed``: the sieve drops every other n before building its
    record.  A CSV line joins the row's fields, None as empty; a JSON line
    pairs them with ``CSV_COLUMNS``."""
    lo, hi, allowed, with_oracle, csv = args
    rows = [_scan_row(sf, with_oracle) for _, sf in squarefree_block(lo, hi, allowed)]
    if csv:
        return "".join([",".join(["" if x is None else str(x) for x in row]) + "\n" for row in rows])
    return "".join([json.dumps(dict(zip(CSV_COLUMNS, row)), separators=(",", ":")) + "\n" for row in rows])


def cmd_classify(args) -> int:
    v = criteria.classify(args.n)
    print(json.dumps(v.to_dict(), separators=(",", ":")))
    return {
        VerdictKind.NON_CONGRUENT_SHA22: 0,
        VerdictKind.CRITERION_FAILS: 1,
        VerdictKind.S2_NOT_TWO: 2,
        VerdictKind.NOT_ELIGIBLE: 2,
    }[v.verdict]


def _worker_count(jobs: int) -> int:
    """Scan worker processes for --jobs, clamped to [1, cpu count]."""
    return max(1, min(jobs, os.cpu_count() or 1))


def cmd_scan(args) -> int:
    if not 1 <= args.min <= args.max <= 10**8:
        raise OutOfRange("scan range must satisfy 1 <= min <= max <= 10^8")
    jobs = _worker_count(args.jobs)
    # The sieve's filter: the residues mod 8 of n that --eligible / --strict
    # and --odd / --even keep, and those that each odd prime of n may take.
    filtered = args.eligible or args.strict
    residues, prime_residues = STRICT if args.strict else ELIGIBLE if filtered else ANY
    if args.odd or args.even:
        residues = tuple(r for r in residues if r % 2 == args.odd)
    # n = 1 and 2, the only square-free n with no odd prime, are no rows of
    # a filtered scan, so it starts at 3.
    lo = max(args.min, 3) if filtered else args.min
    if args.csv:
        sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
    blocks = [
        (b, min(b + BLOCK, args.max + 1), (residues, prime_residues), args.oracle, args.csv)
        for b in range(lo, args.max + 1, BLOCK)
    ]
    if jobs > 1 and len(blocks) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            sys.stdout.writelines(pool.imap(_scan_block, blocks))
    else:
        sys.stdout.writelines(map(_scan_block, blocks))
    return 0


def cmd_tame(args) -> int:
    from . import tame

    out = tame.tame_report(args.m)._asdict()
    out["v1"] = sorted(out["v1"])
    out["v2"] = sorted(out["v2"])
    print(json.dumps(out, separators=(",", ":")))
    return 0


def cmd_classgroup(args) -> int:
    from . import oracles

    print(json.dumps(oracles.class_group(args.disc)._asdict(), separators=(",", ":")))
    return 0


def cmd_verify(args) -> int:
    report = verify.run(args.suite, args.bound)
    print(json.dumps(report, separators=(",", ":")))
    return 0 if report["failed"] == 0 else 4


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
    p.add_argument("--csv", action="store_true", help="CSV rows instead of JSON lines")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--oracle", action="store_true", help="add class-group oracle agreement flags")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("bound", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tame", help="tame kernel 2- and 4-rank report")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("classgroup", help="narrow class group report")
    p.add_argument("disc", type=int)
    p.set_defaults(func=cmd_classgroup)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # One parser per process, built on first use: never at import.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except NoncongruentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())
