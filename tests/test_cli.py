import hashlib
import json
import os
import subprocess
import sys
from math import isqrt

import pytest

from noncongruent import arith, cli, criteria, matrices, verify
from noncongruent.cli import main

# SHA-256 of the CSV body (header excluded) of
# `noncongruent scan 1 100000 --eligible --csv`: the scan byte contract,
# the same digest the benchmark checks.
SCAN_DIGEST = "8ef720bdee9c2e421a9f3ec7d90179ad974f3ee5be7115ff43b8de2122a9c95d"

# classify JSON of s2 = 2 cases, odd and even, with negative mu and d, of
# n = 1 (s2 = 0 from its 0 x 0 Monsky matrix), of each early exit: not
# square-free, not eligible, and of an eligible n with s2 = 4.
PINNED_CLASSIFY = [
    '{"n":1,"verdict":"S2NotTwo","s2":0,"h4_minus":null,"h4_plus":null,"d":null,"mu":null,"pairing_symbol":null,"trace":[["s2","monsky_rank"]]}',
    '{"n":12,"verdict":"NotEligible","s2":null,"h4_minus":null,"h4_plus":null,"d":null,"mu":null,"pairing_symbol":null,"trace":[["n","not_squarefree"]]}',
    '{"n":15,"verdict":"NotEligible","s2":null,"h4_minus":null,"h4_plus":null,"d":null,"mu":null,"pairing_symbol":null,"trace":[["n","eligibility_sieve"]]}',
    '{"n":1513,"verdict":"S2NotTwo","s2":4,"h4_minus":null,"h4_plus":null,"d":null,"mu":null,"pairing_symbol":null,"trace":[["s2","monsky_rank"]]}',
    '{"n":17,"verdict":"NonCongruentSha22","s2":2,"h4_minus":1,"h4_plus":0,"d":17,"mu":-3,"pairing_symbol":-1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["h4_plus","redei_rank"],["d","kernel_psi"],["mu","z2_euclid"],["pairing_symbol","jacobi_closed_form"]]}',
    '{"n":34,"verdict":"CriterionFails","s2":2,"h4_minus":1,"h4_plus":null,"d":17,"mu":null,"pairing_symbol":1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["d","kernel_psi"],["pairing_symbol","quad_jacobi_closed_form"]]}',
    '{"n":161,"verdict":"CriterionFails","s2":2,"h4_minus":1,"h4_plus":0,"d":23,"mu":-9,"pairing_symbol":1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["h4_plus","redei_rank"],["d","kernel_psi"],["mu","z2_euclid"],["pairing_symbol","jacobi_closed_form"]]}',
    '{"n":322,"verdict":"NonCongruentSha22","s2":2,"h4_minus":1,"h4_plus":null,"d":-7,"mu":null,"pairing_symbol":-1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["d","kernel_psi"],["pairing_symbol","quad_jacobi_closed_form"]]}',
    '{"n":3281,"verdict":"CriterionFails","s2":2,"h4_minus":1,"h4_plus":0,"d":3281,"mu":41,"pairing_symbol":1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["h4_plus","redei_rank"],["d","kernel_psi"],["mu","z2_euclid"],["pairing_symbol","jacobi_closed_form"]]}',
    '{"n":3122,"verdict":"CriterionFails","s2":2,"h4_minus":1,"h4_plus":null,"d":-223,"mu":null,"pairing_symbol":1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["d","kernel_psi"],["pairing_symbol","quad_jacobi_closed_form"]]}',
    '{"n":2213746,"verdict":"NonCongruentSha22","s2":2,"h4_minus":1,"h4_plus":null,"d":1106873,"mu":null,"pairing_symbol":-1,"trace":[["s2","monsky_rank"],["h4_minus","redei_rank"],["d","kernel_psi"],["pairing_symbol","quad_jacobi_closed_form"]]}',
]

# SHA-256 of the classify JSON lines of n = 1..20000, each line ending in a newline.
CLASSIFY_DIGEST = "60a2da5808b11b099440e7930bf3c3ad6ab6a903399cbb09676b4a045ae112fa"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "noncongruent.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    return proc


def test_classify_exit_codes():
    assert run_cli("classify", 17).returncode == 0
    assert run_cli("classify", 34).returncode == 1
    assert run_cli("classify", 15).returncode == 2
    assert run_cli("classify", "garbage").returncode == 3


def test_classify_json_payload():
    proc = run_cli("classify", 17)
    row = json.loads(proc.stdout)
    assert row["verdict"] == "NonCongruentSha22"
    assert row["d"] == 17 and row["mu"] == -3 and row["pairing_symbol"] == -1


def test_scan_eligible_odd():
    proc = run_cli("scan", 1, 100, "--odd", "--eligible")
    ns = [json.loads(line)["n"] for line in proc.stdout.splitlines()]
    assert ns == [17, 41, 73, 89, 97]
    assert proc.returncode == 0


def test_scan_even_includes_two():
    proc = run_cli("scan", 1, 40, "--even")
    ns = [json.loads(line)["n"] for line in proc.stdout.splitlines()]
    assert ns[0] == 2 and 34 in ns
    assert all(n % 2 == 0 for n in ns)


def test_scan_range_preconditions():
    for lo, hi in ((10, 5), (0, 10), (1, 10**8 + 1)):
        proc = run_cli("scan", lo, hi)
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": "scan range must satisfy 1 <= min <= max <= 10^8"}


def test_parity_scan_builds_only_the_records_it_prints(monkeypatch, capsys):
    # The sieve strikes the other parity, and the scan starts past n = 1
    # and 2, which have no odd prime: a record for each printed row only.
    built = []
    real = arith.SquareFreeN.from_primes
    counting = staticmethod(lambda n, ps: built.append(n) or real(n, ps))
    monkeypatch.setattr(arith.SquareFreeN, "from_primes", counting)
    for parity, printed in (("--even", 4015), ("--odd", 7812)):
        built.clear()
        assert main(["scan", "1", "200000", "--eligible", parity, "--csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + printed
        assert len(built) == printed
        assert {n % 2 for n in built} == {parity == "--odd"}


def test_scan_skips_non_squarefree():
    proc = run_cli("scan", 50, 52)
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    # 50 = 2*5^2 and 52 = 4*13 are not square-free
    assert [r["n"] for r in rows] == [51]


def test_scan_deterministic_and_parallel_consistent():
    # Three blocks at least, so --jobs 2 starts a pool.
    base = run_cli("scan", 1, 3000, "--eligible").stdout
    again = run_cli("scan", 1, 3000, "--eligible").stdout
    parallel = run_cli("scan", 1, 3000, "--eligible", "--jobs", 2).stdout
    assert base == again == parallel


def test_scan_resume_from():
    full = run_cli("scan", 1, 300, "--eligible").stdout.splitlines()
    tail = run_cli("scan", 100, 300, "--eligible").stdout.splitlines()
    expected = [line for line in full if json.loads(line)["n"] >= 100]
    assert tail == expected


def test_scan_csv_header_and_rows():
    proc = run_cli("scan", 1, 100, "--odd", "--eligible", "--csv")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n,eligible,strict,s2,")
    assert lines[1].split(",")[0] == "17"


def test_tame_and_classgroup_commands():
    proc = run_cli("tame", "--", -34)
    row = json.loads(proc.stdout)
    assert row["r2"] == 1 and row["r4"] == 1
    proc = run_cli("classgroup", "--", -68)
    row = json.loads(proc.stdout)
    assert row["order"] == 4 and row["r4"] == 1
    assert run_cli("classgroup", 13).returncode == 0
    assert run_cli("classgroup", 14).returncode == 3  # not fundamental


def test_verify_suites_pass_small():
    for suite, bound in [
        ("selmer-oracle", 40),
        ("class-oracle", 60),
        ("pairing-product", 300),
        ("lemma-2symbol", 25),
        ("proposition", 2000),
        ("corollaries", 1500),
        ("pell-orbit", 600),
    ]:
        proc = run_cli("verify", suite, bound)
        assert proc.returncode == 0, (suite, proc.stdout, proc.stderr)
        report = json.loads(proc.stdout)
        assert report["failed"] == 0 and report["passed"] >= 1, (suite, report)


@pytest.mark.parametrize(
    "suite, bound",
    [("corollaries", 0), ("lemma-2symbol", -5), ("selmer-oracle", 2)],
)
def test_verify_exits_3_when_the_bound_leaves_no_case(suite, bound):
    # selmer-oracle starts at 3, so a bound of 2 leaves it no case either.
    proc = run_cli("verify", suite, bound)
    assert proc.returncode == 3 and proc.stdout == "", (suite, proc.stdout)
    assert "no case" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_refuses_a_bound_past_the_suite_maximum(monkeypatch, capsys, suite):
    def sweep(bound):
        raise AssertionError(f"{suite} swept to {bound}")

    most = verify.SUITES[suite][1]
    monkeypatch.setitem(verify.SUITES, suite, (sweep, most))
    assert main(["verify", suite, str(most + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"suite {suite} takes a bound of at most {most}, not {most + 1}"}


def test_verify_reports_a_failing_case_and_exits_4(monkeypatch, capsys):
    def sweep(bound):
        yield 17, True, {}
        yield 41, False, {"why": "planted"}
        yield 73, False, {"why": "second"}

    monkeypatch.setitem(verify.SUITES, "pell-orbit", (sweep, 100))
    report = verify.run("pell-orbit", 100)
    assert report["passed"] == 1 and report["failed"] == 2
    assert report["first_counterexample"] == {"case": 41, "detail": {"why": "planted"}}
    assert main(["verify", "pell-orbit", "100"]) == 4
    assert json.loads(capsys.readouterr().out) == report


def test_main_entrypoint_in_process(capsys):
    assert main(["classify", "17"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 17


def test_main_reuses_one_parser_and_carries_no_option_over(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    calls = [["scan", "1", "3000", "--odd", "--eligible"], ["scan", "1", "3000"], ["classify", "17"]]
    reused = []
    for argv in calls:
        reused.append((main(argv), capsys.readouterr().out))
        assert vars(cli._parser.parse_args(argv)) == vars(build().parse_args(argv)), argv
    for argv in (["scan", "1"], ["classify", "garbage"], ["scan", "1", "9", "--odd", "--even"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
        capsys.readouterr()
    assert main(["classify", "17"]) == 0 and capsys.readouterr().out == reused[2][1]
    assert len(builds) == 1
    for argv, got in zip(calls, reused):
        monkeypatch.setattr(cli, "_parser", None)  # a freshly built parser
        assert (main(argv), capsys.readouterr().out) == got, argv
    assert reused[0][1] != reused[1][1]
    # The parser is built on first use, never at import.
    probe = "from noncongruent import cli; assert cli._parser is None"
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


@pytest.mark.parametrize("lo, hi", [(1, 1025), (1, 3), (2, 6), (99329, 100353), (10**8 - 1023, 10**8 + 1)])
def test_sieve_block_matches_factorize(lo, hi):
    want = {}
    for n in range(lo, hi):
        if all(e == 1 for _, e in arith.factorize(n)):
            want[n] = arith.factor_squarefree(n)
    assert dict(arith.squarefree_block(lo, hi)) == want
    for allowed, flag in ((arith.ELIGIBLE, "eligibility"), (arith.STRICT, "strict_eligibility")):
        kept = {n: sf for n, sf in want.items() if n % 8 in (1, 2) and getattr(sf, flag)}
        assert dict(arith.squarefree_block(lo, hi, allowed)) == kept, allowed


def test_classify_exits_3_when_rho_gives_up(monkeypatch, capsys):
    # Rho run on a prime exhausts its retries, as it would on a hard n.
    rho = arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda n: rho(101))
    assert main(["classify", str(1375951 * 1777823)]) == 3
    assert "error" in capsys.readouterr().err


def test_classify_exits_3_beyond_the_primality_bound():
    # 2^128 + 1 has no factor below the trial bound and is past psi_13.
    proc = subprocess.run(
        [sys.executable, "-m", "noncongruent.cli", "classify", str(2**128 + 1)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3 and "psi_13" in proc.stderr


def test_classify_two_large_primes_finishes():
    # 1799999999969 * 1799999999753, s2 = 2: its mu once took an O(sqrt(n)) walk.
    n = 3239999999499600000007657
    proc = subprocess.run(
        [sys.executable, "-m", "noncongruent.cli", "classify", str(n)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode in (0, 1, 2)
    row = json.loads(proc.stdout)
    mu = row["mu"]
    tau2 = 2 * mu * mu - n
    assert tau2 >= 0 and isqrt(tau2) ** 2 == tau2


def test_tame_rejects_non_squarefree_with_exit_3(capsys):
    assert main(["tame", "12"]) == 3
    assert "square" in capsys.readouterr().err


def test_classgroup_rejects_non_fundamental_with_exit_3(capsys):
    assert main(["classgroup", "20"]) == 3
    assert capsys.readouterr().err == '{"error": "20 is not a fundamental discriminant"}\n'


@pytest.mark.parametrize(
    "rho, argv, message",
    [
        # a step that never moves leaves every unreduced composite unreduced
        (lambda f, sq, disc: f, ["verify", "class-oracle", "60"], "did not converge"),
        # a step that never returns leaves a cycle open
        (lambda f, sq, disc: (f[0], f[1], f[2] + 1), ["classgroup", "229"], "did not close"),
    ],
    ids=["reduction", "cycle"],
)
def test_class_group_guards_exit_3(monkeypatch, capsys, rho, argv, message):
    from noncongruent import oracles

    monkeypatch.setattr(oracles, "_rho", rho)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in json.loads(err)["error"]


def test_scan_eligible_csv_digest(capsys):
    assert main(["scan", "1", "100000", "--eligible", "--csv"]) == 0
    body = capsys.readouterr().out.partition("\n")[2]
    assert body.count("\n") == 6076
    assert hashlib.sha256(body.encode()).hexdigest() == SCAN_DIGEST


@pytest.mark.parametrize("line", PINNED_CLASSIFY, ids=lambda line: json.loads(line)["n"])
def test_classify_json_pinned(line):
    v = criteria.classify(json.loads(line)["n"])
    assert json.dumps(v.to_dict(), separators=(",", ":")) == line


def test_classify_json_digest_to_20000():
    # Every field, the trace and the key order of each verdict.
    text = "".join(
        json.dumps(criteria.classify(n).to_dict(), separators=(",", ":")) + "\n" for n in range(1, 20001)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_DIGEST


def test_scan_worker_count_is_clamped():
    # Computed only: no pool is started here.
    cpus = os.cpu_count() or 1
    assert cli._worker_count(10**6) == cpus
    assert cli._worker_count(0) == cli._worker_count(-5) == 1
    assert cli._worker_count(1) == 1


def test_scan_oracle_leaves_h4_agree_empty_past_the_cap(capsys):
    # Odd n > 250000 have |disc(-n)| = 4n above the class-group cap of 10^6;
    # even n check -n/2, which stays below it.
    assert main(["scan", "249990", "250100", "--eligible", "--oracle", "--csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 8
    assert all(row[-1] == ("True" if int(row[0]) % 2 == 0 else "") for row in rows)


def test_scan_oracle_builds_one_symbol_table_per_rank_two_row(monkeypatch):
    # --oracle checks the h4_minus that classify recorded on every s2 = 2
    # row; only the rows without one build a second table
    builds = []
    real = matrices.symbol_table
    monkeypatch.setattr(matrices, "symbol_table", lambda sf: builds.append(sf.n) or real(sf))
    h4_agree, s2 = cli.CSV_COLUMNS.index("h4_agree"), cli.CSV_COLUMNS.index("s2")
    rank_two = 0
    for n, sf in arith.squarefree_block(1, 3000, arith.ELIGIBLE):
        if sf.k == 0:
            continue
        builds.clear()
        row = cli._scan_row(sf, True)
        assert row[h4_agree] is True, n
        assert builds == ([n] if row[s2] == 2 else [n, n]), n
        rank_two += row[s2] == 2
    assert rank_two > 100


def test_scan_csv_and_json_render_one_row(capsys):
    # Each JSON object has the keys of CSV_COLUMNS in order, and the CSV
    # line of the same n is its values joined, null as empty.
    assert main(["scan", "1", "3000", "--oracle"]) == 0
    objects = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["scan", "1", "3000", "--oracle", "--csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == len(objects) > 1000
    for obj, line in zip(objects, lines):
        assert list(obj) == cli.CSV_COLUMNS
        assert line == ",".join(["" if x is None else str(x) for x in obj.values()])
    assert {obj["h4_agree"] for obj in objects} == {None, True}
