"""The three workloads: their items, the timed call of each, and its check.

Each workload drives the program only through public entry points:
``noncongruent.cli.main`` for scans, ``criteria.classify`` for single n, and
the library calls that the ``verify`` suites make for the oracle sweep.
Checks run outside the timed call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from math import isqrt
from pathlib import Path

import gen

EXPECTED = Path(__file__).resolve().parent / "expected"

# SHA-256 of the CSV body (header excluded) of
# `noncongruent scan 1 100000 --eligible --csv`, pinned at the commit that
# introduced this benchmark: the byte contract for scan output.
SCAN_DIGEST = "8ef720bdee9c2e421a9f3ec7d90179ad974f3ee5be7115ff43b8de2122a9c95d"


class Workload:
    """A list of items, run in whole passes; subclasses time and check one item."""

    name = ""
    budget_s = 0.0  # an item slower than this counts as failed
    min_passes = 1

    def __init__(self, seed: int):
        self.items: list = []

    def setup(self) -> None:
        """Import what the timed calls use, before the first timed item."""

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError

    def work(self, item) -> int:
        """How many units of throughput one item counts for."""
        return 1

    def check_pass(self, outputs: dict) -> str | None:
        """A check over one whole pass, given each item's output."""
        return None

    def inputs(self):
        """The generated inputs, as written into the run's output for replay."""
        return self.items


class ScanEligible(Workload):
    name = "scan-eligible"
    budget_s = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.items = gen.scan_blocks(seed)
        text = (EXPECTED / "scan_eligible.csv").read_text()
        self.expected_ok = hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGEST
        self.expected: dict[tuple[int, int], str] = {item: "" for item in self.items}
        starts = sorted(self.items)
        for line in text.splitlines(keepends=True):
            n = int(line.split(",", 1)[0])
            block = starts[n // gen.BLOCK]
            self.expected[block] += line

    def setup(self) -> None:
        from noncongruent import cli

        self.cli = cli

    def run(self, item):
        lo, hi = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["scan", str(lo), str(hi), "--eligible", "--csv"])
        return code, buf.getvalue()

    def check(self, item, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        header, _, body = text.partition("\n")
        if body != self.expected[item]:
            return "CSV rows differ from expected/scan_eligible.csv"
        return None

    def work(self, item):
        return item[1] - item[0] + 1

    def check_pass(self, outputs):
        if not self.expected_ok:
            return "expected/scan_eligible.csv does not hash to the pinned digest"
        body = "".join(outputs[item][1].partition("\n")[2] for item in sorted(outputs))
        if hashlib.sha256(body.encode()).hexdigest() != SCAN_DIGEST:
            return "scan CSV body does not hash to the pinned digest"
        return None

    def inputs(self):
        return [lo for lo, _ in self.items]


class ClassifyLarge(Workload):
    name = "classify-large"
    budget_s = 30.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.items = [n for _, n in gen.classify_inputs(seed)]
        record = json.loads((EXPECTED / "classify_verdicts.json").read_text())
        self.recorded = {int(n): v for n, v in record["verdicts"].items()}
        if seed != record["seed"]:
            self.recorded = {gen.PINNED_N: self.recorded[gen.PINNED_N]}

    def setup(self) -> None:
        from noncongruent import criteria, matrices

        # Modules, not functions: a traced run rebinds the module attributes.
        self.criteria, self.matrices = criteria, matrices
        self.kinds = criteria.VerdictKind

    def run(self, n):
        return self.criteria.classify(n)

    def check(self, n, v):
        want = self.recorded.get(n)
        got = v.to_dict()
        got.pop("trace")  # provenance, not part of the verdict
        if want is not None and got != want:
            return f"verdict for {n} differs from the recorded one"
        if v.verdict == self.kinds.NOT_ELIGIBLE:
            return f"{n} reported not eligible"
        # Rank bridge: s2 = 2 exactly when the Redei 4-rank conditions hold.
        if n % 2:
            h4m, h4p = (v.h4_minus, v.h4_plus) if v.s2 == 2 else (self.matrices.h4(-n), self.matrices.h4(n))
            redei = h4m == 1 and h4p == 0
        else:
            h4m = v.h4_minus if v.s2 == 2 else self.matrices.h4(-(n // 2))
            redei = h4m == 1
        if (v.s2 == 2) != redei:
            return f"rank bridge broken for {n}: s2 = {v.s2}, h4 = {h4m}"
        if v.s2 != 2:
            return None if v.verdict == self.kinds.S2_NOT_TWO else f"{n}: s2 != 2 but {v.verdict}"
        d = v.d
        if d in (None, 1) or n % abs(d):
            return f"{n}: distinguished divisor {d} is 1 or does not divide n"
        if n % 2:
            mu = v.mu
            tau2 = 2 * mu * mu - n
            if tau2 < 0 or isqrt(tau2) ** 2 != tau2 or (mu - d) % 4:
                return f"{n}: mu = {mu} gives no 2mu^2 - tau^2 = n with mu = d mod 4"
            if v.pairing_symbol != gen.jacobi(-mu, d):
                return f"{n}: pairing symbol {v.pairing_symbol} != (-mu/d)"
        holds = v.pairing_symbol == -1
        if (v.verdict == self.kinds.NON_CONGRUENT_SHA22) != holds:
            return f"{n}: verdict {v.verdict} disagrees with symbol {v.pairing_symbol}"
        return None


class VerifySweep(Workload):
    name = "verify-sweep"
    budget_s = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.items = gen.verify_cases(seed)

    def setup(self) -> None:
        from noncongruent import arith, cassels, criteria, matrices, oracles, reps, tame

        self.m = (arith, cassels, criteria, matrices, oracles, reps, tame)

    def run(self, item):
        arith, cassels, criteria, matrices, oracles, reps, tame = self.m
        suite, n = item
        if suite == "class-oracle":
            return matrices.h4(n) == oracles.h4_oracle(n)
        sf = arith.factor_squarefree(n)
        if suite == "selmer-oracle":
            return oracles.selmer_oracle(sf) == matrices.selmer_elements(sf)
        if suite == "corollaries":
            v = criteria.classify(n)
            r4 = tame.r4_tame(n if n % 2 else -n)
            return (v.verdict == criteria.VerdictKind.NON_CONGRUENT_SHA22) == (r4 == 0)
        # pairing-product: the suite skips n with s2 != 2.
        if matrices.s2(sf) != 2:
            return True
        d = criteria.distinguished_divisor(sf)
        mu = None if sf.is_even else reps.rep_2mu2_tau2(n, d).mu
        closed = cassels.closed_form_pairing(sf, d, mu)
        product = cassels.pairing_product(sf)
        _, nondeg = cassels.pairing_matrix(sf)
        return product == closed and nondeg == (closed == -1)

    def check(self, item, ok):
        return None if ok is True else f"{item[0]} case {item[1]} failed"


WORKLOADS = {w.name: w for w in (ScanEligible, ClassifyLarge, VerifySweep)}
