"""Seeded workload inputs, built without calling the program.

Everything here uses its own primality test and its own sieve, so that the
inputs (and the case lists the checks rely on) do not depend on the code
being measured.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from math import isqrt, prod

BLOCK = 1024
SCAN_HI = 100_000
PINNED_N = 2446197334673  # 1375951 * 1777823, s2 = 2

# classify-large draws SLOT_DRAWS inputs for each slot below, plus the
# pinned n.  A slot fixes the class (n mod 8 and the size of n), the number
# of odd primes and a quadratic pattern (see `classify_slots`); the seed
# draws the primes, within about 2 % of fixed sizes.  Each slot's cost is then
# nearly the same for every seed, and the slots fall into cost levels that
# do not overlap where the median and the 90th percentile lie (measured on
# a 2-core x86-64 sandbox, Python 3.11, at reference speed, see calib.py):
#   11 slots under 3 ms (55 items);
#   5 slots of 10-13 ms, where the median lies: four even n at 1e18 with
#     four primes (10-13 ms, within a tenth over seeds), and one odd n at
#     1e12 whose mu walk puts it anywhere from 6 to 24 ms; the median is
#     inside the 20 even items on either side of the odd ones;
#   6 slots of 20-80 ms, odd 1e14 with three primes reaching 0.4 s;
#   3 slots of 0.2-0.37 s, even n with primes near the 1e6 trial bound, and
#     the pinned n at 0.8 s: the 90th percentile lies inside the two-prime
#     even n at 1e12 (0.2-0.28 s), the 13th and 14th costliest items.
# Odd n walk the mu window, whose length varies over draws of one size from
# tens of steps to about sqrt(n).  An odd slot at 1e12 with two primes and
# s2 = 2 (a walk of 0 to 0.5 s on top of a 0.7 s factorization) moved
# throughput from seed to seed more than any other slot; it is left out, and
# the pinned n, of the same kind, stands for it.  Odd n at 1e18 (minutes)
# are left out until the norm-form search is sub-sqrt(n).
CLASSIFY_SLOTS = (
    # label, n mod 8, size of n, ((odd primes, pattern number), ...)
    ("odd-1e6", 1, 10**6, ((2, 1), (3, 0), (4, 1))),
    ("odd-1e9", 1, 10**9, ((2, 0), (2, 3), (3, 0), (4, 0))),
    ("odd-1e12", 1, 10**12, ((2, 1), (3, 1), (3, 3), (4, 0))),
    ("odd-1e14", 1, 10**14, ((2, 1), (3, 3), (4, 1))),
    ("even-1e12", 2, 10**12, ((2, 0), (2, 3), (3, 0), (4, 0))),
    ("even-1e18", 2, 10**18, ((2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (4, 4), (4, 5))),
)
SLOT_DRAWS = 5

# Verify suites and their bounds, as `noncongruent verify <suite> <bound>`.
VERIFY_SUITES = (
    ("selmer-oracle", 200),
    ("class-oracle", 1000),
    ("corollaries", 20000),
    ("pairing-product", 2000),
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def classify_slots() -> list[tuple[str, int, int, tuple[int, ...], dict]]:
    """The fixed shape of every classify-large input, the same for every seed.

    A slot fixes each prime's residue mod 8 and the Legendre symbol of every
    pair of primes.  Those determine the Monsky and Redei matrices, so s2,
    h4 and the work that follows from them are the same for every seed; the
    pairing symbol, hence the verdict, is not fixed.  Without this, the
    share of s2 = 2 inputs, which cost ten times more than the rest, would
    move the figures from seed to seed.
    """
    slots = []
    for label, residue, scale, shapes in CLASSIFY_SLOTS:
        for k, pattern in shapes:
            rng = random.Random(f"{label}-{k}-{pattern}")
            res = [rng.choice((1, 7)) for _ in range(k)]
            if res.count(7) % 2:  # the odd part must be 1 mod 8
                res[-1] = 8 - res[-1]
            signs = {(i, j): rng.choice((1, -1)) for j in range(k) for i in range(j)}
            slots.append((label, residue, scale, tuple(res), signs))
    return slots


def draw_primes(rng: random.Random, target: int, res: tuple[int, ...], signs: dict) -> list[int]:
    """Primes p_j = res[j] mod 8 with (p_i/p_j) = signs[i, j], product about `target`."""
    k = len(res)
    primes: list[int] = []
    for j in range(k):
        size = (target / prod(primes)) ** (1 / (k - j))
        if j < k - 1:
            size *= 2 ** rng.uniform(-0.03, 0.03)
        p = max(round(size), 3)
        while not (
            p % 8 == res[j]
            and p not in primes
            and is_prime(p)
            and all(jacobi(q, p) == signs[i, j] for i, q in enumerate(primes))
        ):
            p += 1
        primes.append(p)
    return primes


def classify_inputs(seed: int) -> list[tuple[str, int]]:
    """(class label, n) pairs: the pinned n, then SLOT_DRAWS draws per slot."""
    rng = random.Random(seed)
    out = [("pinned", PINNED_N)]
    for _ in range(SLOT_DRAWS):
        for label, residue, scale, res, signs in classify_slots():
            odd = prod(draw_primes(rng, scale // residue, res, signs))
            out.append((label, residue * odd))
    return out


def scan_blocks(seed: int) -> list[tuple[int, int]]:
    """The 1024-aligned blocks of 1..SCAN_HI as (lo, hi) inclusive, shuffled."""
    blocks = [
        (max(lo, 1), min(lo + BLOCK - 1, SCAN_HI))
        for lo in range(0, SCAN_HI + 1, BLOCK)
    ]
    random.Random(seed).shuffle(blocks)
    return blocks


def squarefree_factors(bound: int) -> dict[int, list[int]]:
    """Prime factors of every square-free n in 1..bound, by an spf sieve."""
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    out = {}
    for n in range(1, bound + 1):
        m, primes = n, []
        while m > 1:
            p = spf[m]
            m //= p
            if m % p == 0:
                break
            primes.append(p)
        else:
            out[n] = primes
    return out


def verify_cases(seed: int) -> list[tuple[str, int]]:
    """(suite, argument) pairs of the verify suites, shuffled by the seed.

    The case lists follow the suites' own filters, computed here from the
    sieve: a case that the suite would skip on an input property is not an
    item.  The pairing-product filter s2 = 2 is a program output, so every
    eligible n is a case and the s2 test is part of the timed work.
    """
    sf = squarefree_factors(max(bound for _, bound in VERIFY_SUITES))
    cases = []
    for suite, bound in VERIFY_SUITES:
        for n in range(1, bound + 1):
            primes = sf.get(n)
            if primes is None:
                continue
            odd = [p for p in primes if p != 2]
            eligible = all(p % 8 in (1, 7) for p in odd) and n % 8 in (1, 2)
            strict = all(p % 8 == 1 for p in odd) and n % 8 in (1, 2)
            if suite == "selmer-oracle" and odd:
                cases.append((suite, n))
            elif suite == "class-oracle" and n > 1:
                cases.extend([(suite, n), (suite, -n)])
            elif suite == "corollaries" and odd and strict:
                cases.append((suite, n))
            elif suite == "pairing-product" and odd and eligible:
                cases.append((suite, n))
    random.Random(seed).shuffle(cases)
    return cases
