"""Exact integer, modular and p-adic primitives.

Everything here is pure integer arithmetic: factorization, Legendre / Jacobi /
Hilbert symbols and square roots in Z_2.  A place of Q is its prime, or None
for the real place.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import compress
from math import gcd, isqrt, prod

from .errors import (
    NoRoot,
    NotCoprime,
    NotSquareFree,
    TooLarge,
    ZeroOrNegative,
)

# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

_base_primes: tuple[int, ...] = ()
_base_bound = 0


def base_primes(bound: int) -> tuple[int, ...]:
    """The primes up to ``bound``, read off a table that each process sieves
    once and sieves again, at least twice as far, only when outgrown."""
    global _base_primes, _base_bound
    if bound > _base_bound:
        _base_bound = max(bound, 2 * _base_bound, 1024)
        is_p = bytearray([0, 0]) + bytearray([1]) * (_base_bound - 1)
        for p in range(2, isqrt(_base_bound) + 1):
            if is_p[p]:
                is_p[p * p :: p] = bytes(len(range(p * p, _base_bound + 1, p)))
        _base_primes = tuple(compress(range(_base_bound + 1), is_p))
    return _base_primes[: bisect_right(_base_primes, bound)]


_TRIAL_BOUND = 10**3
# The primes that the trial loop walks, past 2, 3 and 5: a cofactor prime to
# their product skips the loop.
_TRIAL_PRIMES = base_primes(_TRIAL_BOUND)[3:]
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)

# Witnesses making Miller-Rabin deterministic below psi_13 (Sorenson-Webster);
# without 41 only below psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises TooLarge for n >= psi_13 ~ 3.3 * 10^24,
    where these witnesses no longer decide primality."""
    if n >= _PSI_13:
        raise TooLarge(f"{n} is beyond the exact primality bound psi_13 = {_PSI_13}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> list[int]:
    """The primes of composite odd n, with multiplicity, from one Brent-cycle
    rho walk.  A batch gcd's proper divisor g is settled, as a prime below
    10^6 or by ``is_prime`` or else by a walk of its own, and the walk goes on
    mod n / g in the same round with the same c, already that far into the
    cycle of every prime left, until the cofactor is prime.  Round r takes
    batches of min(max(16, r / 8), 128) steps, the last one what is left of
    the round (Brent, BIT 20, 1980), so a prime near 10^4, met in a round of
    64 or 128, is caught within 16 steps; the product folds four differences
    per reduction mod n.  A batch gcd of n is stepped back through one gcd
    at a time; if that gives n too, the next c starts over.  Raises TooLarge
    after 99 values of c, as a prime n does."""
    primes: list[int] = []
    for c in range(1, 100):
        y, g, r, q = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                s = min(max(16, r >> 3), 128, r - k)
                for _ in range(s >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(s & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += s
                if g == n:
                    g = 1
                    while g == 1:
                        ys = (ys * ys + c) % n
                        g = gcd(x - ys, n)
                    y = ys
                if 1 < g < n:
                    primes += [g] if g < _TRIAL_BOUND**2 or is_prime(g) else _pollard_rho(g)
                    n //= g
                    if n < _TRIAL_BOUND**2 or is_prime(n):
                        return primes + [n]
                    x, y, q, g = x % n, y % n, 1, 1
            r *= 2
    raise TooLarge(f"Pollard rho found no factor of {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs; trial division, then one rho walk for
    a composite cofactor."""
    if n < 1:
        raise ZeroOrNegative(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if gcd(n, _TRIAL_PRODUCT) > 1:
        for p in _TRIAL_PRIMES:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    # No prime below the trial bound is left in n or in its factors, so one
    # below the bound's square is prime without a Miller-Rabin test.
    if n > 1:
        for p in [n] if n < _TRIAL_BOUND**2 or is_prime(n) else _pollard_rho(n):
            out[p] = out.get(p, 0) + 1
    return sorted(out.items())


def split_power(n: int, p: int) -> tuple[int, int]:
    """(e, n / p^e) for the largest e with p^e dividing the nonzero n."""
    if n == 0:
        raise ValueError("0 is divisible by every power of p")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def squarefree_part(n: int) -> int:
    """Square-free part of a nonzero integer, keeping the sign."""
    if n == 0:
        raise ZeroOrNegative("0 has no square-free part")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(abs(n)):
        if e % 2 == 1:
            out *= p
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class SquareFreeN(
    namedtuple("SquareFreeN", "n odd_part primes is_even eligibility strict_eligibility")
):
    """A validated positive square-free integer with its odd prime data.

    ``primes`` is the strictly increasing tuple of odd prime factors,
    ``odd_part`` is n with the factor 2 removed, and the eligibility flags
    record whether every odd prime factor is +-1 (resp. +1) modulo 8.
    """

    __slots__ = ()

    @classmethod
    def from_primes(cls, n: int, primes: tuple[int, ...]) -> "SquareFreeN":
        """The record of square-free n whose odd primes are exactly the
        increasing ``primes``; the caller vouches for both, nothing is checked.
        Both eligibility flags come from one pass over the residues mod 8."""
        eligible = strict = True
        for p in primes:
            if p % 8 != 1:
                strict = False
                if p % 8 != 7:
                    eligible = False
                    break
        is_even = n % 2 == 0
        return tuple.__new__(cls, (n, n // 2 if is_even else n, primes, is_even, eligible, strict))

    @property
    def k(self) -> int:
        return len(self.primes)

    def odd_divisors(self) -> list[int]:
        """Sorted positive divisors of the odd part: the subset products of ``primes``."""
        divs = [1]
        for p in self.primes:
            divs += [d * p for d in divs]
        return sorted(divs)


class SelmerTriple(namedtuple("SelmerTriple", "d1 d2 d3")):
    """Square-free triple (d1, d2, d3) with d1*d2*d3 a perfect square."""

    __slots__ = ()

    def __new__(cls, d1: int, d2: int, d3: int):
        prod = d1 * d2 * d3
        if prod <= 0 or isqrt(prod) ** 2 != prod:
            raise ValueError(f"({d1},{d2},{d3}) is not a square-class triple")
        return super().__new__(cls, d1, d2, d3)

    def __str__(self) -> str:
        return f"({self.d1},{self.d2},{self.d3})"

    @classmethod
    def of(cls, is_even: bool, a: int, b: int) -> SelmerTriple:
        """The triple for the positive odd divisors a, b of n: (a, b, sqf(ab))
        for odd n, (sqf(a*d3), a, d3) with d3 = +-b = 1 mod 4 for even n;
        sqf(de) = de / gcd(d, e)^2 for square-free d and e."""
        if not is_even:
            return cls(a, b, a * b // gcd(a, b) ** 2)
        d3 = b if b % 4 == 1 else -b
        return cls(a * d3 // gcd(a, d3) ** 2, a, d3)


def factor_squarefree(n: int) -> SquareFreeN:
    """Validate and factor a positive square-free integer."""
    if n < 1:
        raise ZeroOrNegative(f"n must be >= 1, got {n}")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        raise NotSquareFree(f"{n} is divisible by a square")
    return SquareFreeN.from_primes(n, tuple(p for p, _ in fac if p != 2))


def _strike(alive: bytearray, start: int, step: int) -> None:
    alive[start::step] = bytes(len(range(start, len(alive), step)))


# The width of the blocks that scans and sweeps sieve.
BLOCK = 1024

# The filters of ``squarefree_block``: the residues mod 8 allowed to n, and
# those allowed to each odd prime of n; no filter, eligible and strictly
# eligible n.
ANY = (range(8), range(8))
ELIGIBLE = ((1, 2), (1, 7))
STRICT = ((1, 2), (1,))


def squarefree_block(lo: int, hi: int, allowed: tuple = ANY):
    """(n, SquareFreeN) for each square-free n in [lo, hi), by a segmented
    sieve, for those n that pass the filter ``allowed``: n mod 8 is among
    its first residues, and each odd prime of n mod 8 among its second.

    Each base prime p <= sqrt(hi) strikes the multiples of p^2, and the
    filter strikes the other residues of n and the multiples of each odd p
    outside it.  Every other odd p then joins the prime list of each
    multiple still standing; the odd part of such an n over the product of
    its list is 1 or one prime above sqrt(hi), which the filter may still
    reject.  The sieve is exact, so nothing is divided again.
    """
    size = hi - lo
    alive = bytearray([1]) * size
    residues, prime_residues = allowed
    for r in range(8):
        if r not in residues:
            _strike(alive, (r - lo) % 8, 8)
    listed = []
    for p in base_primes(isqrt(hi - 1)):
        # Past sqrt(size) most squares, and past size most primes, miss the
        # block: a comparison spares them the slice.
        start = -lo % (p * p)
        if start < size:
            _strike(alive, start, p * p)
        if p == 2:
            continue
        if p % 8 in prime_residues:
            listed.append(p)
        elif -lo % p < size:
            _strike(alive, -lo % p, p)
    rows: dict[int, list[int]] = {i: [] for i in compress(range(size), alive)}
    for p in listed:
        start = -lo % p
        if start >= size:
            continue
        for i in compress(range(start, size, p), alive[start::p]):
            rows[i].append(p)
    for i, ps in rows.items():
        n = lo + i
        r = (n if n % 2 else n // 2) // prod(ps)
        if r > 1:
            if r % 8 not in prime_residues:
                continue
            ps.append(r)
        yield n, SquareFreeN.from_primes(n, tuple(ps))


def squarefree_upto(bound: int, allowed: tuple = ANY, start: int = 1):
    """``squarefree_block``'s rows for n in [start, bound], sieved in blocks
    of ``BLOCK``."""
    for lo in range(start, bound + 1, BLOCK):
        yield from squarefree_block(lo, min(lo + BLOCK, bound + 1), allowed)


# ---------------------------------------------------------------------------
# Legendre / Jacobi symbols
# ---------------------------------------------------------------------------


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, p not dividing a."""
    a %= p
    if a == 0:
        raise NotCoprime(f"{p} divides the argument")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for positive odd b with gcd(a, b) = 1."""
    if b <= 0 or b % 2 == 0:
        raise ValueError(f"lower argument must be positive odd, got {b}")
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) > 1")
    a %= b
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def hilbert(a: int, b: int, p: int | None) -> int:
    """Hilbert symbol (a, b)_v of nonzero integers a, b at the place v of the
    prime p, or at the real place for None.  A place is just its prime:
    callers pass primes that factorize, the sieve or a ``SquareFreeN`` has
    already proved, and nothing here tests p again."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        # (a, b)_2 = (-1)^(eps(a) eps(b) + alpha omega(b) + beta omega(a)) for
        # the odd a, b, with eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2.
        exponent = (a % 4 == 3 and b % 4 == 3) + alpha * (b % 8 in (3, 5))
        exponent += beta * (a % 8 in (3, 5))
        return 1 if exponent % 2 == 0 else -1
    # Legendre symbols by Euler's criterion: p is prime and divides neither a nor b.
    result = -1 if alpha * beta % 2 == 1 and p % 4 == 3 else 1
    if beta % 2 == 1 and pow(a, p >> 1, p) != 1:
        result = -result
    if alpha % 2 == 1 and pow(b, p >> 1, p) != 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# square roots in Z_2
# ---------------------------------------------------------------------------


def sqrt_2adic(a: int, e: int) -> int:
    """A square root of a = 1 mod 8 in Z_2 at precision 2^e, e >= 3.

    The root is only determined mod 2^(e-1) up to sign, and the
    representative in [1, 2^(e-1)] with the smaller residue class is
    returned.  Raises NoRoot when a is odd but not 1 mod 8.
    """
    if e < 3:
        raise ValueError("2-adic roots need precision e >= 3")
    if a % 2 == 0:
        raise ValueError("2-adic argument must be odd")
    if a % 8 != 1:
        raise NoRoot(f"{a} is not a square in Z_2")
    half = 1 << (e - 1)
    s = 1
    for j in range(3, e):
        if (s * s - a) % (1 << (j + 1)):
            s += 1 << (j - 1)
    s %= half
    return min(s, half - s)
