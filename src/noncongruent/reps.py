"""Integer representation solvers for the norm forms 2x^2 - y^2 and x^2 - 2y^2.

Fundamental solutions are found by bounded search over a window that every
unit-orbit must meet, so the search is complete whenever the norm condition
(membership of 2 in the norm group of the relevant quadratic field) holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_norm
from .errors import NoRepresentation


@dataclass(frozen=True)
class Rep2MuTau:
    """n = 2*mu^2 - tau^2 with the sign of mu normalized mod 4."""

    mu: int
    tau: int
    n: int

    def __post_init__(self):
        if 2 * self.mu * self.mu - self.tau * self.tau != self.n:
            raise ValueError("not a representation")


@dataclass(frozen=True)
class RepU2W:
    """n' = u^2 - 2*w^2."""

    u: int
    w: int
    n: int

    def __post_init__(self):
        if self.u * self.u - 2 * self.w * self.w != self.n:
            raise ValueError("not a representation")


@dataclass(frozen=True)
class RepA8B:
    """n = a^2 + 8*b^2 with a odd positive."""

    a: int
    b: int
    n: int

    def __post_init__(self):
        if self.a * self.a + 8 * self.b * self.b != self.n or self.a <= 0 or self.a % 2 == 0:
            raise ValueError("not a representation")


@dataclass(frozen=True)
class RepNeg:
    """m = 2*mu^2 - lam^2 for m < 0, with mu, lam positive."""

    mu: int
    lam: int
    m: int

    def __post_init__(self):
        if 2 * self.mu * self.mu - self.lam * self.lam != self.m:
            raise ValueError("not a representation")


def orbit_step_2mu2(mu: int, tau: int) -> tuple[int, int]:
    """Action of the fundamental unit 3 + 2*sqrt(2) on 2*mu^2 - tau^2 = n."""
    return 3 * mu + 2 * tau, 4 * mu + 3 * tau


def orbit_step_u2w(u: int, w: int) -> tuple[int, int]:
    """Action of 3 + 2*sqrt(2) on u^2 - 2*w^2 = n."""
    return 3 * u + 4 * w, 2 * u + 3 * w


def fundamental_2mu2_tau2(n: int) -> tuple[int, int]:
    """Minimal positive (mu, tau) with 2*mu^2 - tau^2 = n > 0.

    Any solution reduces into mu in [sqrt(n/2), (1+sqrt(2))*sqrt(n/2)] under
    the unit 3 + 2*sqrt(2), so scanning that window is a complete search.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    lo = isqrt((n + 1) // 2)
    while 2 * lo * lo < n:
        lo += 1
    hi = isqrt(n // 2) + isqrt(n) + 2
    for mu in range(lo, hi + 1):
        t2 = 2 * mu * mu - n
        tau = isqrt(t2)
        if tau * tau == t2:
            return mu, tau
    raise NoRepresentation(f"{n} != 2*mu^2 - tau^2 for any integers")


def rep_2mu2_tau2(n: int, d: int, odd_primes: tuple[int, ...] | None = None) -> Rep2MuTau:
    """Fundamental representation n = 2*mu^2 - tau^2 with mu = d mod 4.

    Requires 2 to be a norm from Q(sqrt(n)); mu is odd for odd n, so exactly
    one choice of sign matches d mod 4.  ``odd_primes`` of n, when known,
    spare factoring n for that check.
    """
    if d % 2 == 0:
        raise ValueError("d must be odd")
    if not is_norm(2, n, odd_primes):
        raise NoRepresentation(f"2 is not a norm from Q(sqrt({n}))")
    mu, tau = fundamental_2mu2_tau2(n)
    if mu % 2 == 1 and (mu - d) % 4 != 0:
        mu = -mu
    return Rep2MuTau(mu, tau, n)


def rep_u2_2w2(n: int) -> RepU2W:
    """Fundamental representation n = u^2 - 2*w^2 (minimal u > 0), n > 0."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not is_norm(2, n):
        raise NoRepresentation(f"2 is not a norm from Q(sqrt({n}))")
    lo = isqrt(n)
    if lo * lo < n:
        lo += 1
    hi = isqrt(n) + isqrt(2 * n) + 2
    for u in range(lo, hi + 1):
        w2, rem = divmod(u * u - n, 2)
        if rem:
            continue
        w = isqrt(w2)
        if w * w == w2:
            return RepU2W(u, w, n)
    raise NoRepresentation(f"{n} != u^2 - 2*w^2 for any integers")


def rep_a2_8b2(n: int) -> RepA8B:
    """Representation n = a^2 + 8*b^2 with smallest b >= 0, a odd positive."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be positive odd")
    for b in range(isqrt(n // 8) + 1):
        a2 = n - 8 * b * b
        a = isqrt(a2)
        if a * a == a2:
            return RepA8B(a, b, n)
    raise NoRepresentation(f"{n} != a^2 + 8*b^2 for any integers")


def rep_neg(m: int) -> RepNeg:
    """Representation m = 2*mu^2 - lam^2 with minimal mu >= 1, for m < 0."""
    if m >= 0:
        raise ValueError("m must be negative")
    if not is_norm(2, m):
        raise NoRepresentation(f"2 is not a norm from Q(sqrt({m}))")
    for mu in range(1, 2 * isqrt(-m) + 3):
        l2 = 2 * mu * mu - m
        lam = isqrt(l2)
        if lam * lam == l2:
            return RepNeg(mu, lam, m)
    raise NoRepresentation(f"{m} != 2*mu^2 - lam^2 for any integers")


def linked_u2w(rep: Rep2MuTau) -> RepU2W:
    """The u^2 - 2*w^2 representation tied to (mu, tau): u = 2mu - tau, w = tau - mu."""
    u = 2 * rep.mu - rep.tau
    w = rep.tau - rep.mu
    return RepU2W(u, w, rep.n)
