"""Independent brute-force ground truth.

Narrow class groups are realized concretely as form class groups of binary
quadratic forms: reduced positive-definite forms for negative discriminants,
reduction cycles of indefinite forms for positive ones (proper equivalence,
which matches the narrow group canonically).  2-power ranks come from
counting images of iterated squaring, never from Redei theory, so they can
cross-check it.  The Selmer oracle re-derives the pure 2-Selmer set from
local solvability searches alone, never from the Monsky kernel.  The
norm-form window scans find the fundamental solutions that ``reps`` builds
by Euclid in Z[sqrt(+-2)], by trying every coordinate in a window.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod

from . import cassels
from .arith import SquareFreeN, factorize, squarefree_part
from .errors import NoRepresentation, NotFundamental, TooLarge, VerificationFailed
from .matrices import SelmerTriple
from .reps import Rep2MuTau, RepA8B

_DISC_CAP = 10**6


class BQForm(namedtuple("BQForm", "a b c")):
    """Binary quadratic form a x^2 + b xy + c y^2 for each class a group
    lists; inside, forms are plain triples (a, b, c), which it equals."""

    __slots__ = ()


class ClassGroupReport(namedtuple("ClassGroupReport", "disc order invariant_factors r2 r4 r8")):
    """Order, cyclic structure and 2-power ranks of a form class group."""

    __slots__ = ()


def is_fundamental(disc: int) -> bool:
    """Field discriminants: squarefree 1 mod 4, or 4m with m squarefree 2,3 mod 4."""
    if disc in (0, 1):
        return False
    if disc % 4 == 1:
        return squarefree_part(disc) == disc
    if disc % 4 != 0:
        return False
    m = disc // 4
    return m % 4 in (2, 3) and squarefree_part(m) == m


# ---------------------------------------------------------------------------
# composition and reduction, on triples (a, b, c)
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with a x + b y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0, -a
    return x0, y0, a


def compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Composition of primitive forms of one discriminant (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 5.4.7).

    With d = gcd(a1, a2) = y1*a2 + v*a1, s = (b1 + b2)/2 and
    d1 = gcd(s, d) = x2*s - y2*d, the result is (a1*a2/d1^2, b2 + 2*(a2/d1)*r, c)
    with r = y1*y2*(b2 - s) - x2*c2 mod a1/d1: two extended gcds and no
    search, for either sign of the discriminant.  It is generally unreduced.
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    disc = b1 * b1 - 4 * a1 * c1
    if disc != b2 * b2 - 4 * a2 * c2:
        raise ValueError("discriminants differ")
    s = (b1 + b2) // 2
    y1, _, d = _xgcd(a2, a1)
    x2, y2, d1 = _xgcd(s, d)
    y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * (b2 - s) - x2 * c2) % v1
    b = b2 + 2 * v2 * r
    a = v1 * v2
    return a, b, (b * b - disc) // (4 * a)


def reduce_definite(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical reduced form in the class of a positive-definite form."""
    a, b, c = f
    while True:
        if c < a:
            a, b, c = c, -b, a
        if -a < b <= a:
            break
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    if a == c and b < 0:
        b = -b
    return a, b, c


def _rho(f: tuple[int, int, int], sq: int, disc: int) -> tuple[int, int, int]:
    """One reduction / cycle step (c, b', c') for an indefinite form of
    discriminant disc, sq = isqrt(disc)."""
    _, b, c = f
    ac = abs(c)
    if ac > sq:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = sq - (sq + b) % (2 * ac)
    return c, r, (r * r - disc) // (4 * c)


# ---------------------------------------------------------------------------
# class groups
# ---------------------------------------------------------------------------


def _reduced_definite_forms(disc: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms |b| <= a <= c (b >= 0 if |b| = a or a = c), by b
    and then by the divisors a <= sqrt(ac) of ac = (b^2 - disc)/4 (Cohen, A Course
    in Computational Algebraic Number Theory, 5.3); 3b^2 <= 4ac - b^2 = |disc|."""
    out = []
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        ac = (b * b - disc) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a:
                continue
            c = ac // a
            if gcd(a, b, c) == 1:
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
    return out


def _reduced_indefinite_forms(disc: int) -> list[tuple[int, int, int]]:
    sq = isqrt(disc)
    out = []
    for b in range(1, sq + 1):
        if (disc - b * b) % 4:
            continue
        n4 = (disc - b * b) // 4
        # Reduced window: (sq - b)/2 < |a| <= (sq + b)/2, with |a| | n4.
        for a in range((sq - b) // 2 + 1, (sq + b) // 2 + 1):
            if n4 % a == 0 and gcd(a, b, n4 // a) == 1:
                out += [(a, b, -(n4 // a)), (-a, b, n4 // a)]
    return out


def _within_cap(disc: int) -> int:
    """disc, or TooLarge above the cap on form class groups, before anything factors."""
    if abs(disc) > _DISC_CAP:
        raise TooLarge(f"|disc| = {abs(disc)} exceeds {_DISC_CAP}")
    return disc


class _FormGroup:
    """Finite abelian group of form classes with canonical representatives,
    for |disc| <= _DISC_CAP (``_within_cap``), on triples (a, b, c); the
    classes it lists (``elements`` and ``identity``) are BQForms."""

    def __init__(self, disc: int):
        self.disc = disc
        if disc < 0:
            classes = sorted(_reduced_definite_forms(disc))
            b0 = disc % 2
            identity = (1, b0, (b0 * b0 - disc) // 4)
        else:
            self.sq = sq = isqrt(disc)
            rep: dict[tuple[int, int, int], tuple[int, int, int]] = {}
            for f in _reduced_indefinite_forms(disc):
                if f in rep:
                    continue
                cycle = [f]
                g = _rho(f, sq, disc)
                while g != f:
                    cycle.append(g)
                    if len(cycle) > 100_000:
                        raise VerificationFailed(f"cycle of {f} did not close")
                    g = _rho(g, sq, disc)
                best = min(cycle)
                for h in cycle:
                    rep[h] = best
            self._rep = rep
            classes = sorted(set(rep.values()))
            b0 = sq if (sq - disc) % 2 == 0 else sq - 1
            identity = self.canon((1, b0, (b0 * b0 - disc) // 4))
        self.elements = [BQForm._make(f) for f in classes]
        self.identity = BQForm._make(identity)

    def canon(self, f: tuple[int, int, int]) -> tuple[int, int, int]:
        """The listed class of f: its reduced form, or for disc > 0 the
        representative of the cycle that rho reduces f into."""
        disc = self.disc
        if disc < 0:
            return reduce_definite(f)
        sq = self.sq
        for _ in range(10_000):
            a, b = f[0], f[1]
            if 0 < b <= sq and 2 * abs(a) - b <= sq < 2 * abs(a) + b:
                return self._rep[f]
            f = _rho(f, sq, disc)
        raise VerificationFailed(f"reduction did not converge for {f}")

    def mul(self, f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
        return self.canon(compose(f, g))

    def h4(self) -> int:
        """The 4-rank, from the squaring chain alone: not the odd-q chains
        of ``class_group``."""
        two_chain = _q_rank_chain(self, 2)
        return two_chain[1] if len(two_chain) > 1 else 0

    def composes_distinct(self) -> bool:
        """Whether mul(f, g) = mul(g, f) and mul(mul(f, g), g^-1) = f for the
        first two non-principal classes f, g (f = g when there is only one).

        The squaring chain composes each class only with itself, so this is
        where distinct classes meet.  A composite that is no primitive form
        of the discriminant fails the check instead of reaching ``canon``.
        """
        classes = [f for f in self.elements if f != self.identity][:2]
        if not classes:
            return True
        f, g = classes[0], classes[-1]

        def mul(x, y):
            h = a, b, c = compose(x, y)
            return self.canon(h) if b * b - 4 * a * c == self.disc and gcd(a, b, c) == 1 else None

        fg = mul(f, g)
        g_inverse = self.canon((g[0], -g[1], g[2]))  # the opposite form
        return fg is not None and fg == mul(g, f) and mul(fg, g_inverse) == f

    def power(self, f: tuple[int, int, int], e: int) -> tuple[int, int, int]:
        """f^e for a canonical f, left to right: one composition per bit
        below the top one, and one more per set bit."""
        if e == 0:
            return self.identity
        out = f
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, f)
        return out

    @property
    def order(self) -> int:
        return len(self.elements)


def _q_rank_chain(group: _FormGroup, q: int) -> list[int]:
    """r_{q^a} for a = 1, 2, ... : log_q of successive image-size ratios.

    Each class is raised to the q-th power once: its image is a listed
    class, so that one map carries every level's image to the next.  Stops
    once the image stabilizes (the q-part is exhausted; what remains is the
    prime-to-q part, on which q-th powering is a bijection), and at once
    when q does not divide the order.
    """
    if group.order % q:
        return []
    image = {f: group.power(f, q) for f in group.elements}
    current = set(image)
    ranks = []
    while True:
        nxt = {image[f] for f in current}
        if len(nxt) == len(current):
            break
        ratio = len(current) // len(nxt)
        rank = 0
        while ratio > 1:
            ratio //= q
            rank += 1
        ranks.append(rank)
        current = nxt
    return ranks


def class_group(disc: int) -> ClassGroupReport:
    """Narrow class group of the fundamental discriminant via form classes."""
    if not is_fundamental(_within_cap(disc)):
        raise NotFundamental(f"{disc} is not a fundamental discriminant")
    group = _FormGroup(disc)
    h = group.order
    two_chain = _q_rank_chain(group, 2)
    r2, r4, r8 = (two_chain + [0, 0, 0])[:3]
    # Invariant factors, assembled prime by prime from the rank chains.
    per_prime: dict[int, list[int]] = {}
    for q, e in factorize(h):
        # a q-Sylow subgroup of prime order q is cyclic: no powering needed
        chain = two_chain if q == 2 else [1] if e == 1 else _q_rank_chain(group, q)
        count = chain[0] if chain else 0
        per_prime[q] = [sum(1 for r in chain if r > i) for i in range(count)]
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = [
        prod(q ** exps[i] for q, exps in per_prime.items() if i < len(exps)) for i in range(width)
    ]
    return ClassGroupReport(
        disc=disc,
        order=h,
        invariant_factors=tuple(sorted(factors)),
        r2=r2,
        r4=r4,
        r8=r8,
    )


def form_group(m: int) -> _FormGroup:
    """The form class group of Q(sqrt(m)) for square-free m != 0, 1.

    The discriminant passes the cap unfactored, then ``is_fundamental``
    checks it: NotFundamental when m is not square-free.
    """
    disc = m if m % 4 == 1 else 4 * m
    if not is_fundamental(_within_cap(disc)):
        raise NotFundamental(f"{disc} is not a fundamental discriminant")
    return _FormGroup(disc)


def h4_oracle(m: int) -> int:
    """4-rank of the narrow class group of Q(sqrt(m)), by composition."""
    return form_group(m).h4()


# ---------------------------------------------------------------------------
# norm forms: window scans
# ---------------------------------------------------------------------------


def window_2mu2_tau2(n: int) -> tuple[int, int]:
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


def window_neg(m: int) -> Rep2MuTau:
    """Representation m = 2*mu^2 - tau^2 with minimal mu >= 1, for m < 0."""
    if m >= 0:
        raise ValueError("m must be negative")
    for mu in range(1, 2 * isqrt(-m) + 3):
        t2 = 2 * mu * mu - m
        tau = isqrt(t2)
        if tau * tau == t2:
            return Rep2MuTau(mu, tau, m)
    raise NoRepresentation(f"{m} != 2*mu^2 - tau^2 for any integers")


def window_a2_8b2(n: int) -> RepA8B:
    """Representation n = a^2 + 8*b^2 with smallest b >= 0, a odd positive."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be positive odd")
    for b in range(isqrt(n // 8) + 1):
        a2 = n - 8 * b * b
        a = isqrt(a2)
        if a * a == a2:
            return RepA8B(a, b, n)
    raise NoRepresentation(f"{n} != a^2 + 8*b^2 for any integers")


# ---------------------------------------------------------------------------
# descent oracle: local solvability over the representative grid
# ---------------------------------------------------------------------------


def _candidate_triples(sf: SquareFreeN) -> list[SelmerTriple]:
    """The representative grid: ``SelmerTriple.of`` over every pair of
    divisors of n, the subset products of its primes."""
    divs = sf.odd_divisors()
    return [SelmerTriple.of(sf.is_even, a, b) for a in divs for b in divs]


def selmer_oracle(sf: SquareFreeN) -> set[SelmerTriple]:
    """Pure 2-Selmer set from torsor local solvability at every v | 2n oo.

    Enumerates the representative grid of square-class triples and keeps
    those whose torsor admits a certified local point at the real place, at
    2 and at every odd prime dividing n.  Good places are skipped (smooth
    reduction plus the Hasse bound guarantees points there).
    """
    places = (None, 2, *sf.primes)
    out = set()
    for lam in _candidate_triples(sf):
        ts = cassels.TorsorSystem(lam, sf.n)
        if all(cassels.local_point_search(ts, v) is not None for v in places):
            out.add(lam)
    return out


# ---------------------------------------------------------------------------
# rational point search
# ---------------------------------------------------------------------------


def point_search(n: int, height: int) -> list[tuple[Fraction, Fraction]]:
    """All nontrivial points on y^2 = x^3 - n^2 x with x = u/v^2, |u| <= height,
    v <= sqrt(height).

    Exact integer arithmetic throughout; 2-torsion is excluded and the
    representative with y > 0 is reported for each x.
    """
    from fractions import Fraction

    if height > 10**6:
        raise TooLarge("height bound above 10^6")
    n2 = n * n
    found = []
    for v in range(1, isqrt(height) + 1):
        v4 = v * v * v * v
        n2v4 = n2 * v4
        for u in range(-height, height + 1):
            if u == 0 or gcd(u, v) != 1:
                continue
            rhs = u * (u * u - n2v4)
            if rhs <= 0:
                continue  # rhs = 0 is 2-torsion
            s = isqrt(rhs)
            if s * s == rhs:
                found.append((Fraction(u, v * v), Fraction(s, v * v * v)))
    found.sort(key=lambda pt: (pt[0], pt[1]))
    return found

