"""Independent brute-force ground truth.

Narrow class groups are realized concretely as form class groups of binary
quadratic forms: reduced positive-definite forms for negative discriminants,
reduction cycles of indefinite forms for positive ones (proper equivalence,
which matches the narrow group canonically).  The indefinite window is
searched only up to |a| <= sqrt(-ac), since |a| -> |c| maps it onto itself.
2-power ranks come from counting images of iterated squaring, never from
Redei theory, so they can cross-check it; a square takes one extended gcd,
not the two of a general composition, and every form and class is a plain
triple (a, b, c).  The Selmer oracle re-derives the pure 2-Selmer set from
local solvability searches alone, never from the Monsky kernel: this
module holds the torsors and their certified local point search, which
lifts residues mod p^m one level at a time by one Hensel row at every
prime, 2 included, and certifies each by a multivariate Hensel criterion;
it runs once per place and square class of (n, d1, d2, d3).  The model
searched at p is closed form: d1*d2*d3 is a square of square-free
factors, so an odd p || n divides none of the d_i or two; with none it is
H1 and H3, and with all but d_i, p | u_i at every local point, so it is
u_i -> p*u_i with both forms divided by p.  The
answers at every place stay in one process table, cleared at 2^16 keys;
the square-root tables mod p live for one oracle call.  ``is_norm``
factors e and m and tests (e, m)_v at every place that can carry a -1,
the reference that the symbol routes are checked against; only the tests
call it.  The norm-form window scans try every coordinate in a window
and return plain tuples: the one of 2*mu^2 - tau^2 = m, for m of either
sign, finds the least mu >= 1 that ``reps`` builds by Euclid in
Z[sqrt(2)], and that of a^2 + 8*b^2 is the ``proposition`` suite's source
of b.  Nothing here comes from the package but ``arith`` and ``errors``,
so no oracle runs the code it checks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache
from itertools import product
from math import gcd, isqrt, prod

from .arith import SelmerTriple, SquareFreeN, factorize, hilbert, split_power, squarefree_part
from .errors import (
    NoRepresentation,
    NotFundamental,
    PrecisionExhausted,
    TooLarge,
    VerificationFailed,
)

_DISC_CAP = 10**6


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


def _square(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """compose(f, f) by one extended gcd.

    With f = g, gcd(a, a) = |a| has y1 = 0, so d1 = gcd(b, |a|) = x*b +
    y*|a|, v = a/d1 and r = -x*c mod v give (v^2, b + 2*v*r, c'): the same
    unreduced triple as ``compose``, whose second gcd this is.
    """
    a, b, c = f
    disc = b * b - 4 * a * c
    x, _, d1 = _xgcd(b, abs(a))
    v = a // d1
    r = -x * c % v
    b2 = b + 2 * v * r
    a2 = v * v
    return a2, b2, (b2 * b2 - disc) // (4 * a2)


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
    """Reduced primitive forms (a, b, c) with 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b, by b and then by the divisors
    |a| <= sqrt(n4) of n4 = (disc - b^2)/4 = -ac.

    The window is closed under |a| -> n4/|a| = |c|: 2|c| = (sqrt(disc) - b)
    (sqrt(disc) + b)/(2|a|) lies strictly between sqrt(disc) - b and
    sqrt(disc) + b exactly when 2|a| does.  So each divisor a <= sqrt(n4)
    with c = n4/a gives (a, b, -c), (-a, b, c) and, unless c = a, the
    mirrors (c, b, -a), (-c, b, a).
    """
    sq = isqrt(disc)
    out = []
    for b in range(2 - disc % 2, sq + 1, 2):  # b = disc (mod 2): disc is 0 or 1 mod 4
        n4 = (disc - b * b) // 4
        for a in range((sq - b) // 2 + 1, isqrt(n4) + 1):
            if n4 % a == 0 and gcd(a, b, n4 // a) == 1:
                c = n4 // a
                out += [(a, b, -c), (-a, b, c)]
                if c != a:
                    out += [(c, b, -a), (-c, b, a)]
    return out


def _fundamental(disc: int) -> int:
    """disc, checked for the form class groups: TooLarge above the cap, before
    anything factors, then NotFundamental unless ``is_fundamental``."""
    if abs(disc) > _DISC_CAP:
        raise TooLarge(f"|disc| = {abs(disc)} exceeds {_DISC_CAP}")
    if not is_fundamental(disc):
        raise NotFundamental(f"{disc} is not a fundamental discriminant")
    return disc


class _FormGroup:
    """Finite abelian group of form classes with canonical representatives,
    for |disc| <= _DISC_CAP (``_fundamental``), on triples (a, b, c).

    ``classes`` (sorted) and ``principal`` are the canonical triples that
    the rank chains and ``composes_distinct`` walk.  The principal class is
    that of (1, b0, (b0^2 - disc)/4) with b0 = disc mod 2, for either sign:
    reduced when disc < 0, walked into its cycle by ``canon`` when disc > 0.
    """

    def __init__(self, disc: int):
        self.disc = disc
        if disc < 0:
            classes = sorted(_reduced_definite_forms(disc))
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
        self.classes = classes
        b0 = disc % 2
        self.principal = self.canon((1, b0, (b0 * b0 - disc) // 4))

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
        classes = [f for f in self.classes if f != self.principal][:2]
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
        """f^e for a canonical f, left to right: one squaring (``_square``)
        per bit below the top one, and one composition more per set bit."""
        if e == 0:
            return self.principal
        out = f
        for bit in bin(e)[3:]:
            out = self.canon(_square(out))
            if bit == "1":
                out = self.mul(out, f)
        return out

    @property
    def order(self) -> int:
        return len(self.classes)


def _q_rank_chain(group: _FormGroup, q: int) -> list[int]:
    """r_{q^a} for a = 1, 2, ... : log_q of successive image-size ratios.

    Each class is raised to the q-th power once, by ``power``: its image is
    a listed class, so that one map carries every level's image to the next.  Stops once the image
    stabilizes (the q-part is exhausted; what remains is the prime-to-q
    part, on which q-th powering is a bijection), and at once when q does
    not divide the order.
    """
    if group.order % q:
        return []
    image = {f: group.power(f, q) for f in group.classes}
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
    group = _FormGroup(_fundamental(disc))
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
    return _FormGroup(_fundamental(m if m % 4 == 1 else 4 * m))


def h4_oracle(m: int) -> int:
    """4-rank of the narrow class group of Q(sqrt(m)), by composition."""
    return form_group(m).h4()


# ---------------------------------------------------------------------------
# norm forms: membership by factoring, window scans
# ---------------------------------------------------------------------------


def is_norm(e: int, m: int) -> bool:
    """True iff e is a norm from Q(sqrt(m)), i.e. (e, m)_v = +1 everywhere.

    Only places dividing 2, infinity, e and m can carry a nontrivial symbol,
    so the check is finite; it factors e and m to find them.
    """
    if e == 0 or m == 0:
        raise ValueError("arguments must be nonzero")
    primes = {p for x in (e, m) for p, _ in factorize(abs(x)) if p != 2}
    return all(hilbert(e, m, p) == 1 for p in (None, 2, *sorted(primes)))


def window_2mu2_tau2(m: int) -> tuple[int, int, int]:
    """(mu, tau, m) with m = 2*mu^2 - tau^2, the least mu >= 1 and tau >= 0,
    for m != 0 of either sign.

    The unit 3 + 2*sqrt(2) reduces any solution into mu in [sqrt(m/2),
    (1+sqrt(2))*sqrt(m/2)] for m > 0, and into 1 <= mu <= 2*sqrt(|m|) + 2
    for m < 0, so scanning that window is a complete search.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    if m > 0:
        lo, hi = isqrt((m - 1) // 2) + 1, isqrt(m // 2) + isqrt(m) + 2
    else:
        lo, hi = 1, 2 * isqrt(-m) + 2
    for mu in range(lo, hi + 1):
        t2 = 2 * mu * mu - m
        tau = isqrt(t2)
        if tau * tau == t2:
            return mu, tau, m
    raise NoRepresentation(f"{m} != 2*mu^2 - tau^2 for any integers")


def window_a2_8b2(n: int) -> tuple[int, int, int]:
    """(a, b, n) with n = a^2 + 8*b^2, smallest b >= 0 and a odd positive."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be positive odd")
    for b in range(isqrt(n // 8) + 1):
        a2 = n - 8 * b * b
        a = isqrt(a2)
        if a * a == a2:
            return a, b, n
    raise NoRepresentation(f"{n} != a^2 + 8*b^2 for any integers")


# ---------------------------------------------------------------------------
# search-based local solvability with Hensel certificates
# ---------------------------------------------------------------------------


class TorsorSystem(namedtuple("TorsorSystem", "lam n")):
    """Three diagonal quadrics in (t, u1, u2, u3) cutting out the torsor.

    H1 and H3 are stored as coefficient 4-tuples over (t, u1, u2, u3):
        H1: -n t^2            + d2 u2^2 - d3 u3^2
        H2: -n t^2 - d1 u1^2            + d3 u3^2
        H3: 2n t^2 + d1 u1^2 - d2 u2^2
    H1 + H2 + H3 = 0, so the torsor is the intersection of any two, and
    H1 and H3 are the pair every search starts from (``_local_model``).
    """

    __slots__ = ()

    @property
    def h1(self) -> tuple[int, int, int, int]:
        return (-self.n, 0, self.lam.d2, -self.lam.d3)

    @property
    def h3(self) -> tuple[int, int, int, int]:
        return (2 * self.n, self.lam.d1, -self.lam.d2, 0)


class LocalPoint(namedtuple("LocalPoint", "place coords precision minor_val")):
    """A certified local point on a torsor (or a real-solvability witness).

    ``place`` is the prime p, or None for the real place.  For a finite
    place the coordinates are integers modulo p^precision with residuals of
    both forms vanishing there and some 2x2 Jacobian minor of valuation
    minor_val <= (precision - 1) / 2, which guarantees a lift.
    """

    __slots__ = ()


def _eval_form(coeffs, x) -> int:
    return (
        coeffs[0] * x[0] * x[0]
        + coeffs[1] * x[1] * x[1]
        + coeffs[2] * x[2] * x[2]
        + coeffs[3] * x[3] * x[3]
    )


def _jacobian_minor_val(h1, h3, x, p: int, cap: int) -> int:
    """Min p-valuation over the 2x2 minors of the Jacobian at x, capped:
    that of their gcd, which is 0 (valuation cap) when every minor is."""
    g1 = [2 * c * xi for c, xi in zip(h1, x)]
    g3 = [2 * c * xi for c, xi in zip(h3, x)]
    det = gcd(*(g1[i] * g3[j] - g1[j] * g3[i] for i in range(4) for j in range(i + 1, 4)))
    val = 0
    while val < cap and det % p == 0:
        det //= p
        val += 1
    return val


def _certified(h1, h3, x, p: int, m: int) -> int | None:
    """Hensel certificate: minor valuation e with m >= 2e + 1, else None."""
    e = _jacobian_minor_val(h1, h3, x, p, (m + 1) // 2)
    return e if m >= 2 * e + 1 else None


def _real_point(ts: TorsorSystem) -> LocalPoint | None:
    """Real solvability by sign analysis: solvable exactly when d2 > 0.

    With n > 0 and d1*d2*d3 a square, d2 < 0 forces one of the three forms
    to be definite, and d2 > 0 admits the witness t = 0 (all d_i > 0) or
    t = 1, u3 = 0 (d1, d3 < 0).
    """
    if ts.lam.d2 > 0:
        if ts.lam == (1, 1, 1):
            return LocalPoint(None, (0, 1, 1, 1), 0, 0)
        return LocalPoint(None, None, 0, 0)
    return None


# The most points that one level above level one may hold before the search gives up.
_FRONTIER_CAP = 500_000


def _local_model(ts: TorsorSystem, p: int) -> tuple[list[int], list[int], list[int]]:
    """The two forms the search at p lifts, and the exponents that scale
    their coordinates back to the torsor's, in closed form.

    d1*d2*d3 is a square of square-free factors, so an odd p divides none
    of the d_i or exactly two.  With none (and at p = 2) the model is H1
    and H3.  With all but d_i and p || n, the form without u_i is 0 mod p
    and the other two are d_i*u_i^2 mod p, so p | u_i at every local point:
    the model is u_i -> p*u_i with H1 and H3 then divided by p, which are
    independent mod p.  Any other odd p (p^2 | n, or p | d_i but not n)
    raises VerificationFailed.
    """
    h1, h3, scales = list(ts.h1), list(ts.h3), [0, 0, 0, 0]
    if p == 2:
        return h1, h3, scales
    hit = [d % p == 0 for d in ts.lam]
    if ts.n % (p * p) == 0 or sum(hit) not in (0, 2) or (any(hit) and ts.n % p):
        raise VerificationFailed(f"no closed-form model at p = {p} for {ts}")
    if any(hit):
        i = 1 + hit.index(False)
        scales[i] = 1
        h1[i] *= p * p
        h3[i] *= p * p
        h1, h3 = [c // p for c in h1], [c // p for c in h3]
    return h1, h3, scales


def local_point_search(ts: TorsorSystem, p: int | None) -> LocalPoint | None:
    """Search for a certified local point on the torsor at the prime p, or at
    the real place for None.

    Finite places lift the closed-form model of ``_local_model`` (H1 and
    H3, or u_i -> p*u_i divided by p where p divides two d_i) level by
    level (see _levels) and certify each point as it is made.  Returns None
    only when some level has no solutions at all, which soundly certifies
    insolvability.  The certificate depth is the sufficient bound
    2*v_p(4n^2) + 1 plus slack.
    """
    if p is None:
        return _real_point(ts)
    h1, h3, scales = _local_model(ts, p)
    vp4n2 = 2 * split_power(ts.n, p)[0] + (2 if p == 2 else 0)
    depth = 2 * vp4n2 + 1 + 4
    for m, x in _levels(h1, h3, p, depth + 1):
        e = _certified(h1, h3, x, p, m)
        if e is not None:
            coords = tuple((x[i] * p ** scales[i]) % p**m for i in range(4))
            return LocalPoint(p, coords, m, e)
    return None


def _levels(h1, h3, p: int, last: int):
    """(m, x) for each point x of each level m from the first that can
    certify up to last, as it is made; every point made is checked on the
    torsor.

    Level m holds the residues x mod p^m with both forms 0 mod p^m, at
    every p.  Every 2x2 Jacobian minor is 4*c_ij*x_i*x_j (the gradient rows
    are 2*c*x), of valuation e >= 2 at p = 2, and a certificate needs
    e <= (m - 1)/2, so no point certifies below level 5 there.

    Level one keeps the points mod p of _level_one on the torsor; each
    later level is a lazy lift of the one below.  One loop yields the
    levels from the first that can certify (5 at p = 2, one at odd p), so
    those below it are made depth first, only as far as the search draws,
    in the order of the full levels; it keeps each level it yields to lift
    the next, stops after an empty level and raises PrecisionExhausted
    after the last.  The cap counts the points above level one.  Nothing
    repeats: a child is congruent to its parent, and the parents are
    distinct.
    """
    first = 5 if p == 2 else 1

    def lifted(points, m):
        """The points of level m over the level m - 1 points, lazily."""
        for x in points:
            children = _lift_children(h1, h3, x, p, p ** (m - 1))
            for y in children:
                if _eval_form(h1, y) % p**m or _eval_form(h3, y) % p**m:
                    raise VerificationFailed(f"{y} is off the torsor mod {p}^{m}")
            yield from children

    points = (x for x in _level_one(h1, h3, p) if _eval_form(h1, x) % p == _eval_form(h3, x) % p == 0)
    for m in range(2, first + 1):
        points = lifted(points, m)
    for m in range(first, last + 1):
        level = []
        for x in points:
            level.append(x)
            if m > 1 and len(level) > _FRONTIER_CAP:
                raise PrecisionExhausted(f"frontier blow-up at p = {p}, level {m}")
            yield m, x
        if not level:
            return
        points = lifted(level, m + 1)
    raise PrecisionExhausted(f"no certificate and live frontier at p = {p}, level {last}")


@lru_cache(maxsize=8)
def _square_roots(p: int) -> tuple[tuple[int, ...], ...]:
    """The square roots mod p of each residue, in increasing order: x and
    p - x for each 0 < x < p/2 at odd p.  One O(p) table per prime, kept
    for the last eight primes (n <= 10^5 has at most six) and cleared by
    each ``selmer_oracle`` call, so the tables held sum to O(n)."""
    if p == 2:
        return (0,), (1,)
    roots: list[tuple[int, ...]] = [()] * p
    roots[0] = (0,)
    for x in range(1, (p + 1) // 2):
        roots[x * x % p] = (x, p - x)
    return tuple(roots)


def _level_one(h1, h3, p: int):
    """Every projective solution mod p, one affine patch per unit coordinate,
    made lazily.

    Both forms are diagonal.  With (a, b) the coefficients of x3, the
    combination e = a*h3 - b*h1 has no x3 term (e is h1 or h3 when both
    vanish), so once x1 is fixed e pins x2^2 by a linear condition; then
    each form pins x3^2 the same way.  Every square's roots come from the
    table of ``_square_roots``: O(p) time and memory at every p, 2
    included, once per prime while it stays cached.  The solutions come out
    in the order of an exhaustive lexicographic scan.
    """
    roots = _square_roots(p)
    every = range(p)
    a, b = h1[3] % p, h3[3] % p
    if a or b:
        e = [(a * g - b * f) % p for f, g in zip(h1, h3)]
    else:
        e = [c % p for c in (h1 if h1[2] % p else h3)]
    inv_a = pow(a or b or 1, -1, p)
    inv_e = pow(e[2] or 1, -1, p)

    def mids(r):
        """The x2 with r + e2*x2^2 = 0 (mod p)."""
        if e[2]:
            return roots[-r * inv_e % p]
        return every if r % p == 0 else ()

    def lasts(r1, r3):
        """The x3 with r1 + a*x3^2 = r3 + b*x3^2 = 0 (mod p)."""
        if a:
            s = -r1 * inv_a % p
            return roots[s] if (r3 + b * s) % p == 0 else ()
        if b:
            return roots[-r3 * inv_a % p] if r1 % p == 0 else ()
        return every if r1 % p == 0 and r3 % p == 0 else ()

    # The first unit coordinate is 1 and those before it are 0, which picks
    # a unique representative of every projective point.
    for x1 in every:
        s1 = x1 * x1
        for x2 in mids(e[0] + e[1] * s1):
            s2 = x2 * x2
            r1 = h1[0] + h1[1] * s1 + h1[2] * s2
            r3 = h3[0] + h3[1] * s1 + h3[2] * s2
            for x3 in lasts(r1, r3):
                yield 1, x1, x2, x3
    for x2 in mids(e[1]):
        s2 = x2 * x2
        for x3 in lasts(h1[1] + h1[2] * s2, h3[1] + h3[2] * s2):
            yield 0, 1, x2, x3
    for x3 in lasts(h1[2], h3[2]):
        yield 0, 0, 1, x3
    if not (a or b):
        yield 0, 0, 0, 1


def _lift_children(h1, h3, x, p: int, mod: int):
    """The children of the residue x mod `mod` one level up: x + mod*y, with
    y on the three coordinates other than the patch, from one affine system
    over F_p.

    x has both forms 0 mod `mod`, a power of p above 1, and
    h(x + mod*y) = h(x) + mod*sum(c*y*(2*x + mod*y)), with p | mod.  So the
    children are the residues mod p*mod with
    h(x)/mod + sum(2*c*x*y) = 0 (mod p), the same row at every p.  The
    coordinates of x lie in [0, mod), so the children's lie in [0, p*mod).
    """
    # The patch coordinate is the first unit: it was frozen at 1 at level
    # one, with zeros before it, and only the others shift, by multiples of p.
    patch = next(i for i, c in enumerate(x) if c % p)
    free = [i for i in range(4) if i != patch]
    rows = [[2 * h[i] * x[i] for i in free] + [-_eval_form(h, x) // mod] for h in (h1, h3)]
    out = []
    for y in _solve_mod_p(rows, p):
        cand = list(x)
        for axis, coord in enumerate(free):
            cand[coord] += mod * y[axis]
        out.append(tuple(cand))
    return out


def _solve_mod_p(rows, p: int) -> list[tuple[int, int, int]]:
    """The solutions y in F_p^3 of a0*y0 + a1*y1 + a2*y2 = b (mod p) over
    the rows (a0, a1, a2, b), in increasing y0 + p*y1 + p^2*y2.

    Elimination runs row by row, and each pivot row is 0 to the left of its
    pivot, so a pivot coordinate depends only on higher ones: running the
    free coordinates with the highest one outermost lists the solutions in
    order.
    """
    pivots: list[tuple[int, list[int]]] = []  # (column, row scaled to 1 there)
    for row in rows:
        row = [c % p for c in row]
        for col, piv in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, piv)]
        col = next((i for i in range(3) if row[i]), None)
        if col is None:
            if row[3]:
                return []
            continue
        inv = pow(row[col], -1, p)
        pivots.append((col, [c * inv % p for c in row]))
    pivots.sort(reverse=True)
    free = [i for i in (2, 1, 0) if all(i != col for col, _ in pivots)]
    out = []
    for values in product(range(p), repeat=len(free)):
        y = [0, 0, 0]
        for i, value in zip(free, values):
            y[i] = value
        for col, row in pivots:
            y[col] = (row[3] - row[0] * y[0] - row[1] * y[1] - row[2] * y[2]) % p
        out.append(tuple(y))
    return out


# ---------------------------------------------------------------------------
# descent oracle: local solvability over the representative grid
# ---------------------------------------------------------------------------


def _candidate_triples(sf: SquareFreeN) -> list[SelmerTriple]:
    """The representative grid: ``SelmerTriple.of`` over every pair of
    divisors of n, the subset products of its primes."""
    divs = sf.odd_divisors()
    return [SelmerTriple.of(sf.is_even, a, b) for a in divs for b in divs]


def _square_class(x: int, p: int) -> tuple[int, int]:
    """Square class of the nonzero integer x in Q_p: v_p(x) mod 2 with the
    unit part mod 8 at 2, with its Euler criterion at odd p."""
    e, u = split_power(x, p)
    return e & 1, u % 8 if p == 2 else pow(u, p >> 1, p)


# Search outcomes by key (p, cls(n), cls(d1), cls(d2), cls(d3)); at most 128 have p = 2.
_SOLVABLE: dict[tuple, bool] = {}
_SOLVABLE_CAP = 1 << 16


def _solvable(ts: TorsorSystem, key: tuple) -> bool:
    """Whether the torsor has a point over Q_p, p = key[0], searched once per key."""
    found = _SOLVABLE.get(key)
    if found is None:
        if len(_SOLVABLE) >= _SOLVABLE_CAP:
            _SOLVABLE.clear()
        found = _SOLVABLE[key] = local_point_search(ts, key[0]) is not None
    return found


def selmer_oracle(sf: SquareFreeN) -> set[SelmerTriple]:
    """Pure 2-Selmer set from torsor local solvability at every v | 2n oo.

    Enumerates the representative grid of square-class triples and keeps
    those whose torsor admits a local point at the real place, at 2 and at
    every odd prime dividing n.  Good places are skipped (smooth reduction
    plus the Hasse bound guarantees points there).  Each variable of H1, H2
    and H3 carries one coefficient, the same in all three forms, so scaling
    n or a d_i by a square of Q_p is a change of variables; the search is
    sound both ways, so it runs once per place and square-class key, and
    its yes/no answer serves every triple with that key in the process,
    until ``_SOLVABLE`` reaches its cap and is cleared.  Square classes and
    the square-root tables of n's primes are made once per call.
    """
    _square_roots.cache_clear()
    places = (2, *sf.primes)
    classes = cache(lambda x: tuple(_square_class(x, p) for p in places))
    out = set()
    for lam in _candidate_triples(sf):
        ts = TorsorSystem(lam, sf.n)
        if _real_point(ts) is not None and all(
            _solvable(ts, key) for key in zip(places, *map(classes, (sf.n, *lam)))
        ):
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

