"""Cassels pairing on the pure 2-Selmer group in the rank-two regime.

The pairing is computed two ways: the closed-form Jacobi-type symbol that
``criteria.classify`` records, and here a product of local factors evaluated
at explicit local points on the genus-one torsor attached to the Selmer
basis, from the d and mu of that verdict.  Every n whose verdict has no d
gets ``NotRankTwo``.  The module also houses a search-based local
solvability decider (with multivariate Hensel certificates) used by the
descent oracle.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import gcd, isqrt, prod

from . import criteria
from .arith import SquareFreeN, hilbert, legendre, split_power, sqrt_2adic
from .criteria import closed_form_pairing  # the one closed form, importable here too
from .errors import NotRankTwo, PrecisionExhausted, VerificationFailed
from .matrices import SelmerTriple
from .reps import Rep2MuTau, sqrt2_mod


class TorsorSystem(namedtuple("TorsorSystem", "lam n")):
    """Three diagonal quadrics in (t, u1, u2, u3) cutting out the torsor.

    Stored as coefficient 4-tuples over (t, u1, u2, u3):
        H1: -n t^2            + d2 u2^2 - d3 u3^2
        H2: -n t^2 - d1 u1^2            + d3 u3^2
        H3: 2n t^2 + d1 u1^2 - d2 u2^2
    H1 + H2 + H3 = 0, so the torsor is the intersection of any two.
    """

    __slots__ = ()

    @property
    def h1(self) -> tuple[int, int, int, int]:
        return (-self.n, 0, self.lam.d2, -self.lam.d3)

    @property
    def h2(self) -> tuple[int, int, int, int]:
        return (-self.n, -self.lam.d1, 0, self.lam.d3)

    @property
    def h3(self) -> tuple[int, int, int, int]:
        return (2 * self.n, self.lam.d1, -self.lam.d2, 0)


class TangentData(namedtuple("TangentData", "form point linear")):
    """A rational point on one quadric plus the tangent plane there.

    ``point`` is a zero Q of ``form``, the full 4-tuple over (t, u1, u2, u3)
    with its zeros included, e.g. (0, 0, 1, 1); ``linear`` holds the
    tangent-form coefficients at Q over the same four variables.
    """

    __slots__ = ()

    def __new__(cls, form: tuple[int, ...], point: tuple[int, ...], linear: tuple[int, ...]):
        if sum(c * x * x for c, x in zip(form, point)) != 0:
            raise ValueError("point does not lie on the quadric")
        if sum(c * x for c, x in zip(linear, point)) != 0:
            raise ValueError("linear form does not vanish at the point")
        return super().__new__(cls, form, point, linear)


class LocalPoint(namedtuple("LocalPoint", "place coords precision minor_val")):
    """A certified local point on a torsor (or a real-solvability witness).

    ``place`` is the prime p, or None for the real place.  For a finite
    place the coordinates are integers modulo p^precision with residuals of
    both forms vanishing there and some 2x2 Jacobian minor of valuation
    minor_val <= (precision - 1) / 2, which guarantees a lift.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# the rank-two pairing basis and its tangent data
# ---------------------------------------------------------------------------


def _rank_two_verdict(sf: SquareFreeN) -> criteria.Verdict:
    """The verdict of n, which must record a distinguished divisor."""
    v = criteria.classify(sf)
    if v.d is None:
        raise NotRankTwo(f"classify({sf.n}) records no distinguished divisor")
    return v


def _pairing_inputs(sf: SquareFreeN) -> tuple[int, tuple[TangentData, TangentData]]:
    """d and the tangent pairs (Q1, L1), (Q3, L3) for the basis element
    (1, n', n'), with d and mu (odd n) taken from the verdict of n.

    The verdict's pairing symbol is never read here: the local factors built
    from these inputs are the independent check of it.  The middle form
    never enters the pairing because its partner divisor is trivial, so
    only the first and third tangents are materialized.
    """
    v = _rank_two_verdict(sf)
    if sf.is_even:
        np_ = sf.odd_part
        t1 = TangentData(form=(-2, 0, 1, -1), point=(0, 0, 1, 1), linear=(0, 0, 1, -1))
        t3 = TangentData(
            form=(4 * np_, 1, -np_, 0),
            point=(np_ - 1, 4 * np_, 2 * np_ + 2, 0),
            linear=(2 * (np_ - 1), 2, -(np_ + 1), 0),
        )
        return v.d, (t1, t3)
    n, mu = sf.n, v.mu
    rep = Rep2MuTau(mu, isqrt(2 * mu * mu - n), n)
    u, w = rep.u, rep.w
    t1 = TangentData(form=(-1, 0, 1, -1), point=(0, 0, 1, 1), linear=(0, 0, 1, -1))
    t3 = TangentData(form=(2 * n, 1, -n, 0), point=(w, n, u, 0), linear=(2 * w, 1, -u, 0))
    return v.d, (t1, t3)


def tangent_data(sf: SquareFreeN) -> tuple[TangentData, TangentData]:
    """The tangent pairs (Q1, L1), (Q3, L3) that the local factors evaluate."""
    return _pairing_inputs(sf)[1]


def pairing_matrix(sf: SquareFreeN) -> tuple[tuple[tuple[int, int], tuple[int, int]], bool]:
    """2x2 Gram matrix of the pairing (multiplicative) and non-degeneracy.

    The diagonal is trivial and the pairing is symmetric, so the matrix is
    [[+1, c], [c, +1]] with c the verdict's closed-form symbol; on a
    two-dimensional space this is non-degenerate exactly when c = -1.
    """
    c = _rank_two_verdict(sf).pairing_symbol
    return ((1, c), (c, 1)), c == -1


# ---------------------------------------------------------------------------
# local pairing factors at the explicit points of the proofs
# ---------------------------------------------------------------------------

_MAX_RETRIES = 4


def _hilbert2(a: int, b: int, n: int, d: int) -> int:
    """(a*sqrt(n) + b, d)_2 for n = 1 mod 8 and odd d.

    sqrt(n) is a root at precision 2^e, known modulo 2^(e-1), so the value
    is known modulo 2^k with k = e - 1 + v_2(a); e doubles while the value's
    unit mod 8 is not pinned down by that.
    """
    extra = split_power(a, 2)[0] if a else 0
    e = 12
    for _ in range(_MAX_RETRIES):
        k = e - 1 + extra
        x = (a * sqrt_2adic(n, e) + b) % (1 << k)
        if x and k - split_power(x, 2)[0] >= 3:
            return hilbert(x, d, 2)
        e *= 2
    raise PrecisionExhausted(f"2-adic symbol of {a}*sqrt({n}) + {b} stayed ambiguous")


def local_factors(sf: SquareFreeN) -> dict[int | None, int]:
    """Local Cassels factors (L1*L3, d)_v of the generator pair, keyed by the
    place: None for the real place, 2, then each p | n in that order; every
    other place gives +1.

    L1 and L3 are the tangent forms of ``tangent_data``, evaluated at the
    explicit local points: for odd n these are (1, 0, sqrt(2), 1) at p | n
    with sqrt(2) = -u/w, and (0, sqrt(n), 1, -1) at p = 2 and the real
    place; the even case uses (1, 0, 2, sqrt(2)) and (0, sqrt(n'), 1, -1).
    """
    d, tangents = _pairing_inputs(sf)
    # At (0, sqrt(N), 1, -1) each form is a*sqrt(N) + b, and so is L1*L3.
    big_n = sf.odd_part
    (a1, b1), (a3, b3) = ((t.linear[1], t.linear[2] - t.linear[3]) for t in tangents)
    a, b = a1 * b3 + a3 * b1, a1 * a3 * big_n + b1 * b3
    # Exact sign of a*sqrt(N) + b: when a and b differ in sign, the larger
    # of a^2*N and b^2 wins.
    positive = a + b > 0 if a * b >= 0 else (a * a * big_n > b * b) == (a > 0)
    factors = {None: 1 if (positive or d > 0) else -1, 2: _hilbert2(a, b, big_n, d)}

    for p in sf.primes:
        if sf.is_even:
            point = (1, 0, 2, sqrt2_mod(p))
        else:
            # u^2 - 2w^2 = n with p | n and p not dividing w, so -u/w is a
            # square root of 2 mod p; it makes L3 a unit.
            w, _, u, _ = tangents[1].point
            point = (1, 0, -u * pow(w, -1, p) % p, 1)
        l1, l3 = (sum(c * x for c, x in zip(t.linear, point)) for t in tangents)
        value = l1 * l3 % p
        if value == 0:
            raise ArithmeticError("tangent product vanished mod p")  # pragma: no cover
        factors[p] = legendre(value, p) if abs(d) % p == 0 else 1
    return factors


def two_symbol_check(n: int, u: int, mu: int) -> tuple[list[int], int]:
    """Both symbols (-u +- sqrt(n), -1)_2 and the target (-mu, -1)_2."""
    rhs = hilbert(-mu, -1, 2)
    return [_hilbert2(a, -u, n, -1) for a in (1, -1)], rhs


def pairing_product(sf: SquareFreeN) -> int:
    """Product of all local factors; must agree with the closed form."""
    return prod(local_factors(sf).values())


# ---------------------------------------------------------------------------
# search-based local solvability with Hensel certificates
# ---------------------------------------------------------------------------


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
        if ts.lam == SelmerTriple(1, 1, 1):
            return LocalPoint(None, (0, 1, 1, 1), 0, 0)
        return LocalPoint(None, None, 0, 0)
    return None


_FRONTIER_CAP = 500_000


def _primitivize(form: list[int], p: int) -> list[int]:
    """Divide out the largest power of p dividing every coefficient."""
    if all(c == 0 for c in form):
        raise ValueError("zero form")  # pragma: no cover
    while all(c % p == 0 for c in form):
        form = [c // p for c in form]
    return form


def _minimize_at_p(ts: TorsorSystem, p: int) -> tuple[list[list[int]], list[int]]:
    """p-minimal model of the torsor: forms with unit content and no variable
    forced to vanish mod p.

    When a form reduces mod p to a unit times a single square c*x_i^2, every
    local solution has p | x_i, so substituting x_i -> p*x_i (and stripping
    contents again) preserves solvability while making the reduction less
    degenerate.  Returns the transformed forms and the per-variable scaling
    exponents mapping new coordinates back to original ones.
    """
    forms = [list(ts.h1), list(ts.h2), list(ts.h3)]
    scales = [0, 0, 0, 0]
    for _ in range(4):
        forms = [_primitivize(f, p) for f in forms]
        forced = None
        for f in forms:
            nonzero = [i for i in range(4) if f[i] % p != 0]
            if len(nonzero) == 1:
                forced = nonzero[0]
                break
        if forced is None:
            break
        for f in forms:
            f[forced] *= p * p
        scales[forced] += 1
    return [_primitivize(f, p) for f in forms], scales


def _choose_pair(forms: list[list[int]], p: int) -> tuple[list[int], list[int]]:
    """Two forms whose reductions mod p are linearly independent, if any."""
    reductions = [[c % p for c in f] for f in forms]
    for i, j in ((0, 2), (0, 1), (1, 2)):
        u, w = reductions[i], reductions[j]
        independent = any(
            (u[a] * w[b] - u[b] * w[a]) % p for a in range(4) for b in range(4)
        )
        if independent:
            return forms[i], forms[j]
    return forms[0], forms[2]


def _local_model(ts: TorsorSystem, p: int) -> tuple[list[int], list[int], list[int]]:
    """The two forms the search at p lifts, and the exponents that scale
    their coordinates back to the torsor's: H1 and H3 at 2, a p-minimal
    pair at odd p."""
    if p == 2:
        return list(ts.h1), list(ts.h3), [0, 0, 0, 0]
    forms, scales = _minimize_at_p(ts, p)
    return *_choose_pair(forms, p), scales


def local_point_search(ts: TorsorSystem, p: int | None) -> LocalPoint | None:
    """Search for a certified local point on the torsor at the prime p, or at
    the real place for None.

    Finite places lift a p-minimized model level by level (see _levels) and
    certify each point as it is made.  Returns None only when some level has
    no solutions at all, which soundly certifies insolvability.  The
    certificate depth is the sufficient bound 2*v_p(4n^2) + 1 plus slack.
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

    With g = 2 at p = 2 and g = 1 otherwise, level m holds the classes
    x mod p^m/g with both forms 0 mod p^m, each standing for its g^3
    residues mod p^m: (x + 2^k*y)^2 = x^2 (mod 2^(k+1)), so at p = 2, x mod
    2^k already decides both forms mod 2^(k+1).  Every 2x2 Jacobian minor is
    4*c_ij*x_i*x_j (the gradient rows are 2*c*x), of valuation e >= 2 at
    p = 2, so no point certifies below level 5 there.  A certificate needs
    e <= (m - 1)/2, so shifting a coordinate by 2^(m-1) moves no minor that
    could certify: the class decides for its eight residues, and the class
    itself is the first.

    The first level, g, keeps the points mod p of _level_one with both
    forms 0 mod g*p; each later level is a lazy lift of the one below.  One
    loop yields the levels from the first that can certify (5 at p = 2, g
    at odd p), so those below it are made depth first, only as far as the
    search draws, in the order of the full levels; it keeps each level it
    yields to lift the next, stops after an empty level and raises
    PrecisionExhausted after the last.  The cap counts residues above level
    g.  Nothing repeats: a child is congruent to its parent, and the
    parents are distinct.
    """
    g, first = (2, 5) if p == 2 else (1, 1)

    def lifted(points, m):
        """The points of level m over the level m - 1 points, lazily."""
        for x in points:
            children = _lift_children(h1, h3, x, p, p ** (m - 1) // g, g)
            for y in children:
                if _eval_form(h1, y) % p**m or _eval_form(h3, y) % p**m:
                    raise VerificationFailed(f"{y} is off the torsor mod {p}^{m}")
            yield from children

    # The filter is the on-torsor check of level g: g*p = p^g.
    points = (
        x for x in _level_one(h1, h3, p)
        if _eval_form(h1, x) % (g * p) == _eval_form(h3, x) % (g * p) == 0
    )
    for m in range(g + 1, first + 1):
        points = lifted(points, m)
    for m in range(first, last + 1):
        level = []
        for x in points:
            level.append(x)
            if m > g and g**3 * len(level) > _FRONTIER_CAP:
                raise PrecisionExhausted(f"frontier blow-up at p = {p}, level {m}")
            yield m, x
        if not level:
            return
        points = lifted(level, m + 1)
    raise PrecisionExhausted(f"no certificate and live frontier at p = {p}, level {last}")


def _level_one(h1, h3, p: int):
    """Every projective solution mod p, one affine patch per unit coordinate,
    made lazily.

    Both forms are diagonal.  With (a, b) the coefficients of x3, the
    combination e = a*h3 - b*h1 has no x3 term (e is h1 or h3 when both
    vanish), so once x1 is fixed e pins x2^2 by a linear condition; then
    each form pins x3^2 the same way.  Every square's roots come from a
    table: O(p) time and memory at every p, 2 included.  The solutions come
    out in the order of an exhaustive lexicographic scan.
    """
    roots: list[list[int]] = [[] for _ in range(p)]
    for x in range(p):
        roots[x * x % p].append(x)
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


def _lift_children(h1, h3, x, p: int, mod: int, g: int):
    """The children of the class x mod `mod` one level up: x + mod*y, with
    y on the three coordinates other than the patch, from one affine system
    over F_p.

    x stands for the points mod g*mod (see _levels) and has both forms 0
    there.  h(x + mod*y) = h(x) + mod*sum(c*y*(2*x + mod*y)), and
    y*(2*x + mod*y) = y*(2*x + mod) (mod g*p): y^2 = y for y in {0, 1} at
    p = 2, and p | mod at odd p.  So the children are the classes mod
    p*mod with h(x)/(g*mod) + sum(c*(2*x + mod)/g*y) = 0 (mod p); at p = 2
    the mod term counts only at mod = 2.  The coordinates of x lie in
    [0, mod), so the children's lie in [0, p*mod).
    """
    # The patch coordinate is the first one equal to 1 with only multiples
    # of p before it; it was frozen at level one and never shifts.
    patch = next(i for i in range(4) if x[i] == 1 and all(x[j] % p == 0 for j in range(i)))
    free = [i for i in range(4) if i != patch]
    rows = [
        [h[i] * (2 * x[i] + mod) // g for i in free] + [-_eval_form(h, x) // (g * mod)]
        for h in (h1, h3)
    ]
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
