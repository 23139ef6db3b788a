"""Cassels pairing on the pure 2-Selmer group in the rank-two regime.

The pairing is computed two ways: the closed-form Jacobi-type symbol that
``criteria.classify`` records, and here a product of local factors evaluated
at explicit local points on the genus-one torsor attached to the Selmer
basis, from the d and mu of that verdict.  Every n whose verdict has no d
gets ``NotRankTwo``.  The factor at 2 is read at the one 2-adic precision
that the norm of the evaluated tangent product fixes.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt, prod

from . import criteria
from .arith import SquareFreeN, hilbert, legendre, split_power, sqrt_2adic
from .criteria import closed_form_pairing  # the one closed form, importable here too
from .errors import NotRankTwo, VerificationFailed
from .reps import Rep2MuTau, sqrt2_mod


class TangentData(namedtuple("TangentData", "form point linear")):
    """A rational point on one quadric plus the tangent plane there.

    ``point`` is a zero Q of ``form``, the full 4-tuple over (t, u1, u2, u3)
    with its zeros included, e.g. (0, 0, 1, 1); ``linear`` holds the
    tangent-form coefficients at Q over the same four variables.
    """

    __slots__ = ()

    def __new__(cls, form: tuple[int, ...], point: tuple[int, ...], linear: tuple[int, ...]):
        if sum(c * x * x for c, x in zip(form, point)) != 0:
            raise VerificationFailed("point does not lie on the quadric")
        if sum(c * x for c, x in zip(linear, point)) != 0:
            raise VerificationFailed("linear form does not vanish at the point")
        return super().__new__(cls, form, point, linear)


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

def _hilbert2(a: int, b: int, n: int, d: int) -> int:
    """(a*sqrt(n) + b, d)_2 for n = 1 mod 8 and odd d, at one precision.

    x = a*sqrt(n) + b and its conjugate lie in Z_2 with product m = b^2 -
    a^2*n, so v_2(x) <= v_2(m).  A root at precision 2^e is known modulo
    2^(e-1), so x is known modulo 2^k with k = e - 1 + v_2(a); e = v_2(m) + 4
    leaves at least 3 known bits above v_2(x), which fix its unit mod 8.
    m = 0 (x = 0, or n a square with b = +-a*sqrt(n)) raises ValueError.
    """
    extra = split_power(a, 2)[0] if a else 0
    e = split_power(b * b - a * a * n, 2)[0] + 4
    return hilbert((a * sqrt_2adic(n, e) + b) % (1 << (e - 1 + extra)), d, 2)


def local_factors(sf: SquareFreeN) -> dict[int | None, int]:
    """Local Cassels factors (L1*L3, d)_v of the generator pair, keyed by the
    place: None for the real place, 2, then each p | n in that order; every
    other place gives +1.

    L1 and L3 are the tangent forms of ``_pairing_inputs``, evaluated at the
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
            raise VerificationFailed(f"tangent product vanished mod {p} for n = {sf.n}")
        factors[p] = legendre(value, p) if abs(d) % p == 0 else 1
    return factors


def two_symbol_check(n: int, u: int, mu: int) -> tuple[list[int], int]:
    """Both symbols (-u +- sqrt(n), -1)_2 and the target (-mu, -1)_2."""
    rhs = hilbert(-mu, -1, 2)
    return [_hilbert2(a, -u, n, -1) for a in (1, -1)], rhs


def pairing_product(sf: SquareFreeN) -> int:
    """Product of all local factors; must agree with the closed form."""
    return prod(local_factors(sf).values())
