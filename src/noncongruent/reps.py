"""Integer representation solvers for the norm form x^2 - 2y^2.

The solutions of 2*mu^2 - tau^2 = n (either sign) are the elements tau +
mu*sqrt(2) of Z[sqrt(2)] with norm -n.  The ring is norm-Euclidean.  For
square-free n such elements exist iff every odd p | n splits (p = +-1 mod
8), and each is a unit times a product of one prime element above every
p | n: sqrt(2) above 2, and gcd(p, sqrt(2) - s) by Euclid or its conjugate
above odd p, where s is the package's one square root of 2 mod p
(``sqrt2_mod``, in closed form).  The 2^(k-1) conjugate choices, up to
conjugating the whole product, are the unit orbits; past 2^21 of them
(k >= 23) TooLarge is raised before any is made.  Conjugation keeps the
norm, so one factor 1 + sqrt(2) in the seed fixes the sign of every
product, and 3 + 2*sqrt(2) steps each product to its smallest sqrt(2)
coordinate.  One solver, ``least_2mu2_tau2``, takes n of either sign: the
minimum over the orbits, with mu >= 1 (so (2, 3) at n = -1, whose minimum
is 1), is the solution that the one window scan in ``oracles`` finds, and
``rep_2mu2_tau2`` signs its mu mod 4 for the criterion.
The root also gives ``z2_jacobi``, the oracle of the even pairing symbol.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import SquareFreeN, factor_squarefree
from .errors import IllDefined, NoRepresentation, NoRoot, NotCoprime, TooLarge

# Elements x + y*sqrt(2) of Z[sqrt(2)] are pairs (x, y): coordinate 0 is x.
_Z2 = tuple[int, int]

# The most conjugate choices ``_products`` multiplies out: 2^21 products,
# k = 22 odd primes, in about 5 s and 0.5 GB.
_MOST_CHOICES = 2**21


class Rep2MuTau(namedtuple("Rep2MuTau", "mu tau n")):
    """n = 2*mu^2 - tau^2, checked when made: ``least_2mu2_tau2`` gives the
    least mu >= 1 and tau >= 0 for n of either sign, ``rep_2mu2_tau2`` the
    sign of mu normalized mod 4 for n > 0.

    It carries the linked n = u^2 - 2*w^2 with u = 2*mu - tau and w = tau - mu,
    since (2*mu - tau)^2 - 2*(tau - mu)^2 = 2*mu^2 - tau^2."""

    __slots__ = ()

    def __new__(cls, mu: int, tau: int, n: int):
        if 2 * mu * mu - tau * tau != n:
            raise ValueError("not a representation")
        return tuple.__new__(cls, (mu, tau, n))

    @property
    def u(self) -> int:
        return 2 * self.mu - self.tau

    @property
    def w(self) -> int:
        return self.tau - self.mu


def orbit_step_2mu2(mu: int, tau: int) -> tuple[int, int]:
    """Action of the fundamental unit 3 + 2*sqrt(2) on 2*mu^2 - tau^2 = n."""
    return 3 * mu + 2 * tau, 4 * mu + 3 * tau


# ---------------------------------------------------------------------------
# arithmetic in Z[sqrt(2)]
# ---------------------------------------------------------------------------

def _smallest(a: _Z2) -> _Z2:
    """The element of a's orbit under the units of Z[sqrt(2)] with the least
    |coordinate 1|, the coefficient of sqrt(2).

    Along the orbit under e = 3 + 2*sqrt(2) the coordinate is A*e^j + B*e^-j,
    whose absolute value falls and then rises, so stepping by e, then by
    e^-1 = 3 - 2*sqrt(2), while it falls ends at the minimum.  The steps make
    it 2x + 3y and 3y - 2x, whose squares are below y^2 exactly when
    (x + y)(x + 2y) < 0 and (x - y)(x - 2y) < 0.
    """
    x, y = a
    while (x + y) * (x + 2 * y) < 0:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    while (x - y) * (x - 2 * y) < 0:
        x, y = 3 * x - 4 * y, 3 * y - 2 * x
    return x, y


def _gcd(a: _Z2, b: _Z2) -> _Z2:
    """A gcd by Euclid: Z[sqrt(2)] is norm-Euclidean, since the rounded quotient
    leaves a remainder of at most 1/2 of the divisor's |norm|."""
    while b != (0, 0):
        nb = b[0] * b[0] - 2 * b[1] * b[1]
        # a / b = a * conj(b) / N(b), rounded coordinate by coordinate.
        x, y = a[0] * b[0] - 2 * a[1] * b[1], a[1] * b[0] - a[0] * b[1]
        if nb < 0:
            x, y, nb = -x, -y, -nb
        qx, qy = (2 * x + nb) // (2 * nb), (2 * y + nb) // (2 * nb)
        a, b = b, (a[0] - qx * b[0] - 2 * qy * b[1], a[1] - qx * b[1] - qy * b[0])
    return a


@lru_cache(maxsize=4096)
def sqrt2_mod(p: int) -> int:
    """The larger square root s of 2 mod an odd prime p = +-1 mod 8; NoRoot
    at any other p.

    At p = 7 mod 8, s = 2^((p+1)/4), since 2^((p-1)/2) = 1.  At p = 1 mod 8,
    s = z + 1/z = z - z^3 with z = g^((p-1)/8) for a non-residue g: z^4 = -1,
    so s^2 = z^2 + 2 + z^-2 = 2.  The search for g ends at the least
    non-residue, or at a factor of a composite p.
    """
    if p % 8 == 7:
        s = pow(2, (p + 1) >> 2, p)
    elif p % 8 == 1:
        g = 3
        while pow(g, p >> 1, p) == 1:
            g += 1
        z = pow(g, p >> 3, p)
        s = z * (1 - z * z) % p
    else:
        raise NoRoot(f"2 is not a quadratic residue mod {p}")
    return max(s, p - s)


@lru_cache(maxsize=4096)
def _prime_element(p: int) -> _Z2:
    """An element of Z[sqrt(2)] of norm +-p, for an odd prime p that splits:
    gcd(p, p - s + sqrt(2)) with s = ``sqrt2_mod(p)``, which reduction mod
    the prime sends to 0 when it sends sqrt(2) to s."""
    return _smallest(_gcd((p, 0), (p - sqrt2_mod(p), 1)))


def z2_jacobi(x: int, y: int, primes: tuple[int, ...]) -> int:
    """The symbol ((x + y*sqrt(2)) / m) for m the product of the distinct odd
    ``primes``, each +-1 mod 8: the product of the Legendre symbols
    ((x + y*s) / p) with s = ``sqrt2_mod(p)``, each by Euler's criterion;
    the oracle of ``criteria``'s congruence mod 16 for ((2 - sqrt(2)) / m).

    The value at p does not depend on the root when the norm x^2 - 2y^2 is
    a nonzero square mod p, since the other root gives the conjugate; a
    non-residue norm raises IllDefined, and one that p divides NotCoprime.
    """
    norm, result = x * x - 2 * y * y, 1
    for p in primes:
        if pow(norm, p >> 1, p) != 1:
            if norm % p == 0:
                raise NotCoprime(f"{p} divides the argument")
            raise IllDefined(f"norm {norm} is a non-residue mod {p}")
        if pow(x + y * sqrt2_mod(p), p >> 1, p) != 1:
            result = -result
    return result


def _products(m: int, sf: SquareFreeN | None) -> list[_Z2]:
    """One element of norm -m in each unit orbit of Z[sqrt(2)], for
    square-free m != 0 of either sign: a prime element above each prime of m
    multiplied out over the 2^(k-1) conjugate choices, up to conjugating the
    whole product.  The seed is sqrt(2) above 2, for even m, times the first
    odd prime's element; each later element doubles the list, its element
    before its conjugate.  ``sf`` is |m| factored or None; raises ValueError
    at m = 0 or for another factored |m|, NotSquareFree, NoRepresentation if
    an odd p | m does not split, or TooLarge past ``_MOST_CHOICES``."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if sf is None:
        sf = factor_squarefree(abs(m))
    elif sf.n != abs(m):
        raise ValueError(f"the factored {sf.n} is not |{m}|")
    try:
        elements = list(map(_prime_element, sf.primes))
    except NoRoot:
        raise NoRepresentation(f"a prime of {m} does not split in Z[sqrt(2)]") from None
    # Conjugating the whole product keeps |coordinates|, and the conjugate
    # of sqrt(2) is -sqrt(2): so 2 and the first odd prime take one choice.
    if 2 ** (len(elements) - 1) > _MOST_CHOICES:
        raise TooLarge(f"{m} has 2^{len(elements) - 1} unit orbits, more than {_MOST_CHOICES}")
    # Every product has the norm of the elements' product (sqrt(2)'s is -2),
    # whose sign one factor 1 + sqrt(2) (norm -1) in the seed fixes.
    norm = -2 if sf.is_even else 1
    for x, y in elements:
        norm *= x * x - 2 * y * y
    a, b = (1, 1) if norm == m else (1, 0)
    if sf.is_even:  # times sqrt(2)
        a, b = 2 * b, a
    rest = iter(elements)
    x, y = next(rest, (1, 0))  # the first odd prime's element, or 1 at k = 0
    products = [(a * x + 2 * b * y, a * y + b * x)]
    for x, y in rest:
        products = [(a * x + 2 * b * s, a * s + b * x) for a, b in products for s in (y, -y)]
    return products


def _least(m: int, sf: SquareFreeN | None) -> tuple[int, int]:
    """(mu, tau) with 2*mu^2 - tau^2 = m, the least mu >= 1 and tau >= 0:
    the element tau + mu*sqrt(2) of norm -m with the least |coordinate 1|,
    but (2, 3) at m = -1.  ``sf`` and the errors are those of ``_products``."""
    products = _products(m, sf)
    # Products of one norm with equal least |coordinate 1| have equal |coordinate 0|.
    tau, mu = _smallest(products.pop())
    for a in products:
        x, y = _smallest(a)
        if y * y < mu * mu:
            tau, mu = x, y
    # The orbit of 1 has mu = 0 and next mu = +-2, at 3 +- 2*sqrt(2).
    return (abs(mu), abs(tau)) if mu else (2, 3)


def least_2mu2_tau2(m: int, sf: SquareFreeN | None = None) -> Rep2MuTau:
    """m = 2*mu^2 - tau^2 with the least mu >= 1 and tau >= 0, for
    square-free m != 0 of either sign ((2, 3, -1) at m = -1): the solution
    that ``oracles.window_2mu2_tau2`` finds.  ``sf``, |m| factored, when
    known, spares factoring it; the errors are those of ``_products``."""
    return Rep2MuTau(*_least(m, sf), m)


def rep_2mu2_tau2(n: int, d: int, sf: SquareFreeN | None = None) -> Rep2MuTau:
    """Fundamental representation n = 2*mu^2 - tau^2 with mu = d mod 4.

    Requires 2 to be a norm from Q(sqrt(n)); mu is odd for odd n, so exactly
    one choice of sign matches d mod 4.  ``sf``, n factored, when known,
    spares factoring n.
    """
    if n <= 0 or d % 2 == 0:
        raise ValueError("n must be positive and d odd")
    mu, tau = _least(n, sf)
    if mu % 2 == 1 and (mu - d) % 4 != 0:
        mu = -mu
    return Rep2MuTau(mu, tau, n)
