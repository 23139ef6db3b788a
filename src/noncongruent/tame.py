"""2-rank and 4-rank of the tame kernel K2 of quadratic integer rings.

Both ranks are read off the symbol table of |m|.  The 2-rank counts which
of +-1, +-2 are norms from Q(sqrt(m)); the 4-rank comes from the sizes of
the divisor-counting sets V1 and V2, read off ranks of the symbol matrix B
with its targets appended.  The sets are listed from one kernel of that
matrix, and (for cross-checking) by testing the defining Hilbert-symbol
conditions divisor by divisor.
"""

from __future__ import annotations

from collections import namedtuple

from . import f2linalg, matrices
from .arith import SquareFreeN, factor_squarefree, hilbert, legendre
from .errors import OutOfRange, VerificationFailed
from .reps import least_2mu2_tau2


class TameKernelReport(namedtuple("TameKernelReport", "m r2 r4 v1 v2 mu_used")):
    """Ranks of the 2-primary part of the tame kernel of Q(sqrt(m))."""

    __slots__ = ()


def _factored(m: int, sf: SquareFreeN | None = None) -> SquareFreeN:
    """|m| factored, for square-free m with |m| > 2: ``sf`` when given."""
    if abs(m) <= 2:
        raise OutOfRange(f"|m| must exceed 2, got {m}")
    if sf is None:
        return factor_squarefree(abs(m))
    if sf.n != abs(m):
        raise ValueError(f"the factored {sf.n} is not |{m}|")
    return sf


def _mu(m: int, sf: SquareFreeN) -> int | None:
    """The least mu >= 1 of 2*mu^2 - tau^2 = m, for m of either sign, or
    None when 2 is not a norm from Q(sqrt(m)), that is when some odd prime
    of m is not +-1 mod 8; sf is |m| factored."""
    return least_2mu2_tau2(m, sf).mu if sf.eligibility else None


def _counted(m: int, sf: SquareFreeN | None) -> tuple:
    """(sf, r2, r4, mu, [B | b_(-1) | b_2 | b_mu], |V1|, |V2|), by ``r4_tame``'s ranks."""
    sf = _factored(m, sf)
    table = matrices.symbol_table(sf)
    k, minus_one, two = sf.k, table.minus_one, table.two
    norms = 1 + (two == 0) + (m > 0 and (minus_one == 0) + (minus_one == two))
    r2 = k - (m < 0) + norms.bit_length() - 1
    mu = _mu(m, sf)
    b_mu = 0 if mu is None else sum((legendre(mu, p) < 0) << i for i, p in enumerate(sf.primes))
    twist = {1: 0, -1: minus_one, 2: two, -2: minus_one ^ two}[m // sf.odd_part]
    rows = tuple(
        r | (minus_one >> i & 1 | (two >> i & 1) << 1 | (b_mu >> i & 1) << 2) << k
        for i, r in enumerate(matrices.plus_diagonal(table.a, twist))
    )
    size1 = (1 << k + 2 - f2linalg.rank(rows, k + 2)) // norms
    rank_b = f2linalg.rank(rows, k + 1)
    in_span = mu is not None and f2linalg.rank([r & ~(2 << k) for r in rows], k + 3) == rank_b
    size2 = (1 << k + 1 - rank_b) // (1 + (m > 0 and minus_one == 0)) if in_span else 0
    count = size1 + size2
    r4 = count.bit_length() - 2 - (m < 0)
    if count & (count - 1) or r4 < 0:
        raise VerificationFailed(f"|V1|+|V2| = {count} is not a power of 2 of at least {2 << (m < 0)} for m = {m}")
    return sf, r2, r4, mu, rows, size1, size2


def tame_report(m: int) -> TameKernelReport:
    """Full report: r2, r4, the V sets and the mu that was used (if any).

    |m| is factored once and read through one symbol table.  e in {+-1, +-2}
    is a norm from Q(sqrt(m)) exactly when (e > 0 or m > 0) and (e / p) = 1
    at every odd p | m (the symbol at 2 follows by Hilbert reciprocity); the
    norms among them form a group of order 1, 2 or 4, which gives r2.

    V1 and V2 hold psi(x) for the x with B x = b_eps, B = A + D_(m/m') and
    bit i of b_eps the additive (eps / p_i), so b_(eps eps') = b_eps + b_eps'.  One
    kernel of [B | b_(-1) | b_2 | b_mu] holds every such x: a kernel vector
    (x, alpha, beta, gamma) has B x = alpha b_(-1) + beta b_2 + gamma b_mu.
    gamma = 0 puts psi(x) in V1 (eps in {+-1, +-2}), gamma = 1 with beta = 0
    in V2 (eps = +-mu), and for m < 0 alpha = 1 makes the divisor negative.
    V2 is empty when 2 is not a norm from Q(sqrt(m)).  Sets whose sizes
    differ from those ``r4_tame`` reads off ranks raise VerificationFailed.
    """
    sf, r2, r4, mu, rows, size1, size2 = _counted(m, None)
    k = sf.k
    v1, v2 = set(), set()
    for v in f2linalg.kernel(rows, k + 3):
        alpha, beta, gamma = v >> k & 1, v >> k + 1 & 1, v >> k + 2 & 1
        d = matrices.psi(v, sf.primes)  # psi reads only the k bits of x
        d = -d if m < 0 and alpha else d
        if not gamma:
            v1.add(d)
        elif mu is not None and not beta:
            v2.add(d)
    if (len(v1), len(v2)) != (size1, size2):
        raise VerificationFailed(f"|V1|, |V2| = {len(v1)}, {len(v2)}, not {size1}, {size2}, for m = {m}")
    return TameKernelReport(m, r2, r4, frozenset(v1), frozenset(v2), mu)


def r4_tame(m: int, sf: SquareFreeN | None = None) -> int:
    """4-rank of the tame kernel from ranks rho(...) of the named columns
    of [B | b_(-1) | b_2 | b_mu] (``tame_report``); |m| is factored once,
    or not at all when ``sf`` (|m| factored, as the ``corollaries`` sweep
    hands over the sieve's record) is given.

    psi maps the kernel of [B | b_(-1) | b_2], 2^(k + 2 - rho(B, b_(-1), b_2))
    vectors (x, alpha, beta), onto V1, injectively on x, and on (x, alpha)
    for m < 0 (alpha the sign); each fibre has the size of {(alpha, beta) :
    alpha b_(-1) + beta b_2 = 0}, or {beta : beta b_2 = 0} for m < 0, the
    norms of r2.  V2 is not empty exactly when mu exists and rho(B, b_(-1),
    b_mu) = rho(B, b_(-1)); psi then maps a coset of the kernel of [B | b_(-1)]
    onto it, with fibres {alpha : alpha b_(-1) = 0}, or points for m < 0.  So
    log2 |V1| = k - rho(B, b_(-1), b_2) + rho(b_(-1), b_2) and log2 |V2| =
    k - rho(B, b_(-1)) + rho(b_(-1)), or k + 1 - rho(B, b_(-1), b_2) + rho(b_2)
    and k + 1 - rho(B, b_(-1)) for m < 0; r4 = log2(|V1| + |V2|) - 1 - [m < 0].
    """
    return _counted(m, sf)[2]


def v_sets_direct(m: int) -> tuple[frozenset[int], frozenset[int]]:
    """V1 and V2 by brute per-divisor Hilbert-symbol checks (dual route).

    Tests the defining condition (d, -m)_p = (eps/p) for all p | m' directly,
    without any linear algebra; used to cross-check ``tame_report``.
    """
    sf = _factored(m)
    primes = sf.primes
    candidates = sf.odd_divisors()
    if m < 0:
        candidates = candidates + [-d for d in candidates]

    def matches(d: int, eps: int) -> bool:
        return all(
            hilbert(d, -m, p) == legendre(eps, p) for p in primes
        )

    eps1 = (1, -1, 2, -2) if m > 0 else (1, 2)
    v1 = frozenset(d for d in candidates if any(matches(d, e) for e in eps1))
    mu = _mu(m, sf)
    if mu is None:
        return v1, frozenset()
    if m > 0:
        v2 = frozenset(
            d for d in candidates if any(matches(d, e * mu) for e in (1, -1))
        )
    else:
        v2 = frozenset(d for d in candidates if matches(d, mu))
    return v1, v2
