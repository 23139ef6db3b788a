"""A fixed reference loop that measures how fast the host runs Python now.

The benchmark's host is a share of a larger machine whose speed changes
under it: the same pinned pure-Python pass over the scan blocks took from
5.7 to 10.1 s within two minutes, with wall time and CPU time moving
together, and a 1 ms loop timed back to back switches between about 1.6
and 2.4 ms in spells of 0.2 s to several seconds.  A timed run therefore
runs `reference()` between items (outside the timed calls), at least after
each EVERY_S of timed items, and scales each item's time by REF_S over the
mean of the two reference times around it: as if the host ran
`reference()` in exactly REF_S while it ran that item.  The reference is the
benchmark's own code, never the program's, and does the same kind of work
as the program's hot paths (Miller-Rabin, trial division, Jacobi symbols on
integers up to 1e13), so a host slowdown slows both alike while a change to
the program moves only the items.
"""

from __future__ import annotations

import statistics
import time

import gen

REF_S = 0.001  # nominal time of one reference(); scaled times assume it
EVERY_S = 0.02  # run reference() after each 20 ms of timed items
SETUP_SAMPLES = 9  # reference() calls before and after a set-up

_NUMS = tuple(10**12 + 39 + 2 * k for k in range(80))
_COMPOSITE = 999_999_000_001 * 7


def reference() -> int:
    """Fixed work: 0.7 to 1.8 ms on the sandbox the benchmark was tuned on."""
    count = 0
    for m in _NUMS:
        count += gen.is_prime(m) + gen.jacobi(m, 1_000_003)
    d = 3
    while d < 5000:
        if _COMPOSITE % d == 0:
            count += 1
        d += 2
    return count


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def median_reference(samples: int = SETUP_SAMPLES) -> float:
    return statistics.median(time_reference() for _ in range(samples))


def scaled(seconds: list[float], ref_times: list[float]) -> list[float]:
    """Measured seconds as reference-speed seconds, given each one's reference time."""
    return [t * REF_S / r for t, r in zip(seconds, ref_times, strict=True)]
