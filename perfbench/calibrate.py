"""A fixed reference computation that tells how fast the machine runs now.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by up
to two times over seconds to minutes as other tenants load its cores.  Timed
between jobs, `reference()` measures that drift; `run.py` divides each
round's job latencies by the round's median reference time and multiplies by
NOMINAL_S, so every latency reads as if the machine ran at the speed where
`reference()` takes NOMINAL_S.  The reference uses no library code, only the
benchmark's own restated arithmetic, and does the same kind of work as the
library: small-matrix products over Q, Z/m and Z[sqrt(2)] (the ring layer),
tuple arithmetic in a finite abelian group and an integer-indexed subgroup
closure (the finite-group engine).  A change to the library cannot change
its time.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracles as O

NOMINAL_S = 0.001  # about its median time on the 2-vCPU machine it was tuned on

_MATRICES = (
    (O.Rat(), [[Fraction(i + 2 * j - 3, 1 + (i * j) % 5) for j in range(4)] for i in range(4)]),
    (O.ZMod(5), [[(i * 3 + j * j) % 5 for j in range(4)] for i in range(4)]),
    (O.ZSqrt(2), [[((i + j) % 3 - 1, (i * j) % 2) for j in range(3)] for i in range(3)]),
)
_FACTORS = (4, 6, 10)
_TABLE_MOD = 61


def reference() -> int:
    acc = 0
    for ring, m in _MATRICES:
        p = m
        for _ in range(3):
            p = O.mat_mul(ring, p, m)
        acc += len(repr(p[0][0]))
    x, y = (1, 5, 3), (3, 1, 7)
    for _ in range(120):
        x = O.ab_add(_FACTORS, x, y)
        y = O.ab_add(_FACTORS, y, O.ab_neg(_FACTORS, x))
    seen, frontier = {1}, [1]
    while frontier:
        a = frontier.pop()
        for g in (2, 7):
            b = a * g % _TABLE_MOD
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return acc + sum(x) + sum(y) + len(seen)


def sample() -> float:
    """Seconds one `reference()` call takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
