"""cocycle-calculus: coboundary decisions, extension classes, transport,
extension-group powers and unit decompositions over Z[sqrt(2)].

Every round holds the same multiset of 16 jobs: four carry sweeps and one
table sweep (`is_coboundary` on every cocycle of a (B, A) pair, each witness
re-checked; three pairs are drawn, one is the largest, the 64-carry pair
(Z/2)^2 -> Z/8), two `ext_group` class counts, two transports with
`verify_cocycle`, four `ExtensionGroup.power` + `element_order` jobs with
exponents in the bands [1, 10), [10, 100), [100, 1000) and [1000, 10000],
and three `unit_decompose` + `is_cot` jobs on units +-lambda^k of
Z[sqrt(2)] with |k| in the bands [1, 100), [100, 1000), [1000, 3000].
Every job builds its cocycles, extensions and rings itself, so an execution
never reuses state an earlier one left behind.  Group shapes are drawn from
seeded decks (`deck.Deck`) and exponents from strata, so the seed changes the
inputs but hardly the cost of a run.
"""

from __future__ import annotations

import itertools
import math
import random

import oracles as O
from deck import Deck

NAME = "cocycle-calculus"
TRACE_ROUNDS = 1
LAM = (1, 1)
SHAPES = ((2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2))
SMALL = ((2,), (3,), (4,), (2, 2))
AUTO_SHAPES = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 2, 2))
POWER_BANDS = ((1, 10), (10, 100), (100, 1000), (1000, 10_000))
FIXED_SWEEP = ((2, 2), (8,))
UNIT_BANDS = ((1, 100), (100, 1000), (1000, 3000))
MAX_CARRIES = 64
STRATA = 8


def _order(shape) -> int:
    return math.prod(shape)


def _carries(b, a):
    """Every carry target map on (B, A): one A-element per torsion factor."""
    elems = O.ab_elements(a)
    return [dict(enumerate(ts)) for ts in itertools.product(elems, repeat=len(b))]


SWEEP_PAIRS = [(b, a) for b in SHAPES for a in SHAPES if _order(a) ** len(b) <= MAX_CARRIES]
EXT_PAIRS = [(b, a) for b in SHAPES for a in SHAPES if _order(b) <= 6 and _order(a) <= 6 and _order(a) ** len(b) <= MAX_CARRIES]


# ---------------------------------------------------------------------------
# input generation (no library calls)


def _rand_elem(shape, rng):
    return tuple(rng.randrange(d) for d in shape)


def _rand_auto(shape, rng):
    """Integer matrix of a random automorphism of a cyclic or elementary group."""
    if len(shape) == 1:
        n = shape[0]
        return ((rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1]),),)
    k = len(shape)
    elems = O.ab_elements(shape)
    while True:
        m = tuple(tuple(rng.randrange(2) for _ in range(k)) for _ in range(k))
        if len({_apply(m, shape, x) for x in elems}) == len(elems):
            return m


def _apply(matrix, shape, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) % shape[i] for i, row in enumerate(matrix))


def _defect_table(b, a, psi, targets):
    """carry(x, y) + psi(xy) - psi(x) - psi(y): cohomologous to the carry."""
    table = {}
    for x in O.ab_elements(b):
        for y in O.ab_elements(b):
            d = O.ab_add(a, psi[O.ab_add(b, x, y)], O.ab_neg(a, O.ab_add(a, psi[x], psi[y])))
            table[(x, y)] = O.ab_add(a, d, O.carry_value(b, a, targets, x, y))
    return table


def _unit(k: int, negative: bool):
    u = O.ring_power(O.ZSqrt(2), LAM, k)
    return (-u[0], -u[1]) if negative else u


def _stratified(rng, lo: int, hi: int, r: int) -> int:
    """A draw from [lo, hi) in stratum (3r mod STRATA): every STRATA
    consecutive rounds cover the band evenly, so a run's exponent mix, and
    with it the run's cost, varies little from seed to seed."""
    stratum = (3 * r) % STRATA
    return lo + int((hi - lo) * (stratum + rng.random()) / STRATA)


def generate(seed: int, rounds: int) -> list[list[tuple]]:
    order = random.Random(f"{NAME}:{seed}:order")
    sweeps = Deck(order, SWEEP_PAIRS)
    table_pairs = Deck(order, itertools.product(SMALL, SMALL))
    exts = Deck(order, EXT_PAIRS)
    autos = Deck(order, itertools.product(AUTO_SHAPES, AUTO_SHAPES))
    powers = Deck(order, itertools.product(SHAPES, SHAPES))
    out = []
    for r in range(rounds):
        rng = random.Random(f"{NAME}:{seed}:{r}")
        jobs = []
        for _ in range(3):
            jobs.append(("carry_sweep",) + sweeps.draw())
        jobs.append(("carry_sweep",) + FIXED_SWEEP)
        b, a = table_pairs.draw()
        psi = {x: _rand_elem(a, rng) for x in O.ab_elements(b)}
        psi[(0,) * len(b)] = (0,) * len(a)
        tables = tuple((t, _defect_table(b, a, psi, t)) for t in _carries(b, a))
        jobs.append(("table_sweep", b, a, tables))
        for _ in range(2):
            jobs.append(("ext_classes",) + exts.draw() + (rng.randint(1, 4),))
        for _ in range(2):
            b, a = autos.draw()
            targets = {i: _rand_elem(a, rng) for i in range(len(b))}
            jobs.append(("transport", b, a, targets, _rand_auto(a, rng), _rand_auto(b, rng)))
        for lo, hi in POWER_BANDS:
            b, a = powers.draw()
            targets = {i: _rand_elem(a, rng) for i in range(len(b))}
            x = (_rand_elem(b, rng), _rand_elem(a, rng))
            jobs.append(("ext_power", b, a, targets, x, _stratified(rng, lo, hi, r)))
        for lo, hi in UNIT_BANDS:
            k = _stratified(rng, lo, hi, r) * rng.choice((1, -1))
            negative = rng.random() < 0.5
            jobs.append(("unit", k, negative, _unit(k, negative)))
        rng.shuffle(jobs)
        out.append(jobs)
    return out


# ---------------------------------------------------------------------------
# set-up


class Context:
    def __init__(self, T):
        self.T = T
        self.groups = {shape: T.FgAbelian(shape) for shape in SHAPES}
        self.expected: dict = {}

    def expect(self, key, compute):
        if key not in self.expected:
            self.expected[key] = compute()
        return self.expected[key]


def setup(T, rounds) -> Context:
    return Context(T)


# ---------------------------------------------------------------------------
# jobs


def run(ctx: Context, job):
    T, G = ctx.T, ctx.groups
    kind = job[0]
    if kind == "carry_sweep":
        b, a = G[job[1]], G[job[2]]
        return [T.is_coboundary(T.CarryCocycle(b, a, t)) for t in _carries(job[1], job[2])]
    if kind == "table_sweep":
        b, a = G[job[1]], G[job[2]]
        out = []
        for _, table in job[3]:
            f = T.FunctionTable(b, a, table)
            out.append((T.verify_cocycle(f).ok, T.is_coboundary(f)))
        return out
    if kind == "ext_classes":
        b, a = G[job[1]], G[job[2]]
        ext = T.ext_group(b, a)
        reps = []
        for t in _carries(job[1], job[2]):
            f = T.CarryCocycle(b, a, t)
            if not any(T.is_coboundary(T.cocycle_product(f, T.cocycle_inverse(g))) is not None for g in reps):
                reps.append(f)
        free = T.ext_group(T.FgAbelian((), job[3]), a)
        return ext, len(reps), free
    if kind == "transport":
        b, a = G[job[1]], G[job[2]]
        g = T.CarryCocycle(b, a, job[3])
        psi = T.AbHom(a, a, job[4])
        eta = T.AbHom(b, b, job[5])
        moved = T.transport_cocycle(g, psi, eta)
        return moved, T.verify_cocycle(moved).ok
    if kind == "ext_power":
        e = T.build_extension(T.CarryCocycle(G[job[1]], G[job[2]], job[3]))
        return e.power(job[4], job[5]), e.element_order(job[4])
    if kind == "unit":
        # a fresh ring: parse_ring would hand back a cached ring whose unit
        # group remembers every decomposition made earlier in the process
        ring = T.QuadraticOrder(2)
        units = T.unit_group(ring)
        return T.unit_decompose(units, job[3]), T.is_cot(T.CarryCocycle(units, units, {0: job[3]}))
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# oracles


def _splits(ctx, b, a, targets) -> bool:
    key = ("splits", b, a, tuple(sorted(targets.items())))
    f = lambda x, y: O.carry_value(b, a, targets, x, y)  # noqa: E731
    return ctx.expect(key, lambda: O.splits_by_section_search(f, b, a))


def _witness_ok(b, a, f, psi) -> bool:
    """psi(xy) psi(x)^-1 psi(y)^-1 = f(x, y) on every pair, in own arithmetic."""
    values = {x: psi(x) for x in O.ab_elements(b)}
    for x in values:
        for y in values:
            delta = O.ab_add(a, values[O.ab_add(b, x, y)], O.ab_neg(a, O.ab_add(a, values[x], values[y])))
            if delta != f(x, y):
                return False
    return True


def _verdict_ok(ctx, b, a, targets, f, witness) -> bool:
    if witness is None:
        return not _splits(ctx, b, a, targets)
    return _splits(ctx, b, a, targets) and _witness_ok(b, a, f, witness)


def check(ctx: Context, job, result) -> bool:
    kind = job[0]
    if kind == "carry_sweep":
        b, a = job[1], job[2]
        carries = _carries(b, a)
        return len(result) == len(carries) and all(
            _verdict_ok(ctx, b, a, t, lambda x, y, t=t: O.carry_value(b, a, t, x, y), w)
            for t, w in zip(carries, result)
        )
    if kind == "table_sweep":
        b, a = job[1], job[2]
        return len(result) == len(job[3]) and all(
            ok and _verdict_ok(ctx, b, a, t, lambda x, y, table=table: table[(x, y)], w)
            for (t, table), (ok, w) in zip(job[3], result)
        )
    if kind == "ext_classes":
        ext, classes, free = result
        order = O.ext_order(job[1], job[2])
        return math.prod(ext.invariant_factors) == order and ext.free_rank == 0 and classes == order and (
            free.invariant_factors == () and free.free_rank == 0
        )
    if kind == "transport":
        b, a, targets, psi_m, eta_m = job[1:]
        moved, verified = result
        eta_inv = {_apply(eta_m, b, x): x for x in O.ab_elements(b)}
        return verified and all(
            moved(x, y) == _apply(psi_m, a, O.carry_value(b, a, targets, eta_inv[x], eta_inv[y]))
            for x in O.ab_elements(b)
            for y in O.ab_elements(b)
        )
    if kind == "ext_power":
        b, a, targets, x, k = job[1:]
        power, order = result
        f = lambda u, v: O.carry_value(b, a, targets, u, v)  # noqa: E731
        identity = ((0,) * len(b), (0,) * len(a))
        own_order = next(d for d in range(1, _order(b) * _order(a) + 1) if O.ext_power(f, a, b, x, d) == identity)
        return power == O.ext_power(f, a, b, x, k) and order == own_order
    if kind == "unit":
        k, negative = job[1], job[2]
        (t, free), cot = result
        return t == int(negative) and free == ({0: k} if k else {}) and cot == (not negative and k % 2 == 0)
    return False
