"""finite-fo: the int-indexed finite-group engine and first-order evaluation.

Write path: `from_group` builds (full table up to TABLE_LIMIT = 600
elements, memo above).  Read path on the prebuilt groups: centre, derived
subgroup, lower central series, normal closures, commutator width and the
brute-force Fitting subgroup.  First-order jobs evaluate one assignment of a
library formula, naively (`eval_with_stats`) on models of order at most 12
and semantically (`semantic_eval`, model built inside the job) on models up
to order 128.  Group orders run from 8 to 1728.

Every round holds each engine (kind, group) pair once.  A normal-closure job
closes two random elements of each diagonal order class of its group, since
a closure's cost grows with that order and one element per job would make
a run's cost depend on the seed; for the same reason naive assignments
are drawn from decks over the model's elements (`deck.Deck`).  First-order
jobs are per assignment: one per naive formula and model, three per
semantic formula and model.  So about three quarters of the jobs are
first-order evaluations, most of them about a millisecond long: `job_p50_ms`
is an FO latency (ROADMAP item 2).  `job_p90_ms` falls among the slowest
naive evaluations and the lower central series of the large groups (item
3), a cluster of jobs of similar cost.  Three semantic assignments, not
two, put it there: with two, it fell on the gap between the centre of
T_2(Z/11) and the order-1728 build, and moved by a third from run to run.

Read and first-order jobs start from a fresh instance of their prebuilt
group, made before the timed span: its table (if any) is built, and its
product, inverse and conjugacy-class memos are empty.  The expected
answers come from a child process (`OracleWorker`), so that the oracle's own
group copies do not count in the benchmark process's peak RSS.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import random

import oracles as O
from deck import Deck

NAME = "finite-fo"
PASSES = 4  # fewer, longer passes: preparing fresh groups takes half the wall time
TRACE_ROUNDS = 1
BUILD_CHECKS = 24
TABLE_LIMIT = 600  # triadeform.finitegroup.TABLE_LIMIT: larger groups are memo groups

# id -> (ring spec, n) of a triangular matrix group T_n(Z/m)
GROUPS = {
    "t3-z2": ("Z/2", 3),  # order 8, nilpotent of class 2
    "t2-z3": ("Z/3", 2),  # order 12
    "t2-z4": ("Z/4", 2),  # order 16
    "t2-z5": ("Z/5", 2),  # order 80
    "t2-z8": ("Z/8", 2),  # order 128
    "t2-z11": ("Z/11", 2),  # order 1100, memo
    "t3-z6": ("Z/6", 3),  # order 1728, memo
}
PREBUILT = ("t3-z2", "t2-z3", "t2-z5", "t2-z8", "t2-z11", "t3-z6")
PRIME = {"t2-z3", "t2-z5", "t2-z11"}  # integral domains: the Fitting description applies

# (kind, group ids); every round holds each pair once
ROUND = (
    ("build", ("t2-z3", "t2-z4", "t2-z5", "t2-z11", "t3-z6")),
    ("center", ("t2-z11", "t3-z6")),
    ("derived", ("t2-z11", "t3-z6")),
    ("lower_central", ("t2-z11", "t3-z6")),
    ("normal_closure", ("t2-z11", "t3-z6")),
    ("width", ("t2-z3", "t2-z5", "t2-z8")),
    ("fitting", ("t2-z3", "t2-z5")),
    ("naive", ("t3-z2", "t2-z3")),
    # semantic evaluation on the naive models too, so both evaluators run
    # on the same small models
    ("semantic", ("t3-z2", "t2-z3", "t2-z5", "t2-z8")),
)
# formulas per model, each evaluated once per round at an element drawn
# from a deck
NAIVE_FORMULAS = {
    "t3-z2": (("ncl", 1), ("ncl", 2), ("ncl", 3), ("gprime", 1)),
    "t2-z3": (("ncl", 1), ("ncl", 2), ("gprime", 1)),
}
SEMANTIC_FORMULAS = (("ncl", 1), ("ncl", 2), ("ncl", 3), ("gprime", 1), ("gprime", 2))
SEMANTIC_ASSIGNMENTS = 3  # per formula, model and round
CLOSURE_SEEDS = 2  # per diagonal order class and normal-closure job


def _modulus(gid: str) -> int:
    return int(GROUPS[gid][0][2:])


def _rand_matrix(gid: str, rng: random.Random):
    """Rows of a random invertible upper-triangular matrix over Z/m."""
    m = _modulus(gid)
    n = GROUPS[gid][1]
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(units)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(m)
    return tuple(tuple(r) for r in rows)


def _closure_classes(gid: str) -> list[list[tuple]]:
    """The diagonals of the group's matrices, grouped by the lcm of their
    entries' multiplicative orders.  The size of an element's normal
    closure, and with it the cost of computing it, grows with that order."""
    m, n = _modulus(gid), GROUPS[gid][1]
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]

    def order(u: int) -> int:
        k, x = 1, u
        while x != 1:
            x, k = x * u % m, k + 1
        return k

    classes: dict[int, list[tuple]] = {}
    for diag in itertools.product(units, repeat=n):
        classes.setdefault(math.lcm(*(order(u) for u in diag)), []).append(diag)
    return [classes[k] for k in sorted(classes)]


def _closure_seed(gid: str, diagonals: list[tuple], rng: random.Random):
    """Rows of a random matrix with a diagonal from `diagonals`."""
    m, n = _modulus(gid), GROUPS[gid][1]
    diag = rng.choice(diagonals)
    return tuple(tuple(diag[i] if j == i else rng.randrange(m) if j > i else 0 for j in range(n)) for i in range(n))


def _all_matrices(gid: str) -> list[tuple]:
    """Rows of every element of a naive model's group."""
    m, n = _modulus(gid), GROUPS[gid][1]
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for diag in itertools.product(units, repeat=n):
        for entries in itertools.product(range(m), repeat=len(upper)):
            rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(upper, entries):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


def generate(seed: int, rounds: int) -> list[list[tuple]]:
    # a naive formula's cost depends on its assignment, and each round holds
    # one per formula and model: draw the assignments from decks over the
    # model's elements, so that every run evaluates them alike
    order = random.Random(f"{NAME}:{seed}:order")
    naive = {(gid, f): Deck(order, _all_matrices(gid)) for gid, fs in NAIVE_FORMULAS.items() for f in fs}
    out = []
    for r in range(rounds):
        rng = random.Random(f"{NAME}:{seed}:{r}")
        jobs = []
        for kind, gids in ROUND:
            for gid in gids:
                if kind == "naive":
                    jobs.extend((kind, gid, f, naive[gid, f].draw()) for f in NAIVE_FORMULAS[gid])
                elif kind == "semantic":
                    for _ in range(SEMANTIC_ASSIGNMENTS):
                        jobs.extend((kind, gid, f, _rand_matrix(gid, rng)) for f in SEMANTIC_FORMULAS)
                elif kind == "normal_closure":
                    # CLOSURE_SEEDS per order class, so every job closes
                    # small and large closures alike
                    seeds = tuple(
                        _closure_seed(gid, diagonals, rng)
                        for diagonals in _closure_classes(gid)
                        for _ in range(CLOSURE_SEEDS)
                    )
                    jobs.append((kind, gid, seeds))
                elif kind in ("width", "fitting"):
                    jobs.append((kind, gid, 2))
                else:
                    jobs.append((kind, gid))
        rng.shuffle(jobs)
        out.append(jobs)
    return out




# ---------------------------------------------------------------------------
# set-up


def _groups(T) -> dict:
    return {gid: T.TriMatrixGroup(T.parse_ring(spec), n) for gid, (spec, n) in GROUPS.items()}


def _formulas(T) -> dict:
    out = {}
    for name, c in {f for fs in NAIVE_FORMULAS.values() for f in fs} | set(SEMANTIC_FORMULAS):
        out[(name, c)] = T.formula_ncl(c) if name == "ncl" else T.formula_phi_Gprime(c)
    return out


class Context:
    def __init__(self, T):
        self.T = T
        self.oracle = OracleWorker(T)  # forked first, before the tables exist
        self.groups = _groups(T)
        self.fgs = {gid: T.from_group(self.groups[gid]) for gid in PREBUILT}
        self.formulas = _formulas(T)
        self.tables: dict = {}  # gid -> the prebuilt table as int rows, made on first use

    def elem(self, gid, rows):
        return self.T.TriMatrix(self.groups[gid].ring, rows)


def setup(T, rounds) -> Context:
    return Context(T)


def teardown(ctx: Context) -> None:
    ctx.oracle.close()


def fresh_instance(ctx: Context, gid: str):
    """A new FiniteGroup of a prebuilt group, numbered alike, memos empty."""
    T, fg = ctx.T, ctx.fgs[gid]
    if fg.order > TABLE_LIMIT:
        return T.from_group(ctx.groups[gid])
    # the table is the prebuilt part: copy it by lookup instead of
    # multiplying matrices again
    if gid not in ctx.tables:
        ctx.tables[gid] = [[fg.op_idx(i, j) for j in fg.all_indices] for i in fg.all_indices]
    table = ctx.tables[gid]
    elems = [fg.elem(i) for i in fg.all_indices]
    pos = {id(e): i for i, e in enumerate(elems)}  # no matrix hashing
    return T.FiniteGroup(
        elems,
        lambda a, b: elems[table[pos[id(a)]][pos[id(b)]]],
        elems[fg.identity_index],
        inverse=ctx.groups[gid].inverse,
        generators=[elems[i] for i in fg.generator_indices],
    )


def prepare(ctx: Context, job):
    """A fresh instance of the job's prebuilt group (a naive model on one for
    naive jobs), so that no execution finds memos that an earlier job, or an
    earlier execution of the same job, filled."""
    if job[0] == "build":
        return None  # builds start from the matrix group alone
    fresh = fresh_instance(ctx, job[1])
    return ctx.T.Model(fresh) if job[0] == "naive" else fresh


# ---------------------------------------------------------------------------
# jobs


def run(ctx: Context, job, fresh):
    kind, gid = job[0], job[1]
    T = ctx.T
    if kind == "build":
        return T.from_group(ctx.groups[gid])
    if kind == "center":
        return fresh.center()
    if kind == "derived":
        return fresh.derived_subgroup()
    if kind == "lower_central":
        return T.lower_central_series(fresh)
    if kind == "normal_closure":
        return [T.normal_closure(fresh, ctx.elem(gid, rows)) for rows in job[2]]
    if kind == "width":
        return T.commutator_width_check(fresh, job[2])
    if kind == "fitting":
        return T.brute_force_fitting(fresh, class_bound=job[2])
    if kind == "naive":
        return T.eval_with_stats(fresh, ctx.formulas[job[2]], {"x": ctx.elem(gid, job[3])})
    if kind == "semantic":
        return T.semantic_eval(T.Model(fresh), ctx.formulas[job[2]], {"x": ctx.elem(gid, job[3])})
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# oracles


class OracleWorker:
    """Expected answers, computed in a forked child on request.  The child
    indexes every group itself; `from_group` numbers the elements in
    enumeration order, so its indices agree with the jobs' instances."""

    def __init__(self, T):
        self.conn, child = multiprocessing.get_context("fork").Pipe()
        self.proc = multiprocessing.get_context("fork").Process(target=_serve, args=(T, child), daemon=True)
        self.proc.start()
        child.close()

    def ask(self, job):
        self.conn.send(job)
        status, value = self.conn.recv()
        if status != "ok":
            raise RuntimeError(f"oracle child: {value}")
        return value

    def close(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def _serve(T, conn) -> None:
    oracle = Oracle(T)
    while True:
        job = conn.recv()
        if job is None:
            break
        try:
            conn.send(("ok", oracle.expected(job)))
        except Exception as exc:  # reported to the parent as a failed check
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


class Oracle:
    """Restated definitions on the oracle's own index of each group."""

    def __init__(self, T):
        self.T = T
        self.groups = _groups(T)
        self.memo: dict = {}

    def cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def fg(self, gid: str):
        return self.cached(("fg", gid), lambda: self.T.from_group(self.groups[gid]))

    def gens(self, gid: str) -> list[int]:
        fg = self.fg(gid)
        return self.cached(("gens", gid), lambda: [fg.index(g) for g in self.groups[gid].generating_set()])

    def index(self, gid: str, rows) -> int:
        return self.fg(gid).index(self.T.TriMatrix(self.groups[gid].ring, rows))

    def derived(self, gid):
        return self.cached(("derived", gid), lambda: O.derived(self.fg(gid), self.gens(gid)))

    def closure_of(self, gid, x: int):
        return self.cached(("ncl", gid, x), lambda: O.normal_closure(self.fg(gid), [x], self.gens(gid)))

    def lower_central(self, gid):
        fg, gens = self.fg(gid), self.gens(gid)
        series = [frozenset(range(fg.order))]
        while True:
            seeds = {O.commutator(fg, a, g) for a in series[-1] for g in gens}
            nxt = O.normal_closure(fg, seeds, gens)
            if nxt == series[-1]:
                return series
            series.append(nxt)
            if len(nxt) == 1:
                return series

    def commutators(self, gid):
        fg = self.fg(gid)
        return self.cached(
            ("comms", gid), lambda: frozenset(O.commutator(fg, a, b) for a in range(fg.order) for b in range(fg.order))
        )

    def products_of_two(self, gid):
        fg, comms = self.fg(gid), self.commutators(gid)
        return self.cached(("gprime2", gid), lambda: frozenset(fg.op_idx(a, b) for a in comms for b in comms))

    def formula_holds(self, gid, formula, x: int) -> bool:
        name, c = formula
        if name == "ncl":
            closure = self.closure_of(gid, x)
            cls = self.cached(("class", gid, closure), lambda: O.nilpotency_class(self.fg(gid), closure))
            return cls is not None and cls <= c
        if c == 1:
            return x in self.commutators(gid)
        return x in self.products_of_two(gid)

    def expected(self, job):
        kind, gid = job[0], job[1]
        if kind == "center":
            return self.cached(("center", gid), lambda: O.center(self.fg(gid), self.gens(gid)))
        if kind == "derived":
            return self.derived(gid)
        if kind == "lower_central":
            return self.cached(("lcs", gid), lambda: self.lower_central(gid))
        if kind == "normal_closure":
            return [self.closure_of(gid, self.index(gid, rows)) for rows in job[2]]
        if kind == "width":
            derived, comms = self.derived(gid), self.commutators(gid)
            needed = 1 if derived <= comms else 2 if derived <= self.products_of_two(gid) else None
            return len(derived), needed
        if kind == "fitting":
            return self.cached(
                ("fitting", gid), lambda: self.T.fitting_description(self.groups[gid]).elements_in(self.fg(gid))
            )
        if kind in ("naive", "semantic"):
            return self.formula_holds(gid, job[2], self.index(gid, job[3]))
        raise ValueError(f"no expected answer for job kind {kind!r}")


def _order(gid: str) -> int:
    m, n = _modulus(gid), GROUPS[gid][1]
    units = sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
    return units**n * m ** (n * (n - 1) // 2)


def _build_ok(gid, fg, job) -> bool:
    """Order from the closed form, and sampled products against the matrix
    product over Z/m."""
    if fg.order != _order(gid):
        return False
    ring = O.ZMod(_modulus(gid))
    rng = random.Random(repr(job))
    for _ in range(BUILD_CHECKS):
        i, j = rng.randrange(fg.order), rng.randrange(fg.order)
        a, b, c = fg.elem(i), fg.elem(j), fg.elem(fg.op_idx(i, j))
        if not O.same_rows(c.rows, O.mat_mul(ring, a.rows, b.rows)):
            return False
    n = fg.elem(0).n
    return O.same_rows(fg.elem(fg.identity_index).rows, [[int(i == j) for j in range(n)] for i in range(n)])


def check(ctx: Context, job, result) -> bool:
    kind, gid = job[0], job[1]
    if kind == "build":
        return _build_ok(gid, result, job)
    expected = ctx.oracle.ask(job)
    if kind in ("center", "derived", "normal_closure"):
        return result == expected
    if kind == "lower_central":
        return list(result) == expected
    if kind == "width":
        derived_order, needed = expected
        return (
            result.derived_order == derived_order
            and result.within_bound == (needed is not None)
            and result.width_needed == needed
        )
    if kind == "fitting":
        return result.verified and result.indices == expected and gid in PRIME
    if kind == "naive":
        value, atoms = result
        return value == expected and atoms > 0
    if kind == "semantic":
        return result == expected
    return False
