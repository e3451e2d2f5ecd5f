"""normal-form: presentation checks, product chains, splitting isomorphisms
and the last-family twist identity over untwisted, carry-twisted and
coboundary-twisted groups (Z/5 and Q at n = 3, 4; Z[sqrt(2)] at n = 3).

Every round holds the same multiset of 38 jobs: one presentation check per
group, four product chains per group over Z/5 and Z[sqrt(2)] and two per
group over Q (see CHAINS), five splitting-isomorphism jobs and four
twist-identity batches, in a seeded order.  Each execution of a job gets a
fresh group on a fresh ring, built before the timed span, so no unit
decomposition or cocycle value cached by an earlier job is reused.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracles as O

NAME = "normal-form"
PASSES = 4  # a pass needs four rounds (100 jobs) of about 1.5 s each
TRACE_ROUNDS = 1
CHAIN = 16
PAIRS = 8
TRIALS = 100
LAM = (1, 1)

# id -> (ring spec, n, twist of the first torus factor or None)
GROUPS = {
    "z5-n3-plain": ("Z/5", 3, None),
    "z5-n4-carry": ("Z/5", 4, ("carry", 2)),
    "z5-n3-cob": ("Z/5", 3, ("table", {1: 1, 2: 2, 3: 4, 4: 3})),
    "q-n3-carry": ("Q", 3, ("carry", Fraction(4))),
    "q-n4-plain": ("Q", 4, None),
    "q-n4-cob": ("Q", 4, ("monomial", Fraction(1, 2))),
    "s2-n3-carry": ("Z[sqrt(2)]", 3, ("carry", (3, 2))),
}
SPLIT_GROUPS = ("z5-n3-plain", "z5-n3-cob", "q-n3-carry", "q-n4-cob", "z5-n4-carry")
FN_GROUPS = ("z5-n4-carry", "q-n3-carry", "s2-n3-carry", "z5-n3-cob")
# product chains per group and round.  Over Q a chain costs about ten times
# more than over Z/5 or Z[sqrt(2)], so the median would sit on the edge
# between the two blocks and jump with the seed; four chains over the cheap
# rings put it inside the block of Z/5 and Z[sqrt(2)] chains instead.
CHAINS = {"Z/5": 4, "Z[sqrt(2)]": 4, "Q": 2}


# ---------------------------------------------------------------------------
# input generation (no library calls)


def _own_ring(spec: str):
    if spec.startswith("Z/"):
        return O.ZMod(int(spec[2:]))
    if spec == "Q":
        return O.Rat()
    return O.ZSqrt(2)


def _rand_unit(spec: str, rng: random.Random):
    if spec == "Z/5":
        return rng.randrange(1, 5)
    if spec == "Q":
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
    u = O.ring_power(O.ZSqrt(2), LAM, rng.randint(-3, 3))
    return u if rng.random() < 0.5 else (-u[0], -u[1])


def _rand_scalar(spec: str, rng: random.Random):
    if spec == "Z/5":
        return rng.randrange(5)
    if spec == "Q":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return (rng.randint(-9, 9), rng.randint(-9, 9))


def _rand_elem(gid: str, rng: random.Random):
    spec, n, _ = GROUPS[gid]
    xbar = tuple(_rand_unit(spec, rng) for _ in range(n - 1))
    z = _rand_unit(spec, rng)
    upper = tuple(
        ((i, j), _rand_scalar(spec, rng)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return (xbar, z, upper)


def generate(seed: int, rounds: int) -> list[list[tuple]]:
    out = []
    for r in range(rounds):
        rng = random.Random(f"{NAME}:{seed}:{r}")
        jobs = []
        for gid in GROUPS:
            jobs.append(("presentation", gid, TRIALS, rng.randrange(1 << 30)))
            for _ in range(CHAINS[GROUPS[gid][0]]):
                jobs.append(("op_chain", gid, tuple(_rand_elem(gid, rng) for _ in range(CHAIN + 1))))
        for gid in SPLIT_GROUPS:
            pairs = tuple((_rand_elem(gid, rng), _rand_elem(gid, rng)) for _ in range(PAIRS))
            jobs.append(("split_iso", gid, pairs))
        for gid in FN_GROUPS:
            spec = GROUPS[gid][0]
            pairs = tuple((_rand_unit(spec, rng), _rand_unit(spec, rng)) for _ in range(PAIRS))
            jobs.append(("fn_identity", gid, pairs))
        rng.shuffle(jobs)
        out.append(jobs)
    return out


# ---------------------------------------------------------------------------
# set-up: the benchmark's own cocycles; the library's groups are built per
# execution


class Context:
    def __init__(self, T):
        self.T = T
        self.own = {gid: _own_cocycles(spec, n, twist) for gid, (spec, n, twist) in GROUPS.items()}


def _fresh_ring(spec: str):
    # parse_ring hands back one cached ring per spec, and a ring keeps its
    # unit group and that group's decomposition cache
    from triadeform import rings

    if spec.startswith("Z/"):
        return rings.IntegersMod(int(spec[2:]))
    if spec == "Q":
        return rings.RationalField()
    return rings.QuadraticOrder(2)


def _build_group(T, spec, n, twist):
    ring = _fresh_ring(spec)
    if twist is None:
        return T.DeformedGroup(ring, n)
    from triadeform.cocycles import DictPsi

    u = T.unit_group(ring)
    kind, data = twist
    if kind == "carry":
        first = T.CarryCocycle(u, u, {0: data})
    elif kind == "table":
        first = T.CoboundaryOf(u, u, DictPsi(u, u, data))
    else:
        first = T.CoboundaryOf(u, u, T.MonomialPsi(u, u, {0: data}, {}))
    rest = tuple(T.trivial_cocycle(u, u) for _ in range(n - 2))
    return T.DeformedGroup(ring, n, (first,) + rest)


def _primitive_root(m: int) -> int:
    units = [x for x in range(1, m) if math.gcd(x, m) == 1]
    for g in units:
        acc, k = g, 1
        while acc != 1:
            acc, k = acc * g % m, k + 1
        if k == len(units):
            return g
    raise ValueError(f"(Z/{m})^x is not cyclic")


def _own_cocycles(spec, n, twist):
    ring = _own_ring(spec)
    if spec.startswith("Z/"):
        m = int(spec[2:])
        gen, order = _primitive_root(m), sum(1 for x in range(1, m) if math.gcd(x, m) == 1)
    else:
        gen, order = ring.neg(ring.one), 2
    trivial = O.UnitCocycle(ring, gen, order, "trivial")
    if twist is None:
        return ring, [trivial] * (n - 1), gen, order
    kind, data = twist
    first = O.UnitCocycle(ring, gen, order, "carry" if kind == "carry" else "psi", data)
    return ring, [first] + [trivial] * (n - 2), gen, order


def setup(T, rounds) -> Context:
    return Context(T)


def prepare(ctx: Context, job):
    spec, n, twist = GROUPS[job[1]]
    return _build_group(ctx.T, spec, n, twist)


# ---------------------------------------------------------------------------
# jobs


def run(ctx: Context, job, g):
    kind = job[0]
    T = ctx.T
    if kind == "presentation":
        return T.check_presentation(g, trials=job[2], rng=random.Random(job[3]))
    if kind == "op_chain":
        elems = [g.element(xbar, z, dict(upper)) for xbar, z, upper in job[2]]
        acc, out = elems[0], []
        for e in elems[1:]:
            acc = g.op(acc, e)
            out.append(acc)
        return elems, out
    if kind == "split_iso":
        iso = T.split_isomorphism(g)
        if iso is None:
            return None
        out = []
        for ra, rb in job[2]:
            a, b = g.element(ra[0], ra[1], dict(ra[2])), g.element(rb[0], rb[1], dict(rb[2]))
            fa, fb = iso.forward(a), iso.forward(b)
            out.append((a, fa, fb, iso.forward(g.op(a, b)), iso.backward(fa)))
        return out
    if kind == "fn_identity":
        return [T.fn_identity_check(g, a, b) for a, b in job[2]]
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# oracles


def _matches_raw(elem, raw, zero) -> bool:
    xbar, z, upper = raw
    return (
        tuple(elem.xbar) == tuple(xbar)
        and elem.z == z
        and dict(elem.upper) == {k: v for k, v in upper if v != zero}
    )


def _product_ok(ring, n, cocycles, a, b, c) -> bool:
    """c = ab: untwist c's central part, then compare matrices."""
    t = O.twist(ring, cocycles, a.xbar, b.xbar)
    lhs = O.normal_form_matrix(ring, n, c.xbar, ring.mul(c.z, ring.inv(t)), c.upper)
    rhs = O.mat_mul(
        ring,
        O.normal_form_matrix(ring, n, a.xbar, a.z, a.upper),
        O.normal_form_matrix(ring, n, b.xbar, b.z, b.upper),
    )
    return lhs == rhs


def _splits(ring, cocycles, gen, order) -> bool:
    """Whether every factor cocycle is a coboundary, from its definition."""
    for f in cocycles:
        if f.kind != "carry":
            continue
        # carry c on <g> of order m splits iff c^-1 has an m-th root in R^x
        target = ring.inv(f.data)
        if isinstance(ring, O.ZMod):
            units = [y for y in range(1, ring.m) if math.gcd(y, ring.m) == 1]
            ok = any(O.ring_power(ring, y, order) == target for y in units)
        elif isinstance(ring, O.Rat):
            ok = target > 0 and all(math.isqrt(v) ** 2 == v for v in (target.numerator, target.denominator))
        else:
            ok = ring.sign(target) > 0 and _lam_exponent(ring, target) % 2 == 0
        if not ok:
            return False
    return True


def _lam_exponent(ring, u) -> int:
    k = 0
    while u != ring.one:
        if ring.sign((u[0] - 1, u[1])) > 0:
            u, k = ring.mul(u, ring.inv(LAM)), k + 1
        else:
            u, k = ring.mul(u, LAM), k - 1
    return k


def _relation_counts(spec: str, n: int, trials: int) -> dict[str, int]:
    """How many relations each family checks when none fails: the scalar and
    unit pools hold the whole ring (units) when it has at most 8 elements,
    else max(3, trials // 8) scalars and max(2, trials // 10) units; the
    commutation and conjugation families use the first 4 of a pool."""
    if spec.startswith("Z/"):
        m = int(spec[2:])
        s, u = m, sum(1 for x in range(1, m) if math.gcd(x, m) == 1)
    else:
        s, u = max(3, trials // 8), max(2, trials // 10)
    s4, u4 = min(s, 4), min(u, 4)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    disjoint = sum(1 for (i, j) in pairs for (k, l) in pairs if j != k and l != i)
    return {
        "transvection-additivity": len(pairs) * s * s,
        "disjoint-commutation": disjoint * s4 * s4,
        "overlap-commutation": math.comb(n, 3) * s4 * s4,
        "diagonal-subgroup": n * u * u + math.comb(n, 2) * u4 * u4,
        "diagonal-conjugation": n * u * len(pairs) * s4,
    }


def check(ctx: Context, job, result) -> bool:
    kind, gid = job[0], job[1]
    spec, n, _ = GROUPS[gid]
    ring, cocycles, gen, order = ctx.own[gid]
    if kind == "presentation":
        # every family passes, having checked every relation it should
        return {rep.family: (rep.ok, rep.checked) for rep in result} == {
            family: (True, count) for family, count in _relation_counts(spec, n, job[2]).items()
        }
    if kind == "op_chain":
        elems, out = result
        if len(out) != CHAIN or not all(_matches_raw(e, raw, ring.zero) for e, raw in zip(elems, job[2])):
            return False
        prev = elems[0]
        for e, c in zip(elems[1:], out):
            if not _product_ok(ring, n, cocycles, prev, e, c):
                return False
            prev = c
        return True
    if kind == "split_iso":
        if not _splits(ring, cocycles, gen, order):
            return result is None
        if result is None or len(result) != PAIRS:
            return False
        for a, fa, fb, fab, back in result:
            if not O.same_rows(fab.rows, O.mat_mul(ring, fa.rows, fb.rows)):
                return False
            if (back.xbar, back.z, back.upper) != (a.xbar, a.z, a.upper):
                return False
        return True
    if kind == "fn_identity":
        ones = (ring.one,) * (n - 1)
        for (a, b), (ok, lhs, rhs) in zip(job[2], result):
            big_f = O.twist(ring, cocycles, (a,) * (n - 1), (b,) * (n - 1))
            if not ok or lhs != rhs:
                return False
            if rhs.xbar != ones or rhs.upper != () or rhs.z != ring.inv(big_f):
                return False
        return len(result) == PAIRS
    return False
