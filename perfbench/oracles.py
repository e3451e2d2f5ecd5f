"""Correctness oracles restated independently of the library.

Nothing here imports triadeform.  Ring arithmetic, the normal-form to matrix
bridge, carry and coboundary cocycles, finite abelian group and extension
arithmetic, and the report schema are written out again from their
definitions, so a library bug cannot vouch for itself.  The finite-group
closures at the end take the engine's index arithmetic (`op_idx`, `inv_idx`)
as given, because the build jobs check that arithmetic against a restated
matrix product.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# exact rings: Z/m as ints, Q as Fractions, Z[sqrt(d)] as (a, b) pairs


class ZMod:
    def __init__(self, m: int):
        self.m = m
        self.zero = 0
        self.one = 1 % m

    def add(self, x, y):
        return (x + y) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def inv(self, x):
        return pow(x, -1, self.m)

    def neg(self, x):
        return (-x) % self.m


class Rat:
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return 1 / x

    def neg(self, x):
        return -x


class ZSqrt:
    def __init__(self, d: int):
        self.d = d
        self.zero = (0, 0)
        self.one = (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(self, x):
        norm = x[0] * x[0] - self.d * x[1] * x[1]
        if norm not in (1, -1):
            raise ValueError(f"{x} is not a unit")
        return (x[0] * norm, -x[1] * norm)

    def neg(self, x):
        return (-x[0], -x[1])

    def sign(self, x) -> int:
        """Exact sign of a + b sqrt(d) as a real number."""
        a, b = x
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa >= 0 and sb >= 0:
            return 1 if (sa or sb) else 0
        if sa <= 0 and sb <= 0:
            return -1
        # opposite signs: compare a^2 with d b^2
        if a * a > self.d * b * b:
            return sa
        return sb


def ring_power(ring, x, k: int):
    """x^k by square-and-multiply; negative k inverts first."""
    if k < 0:
        x, k = ring.inv(x), -k
    out = ring.one
    while k:
        if k & 1:
            out = ring.mul(out, x)
        x = ring.mul(x, x)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# unit-group cocycles on R^x, from the definitions


def torsion_exponent(ring, generator, order: int, x) -> int:
    """Canonical exponent t in [0, order) of the torsion part of x."""
    if isinstance(ring, Rat):
        return 1 if x < 0 else 0
    if isinstance(ring, ZSqrt):
        return 1 if ring.sign(x) < 0 else 0
    acc = ring.one
    for t in range(order):
        if acc == x:
            return t
        acc = ring.mul(acc, generator)
    raise ValueError(f"{x} is not a torsion unit")


class UnitCocycle:
    """One factor cocycle R^x x R^x -> R^x given by its generating data.

    kind "carry": f(g^i, g^j) = c^floor((i + j) / m) on the torsion factor.
    kind "psi": f(x, y) = psi(xy) psi(x)^-1 psi(y)^-1 for a table or a
    monomial psi(x) = base^t(x).
    kind "trivial": f = 1.
    """

    def __init__(self, ring, generator, order: int, kind: str, data=None):
        self.ring = ring
        self.generator = generator
        self.order = order
        self.kind = kind
        self.data = data

    def t(self, x) -> int:
        return torsion_exponent(self.ring, self.generator, self.order, x)

    def psi(self, x):
        if isinstance(self.data, dict):
            return self.data[x]
        return ring_power(self.ring, self.data, self.t(x))

    def __call__(self, x, y):
        r = self.ring
        if self.kind == "trivial":
            return r.one
        if self.kind == "carry":
            return self.data if self.t(x) + self.t(y) >= self.order else r.one
        num = self.psi(r.mul(x, y))
        return r.mul(num, r.inv(r.mul(self.psi(x), self.psi(y))))


def twist(ring, cocycles, x1, x2):
    out = ring.one
    for i, f in enumerate(cocycles):
        out = ring.mul(out, f(x1[i], x2[i]))
    return out


# ---------------------------------------------------------------------------
# normal form and matrices


def normal_form_matrix(ring, n: int, xbar, z, upper):
    """diag(z xbar_1, .., z xbar_{n-1}, z) (I + U), the untwisted bridge."""
    y = [ring.mul(z, xbar[i]) for i in range(n - 1)] + [z]
    entries = dict(upper)
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = y[i]
        for j in range(i + 1, n):
            rows[i][j] = ring.mul(y[i], entries.get((i + 1, j + 1), ring.zero))
    return rows


def mat_mul(ring, a, b):
    n = len(a)
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ring.zero
            for k in range(i, j + 1):
                acc = ring.add(acc, ring.mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def same_rows(rows, expected) -> bool:
    return [list(r) for r in rows] == [list(r) for r in expected]


# ---------------------------------------------------------------------------
# finite abelian groups Z/d1 x .. x Z/dk (torsion only) and their extensions


def ab_add(factors, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def ab_neg(factors, x):
    return tuple((-a) % d for a, d in zip(x, factors))


def ab_elements(factors):
    out = [()]
    for d in factors:
        out = [e + (v,) for e in out for v in range(d)]
    return out


def carry_value(b_factors, a_factors, targets, x, y):
    """Carry cocycle on B: sum over factors of floor((x_i + y_i) / m_i) * c_i."""
    out = (0,) * len(a_factors)
    for idx, c in targets.items():
        if x[idx] + y[idx] >= b_factors[idx]:
            out = ab_add(a_factors, out, c)
    return out


def ext_mul(f, a_factors, b_factors, x, y):
    b = ab_add(b_factors, x[0], y[0])
    a = ab_add(a_factors, ab_add(a_factors, x[1], y[1]), f(x[0], y[0]))
    return (b, a)


def ext_power(f, a_factors, b_factors, x, k: int):
    """x^k in E(f) by square-and-multiply (k >= 0)."""
    out = ((0,) * len(b_factors), (0,) * len(a_factors))
    base = x
    while k:
        if k & 1:
            out = ext_mul(f, a_factors, b_factors, out, base)
        base = ext_mul(f, a_factors, b_factors, base, base)
        k >>= 1
    return out


def splits_by_section_search(f, b_factors, a_factors) -> bool:
    """Some section exists iff every cyclic factor generator lifts to an
    element of the same order; E(f) is abelian, so factors are independent."""
    identity = ((0,) * len(b_factors), (0,) * len(a_factors))
    for idx, m in enumerate(b_factors):
        g = tuple(1 if i == idx else 0 for i in range(len(b_factors)))
        if not any(
            ext_power(f, a_factors, b_factors, (g, alpha), m) == identity
            for alpha in ab_elements(a_factors)
        ):
            return False
    return True


def ext_order(b_factors, a_factors) -> int:
    """|Ext(B, A)| = prod gcd(m_i, n_j) for finite cyclic factors."""
    out = 1
    for m in b_factors:
        for n in a_factors:
            out *= math.gcd(m, n)
    return out


# ---------------------------------------------------------------------------
# the CLI report schema, restated


def report_problems(doc) -> list[str]:
    """Violations of the documented report envelope; empty when valid."""
    if not isinstance(doc, dict):
        return ["report is not an object"]
    problems = []
    allowed = {"command", "lemma", "ok", "seed", "data", "witness"}
    for key in ("command", "lemma", "ok", "data"):
        if key not in doc:
            problems.append(f"missing {key}")
    for key in doc:
        if key not in allowed:
            problems.append(f"unexpected key {key}")
    if not (isinstance(doc.get("command"), str) and doc.get("command")):
        problems.append("command must be a non-empty string")
    lemma = doc.get("lemma")
    if not (
        isinstance(lemma, str)
        and lemma
        and lemma[0].isascii()
        and lemma[0].isalnum()
        and all(ch.isascii() and (ch.isalnum() or ch == "-") for ch in lemma)
    ):
        problems.append("lemma does not match ^[A-Za-z0-9][A-Za-z0-9-]*$")
    if not isinstance(doc.get("ok"), bool):
        problems.append("ok must be a boolean")
    if not isinstance(doc.get("data"), dict):
        problems.append("data must be an object")
    if "seed" in doc and not (doc["seed"] is None or (isinstance(doc["seed"], int) and not isinstance(doc["seed"], bool))):
        problems.append("seed must be an integer or null")
    return problems


# ---------------------------------------------------------------------------
# finite groups on indices: closures restated over the engine's arithmetic


def closure(fg, seeds) -> frozenset:
    """Subgroup generated by the seed indices (finite, so inverses come free)."""
    seeds = list(dict.fromkeys(seeds))
    out = {fg.identity_index}
    frontier = [fg.identity_index]
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = fg.op_idx(x, s)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def normal_closure(fg, seeds, gens) -> frozenset:
    """Smallest normal subgroup containing the seeds: close the conjugates."""
    pool = set(seeds)
    frontier = list(pool)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = fg.op_idx(fg.op_idx(fg.inv_idx(g), x), g)
            if y not in pool:
                pool.add(y)
                frontier.append(y)
    return closure(fg, pool)


def commutator(fg, a, b):
    return fg.op_idx(fg.op_idx(fg.inv_idx(a), fg.inv_idx(b)), fg.op_idx(a, b))


def center(fg, gens) -> frozenset:
    return frozenset(
        x for x in range(fg.order) if all(fg.op_idx(x, g) == fg.op_idx(g, x) for g in gens)
    )


def derived(fg, gens) -> frozenset:
    return normal_closure(fg, [commutator(fg, a, b) for a in gens for b in gens], gens)


def nilpotency_class(fg, subgroup) -> int | None:
    """Class of the subgroup via its own lower central series, or None."""
    members = list(subgroup)
    term = frozenset(subgroup)
    cls = 0
    while len(term) > 1:
        nxt = closure(fg, {commutator(fg, a, b) for a in term for b in members})
        if nxt == term:
            return None
        term = nxt
        cls += 1
    return cls
