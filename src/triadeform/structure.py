"""Structural subgroups of triangular groups: symbolic descriptions plus
brute-force counterparts on finite instances.

The symbolic side describes center, derived subgroup, Fitting subgroup,
signed unipotent subgroup and the coordinate tori as membership predicates
on the normal-form coordinates (xbar, z, U) of g = D (I + U).  Each is
written once, over the coordinate questions that both pictures of trigroup
answer (torus_is_trivial, is_unipotent, strict_part, torus_part).  The
center, derived, Fitting and signed unipotent descriptions are proved for
integral domains and refuse any other ring (InvalidParameter).  The
brute-force side drives the FiniteGroup engine: normal closures, lower
central series, the commutator-width check (on FiniteGroup.width_products)
and a from-scratch Fitting computation, whose subgroups are index sets of
the one parent group.  Tests cross-validate the two.

Derived-subgroup membership depends on the ideal generated by {1 - u : u a
unit}; for Z that is 2Z, for a field with a unit other than 1 it is
everything, and for real quadratic orders it is the sublattice spanned by
2, 1 - eps and their sqrt(d) multiples.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from .cocycles import is_cot
from .errors import InvalidParameter, NotDiagonal, TooLarge
from .finitegroup import FiniteGroup
from .rings import (
    GaussianIntegers,
    IntegerRing,
    IntegersMod,
    QuadraticOrder,
    RationalField,
    Ring,
    _trial_factor,
)
from .snf import solve_integer
from .trigroup import DeformedGroup


# ---------------------------------------------------------------------------
# the unit-difference ideal


class UnitDiffIdeal:
    """Ideal of R generated by {1 - u : u a unit of R}."""

    def __init__(self, ring: Ring):
        self.ring = ring
        if ring.is_finite:
            gens = [ring.sub(ring.one, u) for u in ring.units()]
        else:
            units = ring.unit_group()
            basis = [units.torsion_generator] + list(units.free_basis)
            gens = [ring.sub(ring.one, g) for g in basis]
        self.generators = [g for g in gens if g != ring.zero]

    def contains(self, x) -> bool:
        r = self.ring
        x = r.ensure(x)
        if x == r.zero:
            return True
        if not self.generators:
            return False
        if isinstance(r, RationalField):
            return True
        if isinstance(r, IntegerRing):
            g = 0
            for v in self.generators:
                g = math.gcd(g, abs(v))
            return x % g == 0
        if isinstance(r, IntegersMod):
            g = r.m
            for v in self.generators:
                g = math.gcd(g, v)
            return x % g == 0
        if isinstance(r, QuadraticOrder):
            # lattice spanned by g and omega*g for each generator g, where
            # omega is sqrt(d) (or i); solve the integer linear system
            omega = (0, 1)
            cols = []
            for g in self.generators:
                cols.append(g)
                cols.append(r.mul(g, omega))
            matrix = [
                [c[0] for c in cols],
                [c[1] for c in cols],
            ]
            return solve_integer(matrix, [x[0], x[1]]) is not None
        raise InvalidParameter(f"no ideal membership routine for {r.spec}")


def unit_diff_ideal(ring: Ring) -> UnitDiffIdeal:
    return UnitDiffIdeal(ring)


def _require_domain(ring: Ring) -> None:
    """The one rule for where the subgroup descriptions apply: they are
    proved for integral domains, so any other ring is refused."""
    if isinstance(ring, IntegersMod):
        try:
            domain = _trial_factor(ring.m) == {ring.m: 1}
        except TooLarge:  # m above 10^12 with no factor below 10^6
            from sympy import isprime

            domain = isprime(ring.m)
    else:
        domain = isinstance(ring, (IntegerRing, RationalField, QuadraticOrder, GaussianIntegers))
    if not domain:
        raise InvalidParameter(f"{ring.spec} is not an integral domain; the description is proved for domains")


# ---------------------------------------------------------------------------
# symbolic subgroup descriptions


@dataclass
class SubgroupDescription:
    kind: str
    membership: Callable[[Any], bool]
    generator_family: str

    def contains(self, g) -> bool:
        return self.membership(g)

    def elements_in(self, fg: FiniteGroup) -> frozenset[int]:
        return fg.indices_where(self.membership)


def center_description(group) -> SubgroupDescription:
    """Scalar elements: trivial torus part and zero strict part.

    Coincides with the true center whenever some unit u has 1 - u invertible
    enough to separate entries; for R^x = {1} (e.g. Z/2) this is a proper
    subgroup of the center and the instance is documented as degenerate.
    """
    _require_domain(group.ring)
    torus_is_trivial, strict_part = group.torus_is_trivial, group.strict_part

    def member(g) -> bool:
        return torus_is_trivial(g) and not strict_part(g)

    return SubgroupDescription("Center", member, "diag(z) for z in R^x")


def central_involution(group):
    """The order-2 central element diag(-1), or None when -1 = 1 in R."""
    ring = group.ring
    minus_one = ring.neg(ring.one)
    if minus_one == ring.one:
        return None
    return group.central(minus_one)


def derived_description(group) -> SubgroupDescription:
    """Unipotent part with superdiagonal entries in the unit-difference ideal."""
    _require_domain(group.ring)
    ideal = unit_diff_ideal(group.ring)
    is_unipotent, strict_part = group.is_unipotent, group.strict_part

    def member(g) -> bool:
        return is_unipotent(g) and all(ideal.contains(v) for (i, j), v in strict_part(g) if j == i + 1)

    return SubgroupDescription("Derived", member, "t_{i,i+1}((1-u)b) and t_{kl}(b) for l-k >= 2")


def fitting_description(group) -> SubgroupDescription:
    """Unipotent-times-center: trivial torus class, any z, any U."""
    _require_domain(group.ring)
    return SubgroupDescription("Fitting", group.torus_is_trivial, "UT_n(R) * Z(G)")


def unipotent_pm_description(group) -> SubgroupDescription:
    """x in Fitt and (x in G' or (x not in G' and x^2 in G')); equals UT x {+-I}."""
    fitt = fitting_description(group)
    derived = derived_description(group)

    def member(g) -> bool:
        return fitt.contains(g) and (derived.contains(g) or derived.contains(group.op(g, g)))

    return SubgroupDescription("UnipotentPlusMinus", member, "UT_n(R) x {I, -I}")


# ---------------------------------------------------------------------------
# coordinate tori


def torus_membership(group, i: int, x):
    """The unique unit a with x = d_i(a) * diag(z), or None if x is not in
    the i-th coordinate torus.  x must be diagonal (U = 0)."""
    if not 1 <= i <= group.n:
        raise InvalidParameter(f"torus index {i} out of range")
    if group.strict_part(x):
        raise NotDiagonal("torus membership is defined on the diagonal subgroup")
    ring, xbar = group.ring, group.torus_part(x)
    if i < group.n:
        return xbar[i - 1] if all(v == ring.one for v in xbar[: i - 1] + xbar[i:]) else None
    return ring.inv(xbar[0]) if all(v == xbar[0] for v in xbar) else None


def torus_description(group, i: int) -> SubgroupDescription:
    def member(g) -> bool:
        return not group.strict_part(g) and torus_membership(group, i, g) is not None

    return SubgroupDescription(f"Torus({i})", member, "d_i(R^x) * Z(G)")


def torsion_split_check(group, i: int) -> bool:
    """Whether the i-th torus twist splits over the torsion of R^x; an
    untwisted group (a matrix group among them) splits at every i."""
    if not 1 <= i <= group.n - 1:
        raise InvalidParameter(f"cocycle index {i} out of range")
    if group.is_untwisted:
        return True
    return is_cot(group.cocycles[i - 1])


# ---------------------------------------------------------------------------
# the ordered-coordinate decomposition over Q


@dataclass
class DecompositionReport:
    ok: bool
    checked: int
    factored: list
    failure: Any = None

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked, "failure": repr(self.failure) if self.failure else None}


def delta_square_decomposition(
    group: DeformedGroup, i: int, trials: int = 64, rng: random.Random | None = None
) -> DecompositionReport:
    """Sampled check that every torus element splits as sign * sign * positive.

    Over Q, each x = d_i(a) diag(c) factors uniquely into d_i(sgn a),
    diag(sgn c), and the positive-coordinate part; the positive part stands
    in for the square subgroup at desk scale (positive rationals are not all
    squares, and the docs flag this as the analogue, not the theorem).
    """
    if not isinstance(group.ring, RationalField):
        raise InvalidParameter("the decomposition model runs over Q")
    if not group.is_untwisted:
        raise InvalidParameter("the decomposition model is untwisted")
    rng = rng or random.Random(11)
    checked = 0
    factored = []
    for _ in range(trials):
        alpha = group.ring.random_unit(rng)
        c = group.ring.random_unit(rng)
        x = group.op(group.diagonal_gen(i, alpha), group.central(c))
        checked += 1
        ok_splits = []
        for s1, s2 in itertools.product((1, -1), repeat=2):
            p_alpha = alpha * s1
            p_c = c * s2
            if p_alpha > 0 and p_c > 0:
                candidate = (
                    group.diagonal_gen(i, s1),
                    group.central(s2),
                    group.op(group.diagonal_gen(i, p_alpha), group.central(p_c)),
                )
                product = group.op(group.op(candidate[0], candidate[1]), candidate[2])
                if product == x:
                    ok_splits.append(candidate)
        if len(ok_splits) != 1:
            return DecompositionReport(False, checked, factored, failure=(alpha, c, len(ok_splits)))
        s1_el, s2_el, pos = ok_splits[0]
        if group.op(s1_el, s1_el) != group.identity or group.op(s2_el, s2_el) != group.identity:
            return DecompositionReport(False, checked, factored, failure=(alpha, c, "sign parts"))
        factored.append((x, ok_splits[0]))
    return DecompositionReport(True, checked, factored[:3])


# ---------------------------------------------------------------------------
# brute-force machinery on FiniteGroup


def normal_closure(fg: FiniteGroup, g) -> frozenset[int]:
    idx = g if isinstance(g, int) else fg.index(g)
    return fg.normal_closure([idx])


def lower_central_series(fg: FiniteGroup) -> list[frozenset[int]]:
    return fg.lower_central_series()


def left_normed_gamma(fg: FiniteGroup, c: int) -> frozenset[int]:
    """gamma_c via normal closure of length-c left-normed generator commutators;
    TooLarge when there are more than 100,000 generator tuples."""
    if c < 1:
        raise InvalidParameter("series index starts at 1")
    gens = fg.generator_indices
    if c == 1:
        return frozenset(fg.all_indices)
    if len(gens) ** c > 100_000:
        raise TooLarge(f"{len(gens)}^{c} generator tuples")
    seeds = []
    for tup in itertools.product(gens, repeat=c):
        acc = tup[0]
        for g in tup[1:]:
            acc = fg.comm_idx(acc, g)
        seeds.append(acc)
    return fg.normal_closure(seeds)


@dataclass
class WidthReport:
    within_bound: bool
    bound: int
    width_needed: int
    derived_order: int

    def to_json(self):
        return {
            "within_bound": self.within_bound,
            "bound": self.bound,
            "width_needed": self.width_needed,
            "derived_order": self.derived_order,
        }


def commutator_width_check(fg: FiniteGroup, bound: int) -> WidthReport:
    """Every derived-subgroup element as a product of at most `bound` commutators."""
    derived = fg.subgroup_closure(fg.commutator_set())
    width_needed = 0
    for step in range(1, bound + 1):
        reach = fg.width_products(step)
        if reach == fg.width_products(step - 1):
            break
        width_needed = step
        if reach >= derived:
            break
    return WidthReport(derived <= fg.width_products(width_needed), bound, width_needed, len(derived))


# ---------------------------------------------------------------------------
# Fitting subgroup by brute force


def _chain_certifies_nonnilpotent(fg: FiniteGroup, start: int, partner: int) -> bool:
    """Follow u -> [u, partner]; a cycle avoiding 1 certifies non-nilpotency."""
    u = start
    seen = set()
    while u != fg.identity_index:
        if u in seen:
            return True
        seen.add(u)
        u = fg.comm_idx(u, partner)
    return False


def _certificate_ncl_nonnilpotent(fg: FiniteGroup, g: int) -> bool:
    """Sound fast path: iterated commutators inside the normal closure of g
    that cycle without reaching 1 rule out nilpotency at any class."""
    for h in fg.generator_indices:
        x = fg.conj_idx(g, h)
        u = fg.comm_idx(g, x)
        if u != fg.identity_index and _chain_certifies_nonnilpotent(fg, u, g):
            return True
    return False


def _certificate_join_nonnilpotent(fg: FiniteGroup, base_gens: list[int], g: int) -> bool:
    for f in base_gens:
        u = fg.comm_idx(f, g)
        if u != fg.identity_index and _chain_certifies_nonnilpotent(fg, u, g):
            return True
    return False


@dataclass
class FittingReport:
    indices: frozenset[int]
    order: int
    is_normal: bool
    is_nilpotent: bool
    nilpotency_class: int | None
    is_maximal: bool
    class_bound: int
    members_scanned: int
    fast_rejections: int = 0
    failure: Any = None

    @property
    def verified(self) -> bool:
        return self.is_normal and self.is_nilpotent and self.is_maximal

    def to_json(self):
        return {
            "order": self.order,
            "is_normal": self.is_normal,
            "is_nilpotent": self.is_nilpotent,
            "nilpotency_class": self.nilpotency_class,
            "is_maximal": self.is_maximal,
            "class_bound": self.class_bound,
        }


def brute_force_fitting(fg: FiniteGroup, class_bound: int) -> FittingReport:
    """Subgroup generated by {g : the normal closure of g is nilpotent of
    class <= class_bound}, with normality, nilpotency and maximality verified.

    Each conjugacy class is first tested with a commutator-cycle certificate,
    which rules out nilpotency of the normal closure without building it
    (counted in fast_rejections); the certificate is sound, and classes it
    leaves open get the full normal-closure nilpotency computation.
    """
    verdicts: dict[int, bool] = {}
    fast_rejections = 0
    for g in fg.all_indices:
        if g in verdicts:
            continue
        cls_members = fg.conjugacy_class(g)
        if _certificate_ncl_nonnilpotent(fg, g):
            verdict = False
            fast_rejections += 1
        else:
            nilp, c = fg.is_nilpotent(fg.normal_closure([g]))
            verdict = nilp and c <= class_bound
        for member in cls_members:
            verdicts[member] = verdict
    closed, base_gens = {fg.identity_index}, []
    for g, verdict in verdicts.items():
        if verdict:
            fg._adjoin(closed, base_gens, g)
    fitting = frozenset(closed)
    nilp, cls = fg.is_nilpotent(fitting)
    normal = fg.is_normal(fitting)
    maximal = True
    failure = None
    checked_classes: set[int] = set()
    for g in fg.all_indices:
        if g in fitting or g in checked_classes:
            continue
        checked_classes.update(fg.conjugacy_class(g))
        if _certificate_join_nonnilpotent(fg, base_gens, g):
            continue
        join = set(closed)
        fg._adjoin(join, list(base_gens), g)
        join_nilp, _ = fg.is_nilpotent(join)
        if join_nilp:
            maximal = False
            failure = fg.elem(g)
            break
    return FittingReport(
        indices=fitting,
        order=len(fitting),
        is_normal=normal,
        is_nilpotent=nilp,
        nilpotency_class=cls,
        is_maximal=maximal,
        class_bound=class_bound,
        members_scanned=len(verdicts),
        fast_rejections=fast_rejections,
        failure=failure,
    )
