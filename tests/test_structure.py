"""Subgroup descriptions, tori, decompositions, and brute-force verifiers."""

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from triadeform import (
    CarryCocycle,
    DeformedGroup,
    FiniteGroup,
    InvalidParameter,
    Model,
    NotDiagonal,
    TriMatrix,
    TriMatrixGroup,
    brute_force_fitting,
    center_description,
    central_involution,
    commutator_width_check,
    defining_set,
    delta_square_decomposition,
    derived_description,
    fitting_description,
    formula_ncl,
    from_group,
    matrix_to_deformed,
    left_normed_gamma,
    lower_central_series,
    normal_closure,
    parse_ring,
    torsion_split_check,
    torus_description,
    torus_membership,
    trivial_cocycle,
    unipotent_pm_description,
    unit_diff_ideal,
    unit_group,
)
from triadeform.errors import TooLarge


@pytest.fixture(scope="module")
def t3_z2():
    return DeformedGroup(parse_ring("Z/2"), 3)


@pytest.fixture(scope="module")
def t3_z2_fg(t3_z2):
    return from_group(t3_z2)


# ---------------------------------------------------------------------------
# the unit-difference ideal


def test_ideal_over_z_is_even_integers(ring_z):
    ideal = unit_diff_ideal(ring_z)
    assert ideal.contains(0)
    assert ideal.contains(2)
    assert ideal.contains(-4)
    assert not ideal.contains(1)
    assert not ideal.contains(3)


def test_ideal_over_sqrt2_is_generated_by_sqrt2(ring_sqrt2):
    ideal = unit_diff_ideal(ring_sqrt2)
    # generators 1-(-1) = 2 and 1-(1+sqrt2) = -sqrt2
    assert sorted(ideal.generators) == [(0, -1), (2, 0)]
    for member in ((0, 0), (0, 1), (2, 0), (4, 3)):
        assert ideal.contains(member)
    for outsider in ((1, 0), (1, 1)):
        assert not ideal.contains(outsider)


def test_ideal_over_field_is_everything(ring_q, ring_z5):
    iq = unit_diff_ideal(ring_q)
    assert iq.contains(0) and iq.contains(7) and iq.contains(Fraction(1, 3))
    i5 = unit_diff_ideal(ring_z5)
    assert all(i5.contains(x) for x in range(5))


def test_ideal_with_trivial_units_is_zero():
    ideal = unit_diff_ideal(parse_ring("Z/2"))
    assert ideal.generators == []
    assert ideal.contains(0)
    assert not ideal.contains(1)


# ---------------------------------------------------------------------------
# center


def test_center_description_matches_brute_force(t3_z3, t3_z3_fg):
    desc = center_description(t3_z3)
    assert desc.elements_in(t3_z3_fg) == t3_z3_fg.center()
    assert len(t3_z3_fg.center()) == 2


def test_center_description_matrix_lane(t2_z3, t2_z3_fg):
    desc = center_description(t2_z3)
    assert desc.elements_in(t2_z3_fg) == t2_z3_fg.center()
    assert len(t2_z3_fg.center()) == 2


def test_center_description_proper_when_units_trivial(t3_z2, t3_z2_fg):
    # over Z/2 the scalar description misses t_13(1); it must still be
    # a subgroup of the true center, just not all of it
    desc = center_description(t3_z2)
    described = desc.elements_in(t3_z2_fg)
    true_center = t3_z2_fg.center()
    assert described < true_center
    assert len(described) == 1
    assert len(true_center) == 2


def test_central_involution(t3_z3, t3_z3_fg, t3_z2):
    inv = central_involution(t3_z3)
    assert inv == t3_z3.central(2)
    assert t3_z3.op(inv, inv) == t3_z3.identity
    assert t3_z3_fg.index(inv) in t3_z3_fg.center()
    assert central_involution(t3_z2) is None


# ---------------------------------------------------------------------------
# derived subgroup


def test_derived_description_matches_brute_force(t3_z3, t3_z3_fg):
    desc = derived_description(t3_z3)
    brute = t3_z3_fg.derived_subgroup()
    assert desc.elements_in(t3_z3_fg) == brute
    assert len(brute) == 27


def test_derived_description_matrix_lane(t2_z3, t2_z3_fg):
    desc = derived_description(t2_z3)
    brute = t2_z3_fg.derived_subgroup()
    assert desc.elements_in(t2_z3_fg) == brute
    assert len(brute) == 3


def test_derived_description_trivial_units(t3_z2, t3_z2_fg):
    # ideal is zero, so only the far corner survives: {1, t_13(1)}
    desc = derived_description(t3_z2)
    brute = t3_z2_fg.derived_subgroup()
    assert desc.elements_in(t3_z2_fg) == brute
    assert len(brute) == 2


# ---------------------------------------------------------------------------
# Fitting subgroup


def test_fitting_description_matches_brute_force(t3_z3, t3_z3_fg):
    desc = fitting_description(t3_z3)
    report = brute_force_fitting(t3_z3_fg, class_bound=2)
    assert desc.elements_in(t3_z3_fg) == report.indices
    assert report.order == 54
    assert report.verified
    assert report.nilpotency_class == 2


def test_fitting_description_matrix_lane(t2_z3, t2_z3_fg):
    desc = fitting_description(t2_z3)
    report = brute_force_fitting(t2_z3_fg, class_bound=2)
    assert desc.elements_in(t2_z3_fg) == report.indices
    assert report.order == 6
    assert report.verified
    assert report.nilpotency_class == 1


def _fitting_by_full_scan(fg, class_bound):
    """brute_force_fitting restated without commutator-cycle certificates:
    the nilpotency class of the normal closure of each conjugacy class, and
    the nilpotency of the join with each class outside the result."""
    reps, members, seen = [], [], set()
    for g in fg.all_indices:
        if g not in seen:
            cls = fg.conjugacy_class(g)
            seen |= cls
            reps.append(g)
            nilp, c = fg.is_nilpotent(fg.normal_closure([g]))
            if nilp and c <= class_bound:
                members.extend(cls)
    fitting = fg.subgroup_closure(members)
    nilp, c = fg.is_nilpotent(fitting)
    gens = fg.subgroup_generators(fitting)
    maximal = not any(
        fg.is_nilpotent(fg.subgroup_closure(gens + [g]))[0] for g in reps if g not in fitting
    )
    return fitting, c, fg.is_normal(fitting) and nilp and maximal


def test_fitting_fast_reject_agrees_with_full_scan():
    # T2(Z/11) has order 1,100; at class bound 1, T2(Z/8) has a class
    # outside the result whose join with it is nilpotent, so the join is
    # computed, not certified away
    groups = {
        "T2(Z/3)": (TriMatrixGroup(parse_ring("Z/3"), 2), 2),
        "T2(Z/5)": (TriMatrixGroup(parse_ring("Z/5"), 2), 2),
        "T3(Z/3) deformed": (DeformedGroup(parse_ring("Z/3"), 3), 2),
        "T2(Z/11)": (TriMatrixGroup(parse_ring("Z/11"), 2), 2),
        "T2(Z/8)": (TriMatrixGroup(parse_ring("Z/8"), 2), 1),
    }
    for name, (group, bound) in groups.items():
        fg = from_group(group)
        report = brute_force_fitting(fg, class_bound=bound)
        fitting, cls, verified = _fitting_by_full_scan(fg, bound)
        assert (report.indices, report.order, report.nilpotency_class, report.verified) == (
            fitting, len(fitting), cls, verified
        ), name
        if name == "T2(Z/3)":
            assert report.fast_rejections > 0
        if name == "T2(Z/8)":
            assert (report.order, report.is_maximal) == (64, False) and report.failure is not None


def test_fitting_description_requires_domain():
    group = DeformedGroup(parse_ring("Z/4"), 3)
    with pytest.raises(InvalidParameter):
        fitting_description(group)


@pytest.mark.parametrize(
    "describe", [center_description, derived_description, fitting_description, unipotent_pm_description]
)
def test_every_description_applies_to_domains_only(describe):
    for group in (DeformedGroup(parse_ring("Z/4"), 3), TriMatrixGroup(parse_ring("Z/6"), 2)):
        with pytest.raises(InvalidParameter, match="not an integral domain"):
            describe(group)
    for spec in ("Z/5", "Z", "Q", "Z[sqrt(2)]", "Z[i]"):
        assert describe(DeformedGroup(parse_ring(spec), 3)).kind


def test_fitting_report_json_keys(t2_z3_fg):
    report = brute_force_fitting(t2_z3_fg, class_bound=2)
    data = report.to_json()
    assert data["order"] == 6
    assert data["is_normal"] and data["is_nilpotent"] and data["is_maximal"]


# ---------------------------------------------------------------------------
# the unipotent-plus-minus subgroup


def test_unipotent_pm_equals_fitting_when_units_are_signs(t3_z3, t3_z3_fg):
    # over Z/3 every unit is +-1, so the two descriptions coincide
    up = unipotent_pm_description(t3_z3).elements_in(t3_z3_fg)
    fitt = fitting_description(t3_z3).elements_in(t3_z3_fg)
    assert up == fitt
    assert len(up) == 54


def test_unipotent_pm_discriminates_over_z5():
    group = DeformedGroup(parse_ring("Z/5"), 3)
    desc = unipotent_pm_description(group)
    assert desc.contains(group.central(4))  # -1
    assert not desc.contains(group.central(2))  # square is -1, not unipotent
    assert desc.contains(group.transvection(1, 3, 2))
    assert not desc.contains(group.diagonal_gen(1, 2))


def _descriptions(group):
    describe = (center_description, derived_description, fitting_description, unipotent_pm_description)
    return [d(group) for d in describe] + [torus_description(group, i) for i in range(1, group.n + 1)]


def _picture_pool(spec):
    """Every element of T_3(R) for a finite R; otherwise samples, their
    products and the constructed central(u), t_12(2), t_12(1), d_1(-1)."""
    ring = parse_ring(spec)
    mg = TriMatrixGroup(ring, 3)
    if ring.is_finite:
        return mg, list(mg.elements())
    rng = random.Random(14)
    unit = ring.parse_elem("2") if spec == "Q" else ring.neg(ring.one)
    built = [mg.central(unit), mg.transvection(1, 2, 2), mg.transvection(1, 2, 1), mg.diagonal_gen(1, ring.neg(ring.one))]
    samples = [mg.sample(rng) for _ in range(40)]
    products = [mg.op(a, b) for a in built for b in built + samples[:5]]
    return mg, built + samples + products + [mg.identity]


@pytest.mark.parametrize("spec", ["Z/2", "Z/3", "Z", "Q"])
def test_both_pictures_give_the_same_verdicts(spec):
    # each description is written once over the coordinate questions, so a
    # matrix and its normal form must meet the same verdict everywhere
    mg, pool = _picture_pool(spec)
    dg = DeformedGroup(mg.ring, 3)
    on_matrices, on_normal_forms = _descriptions(mg), _descriptions(dg)
    seen = set()
    for m in pool:
        g = matrix_to_deformed(dg, m)
        verdicts = [d.contains(m) for d in on_matrices]
        assert verdicts == [d.contains(g) for d in on_normal_forms], (spec, m)
        seen.add(tuple(verdicts))
        if not dg.strict_part(g):
            for i in range(1, 4):
                assert torus_membership(mg, i, m) == torus_membership(dg, i, g), (spec, m, i)
    # every description meets both verdicts somewhere in the pool, except
    # Fitting and +-unipotent on T_3(Z/2) = UT_3(Z/2), which hold everywhere
    always = {2, 3} if spec == "Z/2" else set()
    assert [len({v[k] for v in seen}) for k in range(len(on_matrices))] == [1 if k in always else 2 for k in range(7)]


# ---------------------------------------------------------------------------
# coordinate tori


def test_torus_membership_reads_off_coordinates(t3_z3):
    d1 = t3_z3.diagonal_gen(1, 2)
    assert torus_membership(t3_z3, 1, d1) == 2
    assert torus_membership(t3_z3, 2, d1) is None
    d3 = t3_z3.diagonal_gen(3, 2)
    assert torus_membership(t3_z3, 3, d3) == 2


def test_torus_membership_ignores_central_factor(t3_z3):
    x = t3_z3.op(t3_z3.diagonal_gen(1, 2), t3_z3.central(2))
    assert torus_membership(t3_z3, 1, x) == 2


def test_torus_membership_rejects_nondiagonal(t3_z3):
    with pytest.raises(NotDiagonal):
        torus_membership(t3_z3, 1, t3_z3.transvection(1, 2, 1))


def test_torus_membership_index_range(t3_z3):
    d1 = t3_z3.diagonal_gen(1, 2)
    with pytest.raises(InvalidParameter):
        torus_membership(t3_z3, 0, d1)
    with pytest.raises(InvalidParameter):
        torus_membership(t3_z3, 4, d1)


def test_torus_description_orders(t3_z3, t3_z3_fg):
    # |R^x| choices for the unit times |R^x| central scalings
    for i in (1, 3):
        members = torus_description(t3_z3, i).elements_in(t3_z3_fg)
        assert len(members) == 4
        assert all(t3_z3_fg.elem(m).upper == () for m in members)


# ---------------------------------------------------------------------------
# torsion splitting of the torus twists


def test_torsion_split_untwisted_always_true(t3_z3):
    assert torsion_split_check(t3_z3, 1)
    assert torsion_split_check(t3_z3, 2)


def test_torsion_split_and_torus_membership_on_a_matrix_group():
    # the matrix picture is untwisted: it splits at every level, and
    # diag(2, 1, 1) lies in the first coordinate torus with alpha = 2
    group = TriMatrixGroup(parse_ring("Z/3"), 3)
    assert all(torsion_split_check(group, i) for i in (1, 2))
    assert torus_membership(group, 1, group.diagonal_gen(1, 2)) == 2


def test_torsion_split_detects_nonsplit_twist(ring_z5):
    units = unit_group(ring_z5)
    twisted = DeformedGroup(
        ring_z5,
        3,
        (CarryCocycle(units, units, {0: 2}), trivial_cocycle(units, units)),
    )
    assert not torsion_split_check(twisted, 1)
    assert torsion_split_check(twisted, 2)


def test_torsion_split_index_range(t3_z3):
    with pytest.raises(InvalidParameter):
        torsion_split_check(t3_z3, 0)
    with pytest.raises(InvalidParameter):
        torsion_split_check(t3_z3, 3)


# ---------------------------------------------------------------------------
# ordered decomposition over Q


def test_delta_square_decomposition_over_q(ring_q):
    group = DeformedGroup(ring_q, 3)
    report = delta_square_decomposition(group, 1, trials=48)
    assert report.ok
    assert report.checked == 48
    assert report.to_json()["failure"] is None
    # sign parts square to the identity in every retained factorization
    for _, (s1, s2, _) in report.factored:
        assert group.op(s1, s1) == group.identity
        assert group.op(s2, s2) == group.identity


def test_delta_square_decomposition_requires_q(t3_z3):
    with pytest.raises(InvalidParameter):
        delta_square_decomposition(t3_z3, 1)


# ---------------------------------------------------------------------------
# brute-force helpers on finite groups


def test_normal_closure_of_transvections(t3_z3, t3_z3_fg):
    assert len(normal_closure(t3_z3_fg, t3_z3.transvection(1, 2, 1))) == 9
    assert len(normal_closure(t3_z3_fg, t3_z3.transvection(1, 3, 1))) == 3


def test_lower_central_series_stabilizes(t3_z3_fg):
    series = lower_central_series(t3_z3_fg)
    assert [len(s) for s in series] == [216, 27]


def test_left_normed_gamma_matches_series(t3_z3_fg):
    series = lower_central_series(t3_z3_fg)
    assert left_normed_gamma(t3_z3_fg, 1) == series[0]
    assert left_normed_gamma(t3_z3_fg, 2) == series[1]
    # the series is stable from gamma_2 on
    assert left_normed_gamma(t3_z3_fg, 3) == series[1]


def test_left_normed_gamma_guards(t3_z3_fg):
    with pytest.raises(InvalidParameter):
        left_normed_gamma(t3_z3_fg, 0)
    with pytest.raises(TooLarge):
        # 7 generators, 7^6 = 117,649 tuples: the guard fires before any product
        left_normed_gamma(t3_z3_fg, 6)


def test_commutator_width_one_suffices(t3_z3_fg, t2_z3_fg):
    report = commutator_width_check(t3_z3_fg, bound=3)
    assert report.within_bound
    assert report.width_needed == 1
    assert report.derived_order == 27
    small = commutator_width_check(t2_z3_fg, bound=3)
    assert small.within_bound and small.width_needed == 1


def test_commutator_width_zero_bound_fails(t3_z3_fg):
    report = commutator_width_check(t3_z3_fg, bound=0)
    assert not report.within_bound
    assert report.width_needed == 0


def _small_groups():
    return {
        "T3(Z/2)": TriMatrixGroup(parse_ring("Z/2"), 3),
        "T2(Z/3)": TriMatrixGroup(parse_ring("Z/3"), 2),
        "T2(Z/5)": TriMatrixGroup(parse_ring("Z/5"), 2),
        "T3(Z/3) deformed": DeformedGroup(parse_ring("Z/3"), 3),
    }


@pytest.mark.parametrize("name", list(_small_groups()) + ["T2(Z/8)", "T3(Z/3)"])
def test_commutator_set_matches_all_pairs(name):
    more = {"T2(Z/8)": TriMatrixGroup(parse_ring("Z/8"), 2), "T3(Z/3)": TriMatrixGroup(parse_ring("Z/3"), 3)}
    fg = from_group({**_small_groups(), **more}[name])
    comms = fg.commutator_set()
    op, inv = fg.op_idx, fg.inv_idx
    assert comms == {op(op(inv(a), inv(b)), op(a, b)) for a in fg.all_indices for b in fg.all_indices}


def test_commutator_width_on_a_memo_group_is_fast():
    # at order 1,100 every product is a matrix product and an index lookup,
    # so |G|^2 commutators would take about 20 s
    fg = from_group(TriMatrixGroup(parse_ring("Z/11"), 2))
    start = time.perf_counter()
    report = commutator_width_check(fg, 2)
    assert time.perf_counter() - start < 3.0
    assert (report.derived_order, report.width_needed, report.within_bound) == (11, 1, True)


@pytest.mark.parametrize("name", list(_small_groups()))
def test_subgroup_nilpotency_matches_standalone_subgroup(name):
    """Series and nilpotency of a subgroup given as parent indices agree
    with the same subgroup built as a FiniteGroup of its own elements."""
    group = _small_groups()[name]
    fg = from_group(group)
    subgroups = []
    seen: set[int] = set()
    for g in fg.all_indices:
        if g not in seen:
            seen |= fg.conjugacy_class(g)
            subgroups.append(fg.normal_closure([g]))
    subgroups.append(brute_force_fitting(fg, class_bound=2).indices)
    for sub in dict.fromkeys(subgroups):
        alone = FiniteGroup([fg.elem(i) for i in sorted(sub)], group.op, group.identity, inverse=group.inverse)
        assert fg.is_nilpotent(sub) == alone.is_nilpotent()
        series = fg.lower_central_series(subgroup=sub)
        alone_series = alone.lower_central_series()
        assert len(series) == len(alone_series)
        assert [{fg.elem(i) for i in term} for term in series] == [
            {alone.elem(i) for i in term} for term in alone_series
        ]


def _closure_by_bfs(fg, seed):
    """The subgroup generated by seed, restated: a search over right
    products by the seeds and their inverses, from the identity."""
    gens = [x for s in seed for x in (s, fg.inv_idx(s))]
    closed = {fg.identity_index, *gens}
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = fg.op_idx(x, g)
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return frozenset(closed)


def _normal_closure_by_rounds(fg, seed, by):
    """The normal closure, restated: close, conjugate every element by
    every element of `by`, and close again until nothing new appears."""
    working = set(seed)
    while True:
        current = _closure_by_bfs(fg, working)
        extra = {fg.conj_idx(x, g) for x in current for g in by} - current
        if not extra:
            return current
        working |= extra


def _greedy_generators(fg, subset):
    gens, known = [], {fg.identity_index}
    for i in sorted(subset):
        if i not in known:
            gens.append(i)
            known = _closure_by_bfs(fg, gens)
    return gens


def _series_restated(fg, subgroup):
    """gamma_{m+1} = the normal closure in H of [x, h] over x in gamma_m and
    the generators h of H."""
    gens = _greedy_generators(fg, subgroup)
    series = [frozenset(subgroup)]
    while True:
        nxt = _normal_closure_by_rounds(fg, {fg.comm_idx(x, h) for x in series[-1] for h in gens}, gens)
        if nxt == series[-1]:
            return series
        series.append(nxt)
        if len(nxt) == 1:
            return series


@pytest.fixture(scope="module")
def closure_groups(t3_z3_fg):
    return {"T3(Z/3) deformed": t3_z3_fg, "T2(Z/11)": from_group(TriMatrixGroup(parse_ring("Z/11"), 2))}


@pytest.mark.parametrize("name", ["T3(Z/3) deformed", "T2(Z/11)"])
def test_closures_match_a_restated_closure(closure_groups, name):
    fg = closure_groups[name]
    rng = random.Random(f"closures:{name}")
    for _ in range(8):
        seed = rng.sample(fg.all_indices, rng.randint(1, 2))
        by = rng.sample(fg.all_indices, 1)
        sub = _closure_by_bfs(fg, seed)
        assert fg.subgroup_closure(seed) == sub
        assert fg.subgroup_generators(sub) == _greedy_generators(fg, sub)
        assert fg.normal_closure(seed) == _normal_closure_by_rounds(fg, seed, fg.generator_indices)
        assert fg.normal_closure(seed, by=by) == _normal_closure_by_rounds(fg, seed, by)
        series = _series_restated(fg, sub)
        assert fg.lower_central_series(subgroup=sub) == series
        nilpotent = len(series[-1]) == 1
        assert fg.is_nilpotent(sub) == (nilpotent, len(series) - 1 if nilpotent else None)
    whole = _series_restated(fg, fg.all_indices)
    assert fg.lower_central_series() == whole
    assert fg.derived_subgroup() == whole[1]


def test_generators_of_a_group_built_without_them():
    group = DeformedGroup(parse_ring("Z/3"), 3)
    fg = FiniteGroup(group.elements(), group.op, group.identity, inverse=group.inverse)
    assert fg.generator_indices == _greedy_generators(fg, fg.all_indices)


def test_normal_closure_conjugates_only_what_it_adjoins():
    # each adjoined element at least doubles the subgroup, so at most
    # L = ceil(log2 |H|) are adjoined; closing costs at most 2 |H| L products
    # in all (each step multiplies the old elements once and each new one by
    # at most L generators), and each conjugate by the 19 generators 2 more
    group = TriMatrixGroup(parse_ring("Z/11"), 2)
    elems = list(group.elements())
    for rows in [((1, 1), (0, 1)), ((1, 7), (0, 10)), ((5, 6), (0, 8))]:
        calls = [0]

        def op(a, b):
            calls[0] += 1
            return group.op(a, b)

        fg = FiniteGroup(elems, op, group.identity, inverse=group.inverse, generators=group.generating_set())
        assert fg.order == 1100 and len(fg.generator_indices) == 19
        closure = fg.normal_closure([fg.index(TriMatrix(group.ring, rows))])
        log = math.ceil(math.log2(len(closure)))
        assert calls[0] <= 2 * len(closure) * log + 2 * 19 * log


def test_no_product_is_computed_twice():
    # products are computed when first asked for and kept: the three
    # questions below share one memo and need far fewer than |G|^2 of them
    group = DeformedGroup(parse_ring("Z/3"), 3)
    elems = list(group.elements())
    pos = {e: i for i, e in enumerate(elems)}
    pairs = collections.Counter()

    def op(a, b):
        pairs[pos[a], pos[b]] += 1
        return group.op(a, b)

    fg = FiniteGroup(elems, op, group.identity, inverse=group.inverse, generators=group.generating_set())
    assert fg.order == 216
    assert not pairs
    assert brute_force_fitting(fg, 2).order == 54
    assert len(defining_set(Model(fg), formula_ncl(2), "x", semantic=True)) == 54
    assert commutator_width_check(fg, 3).width_needed == 1
    assert set(pairs.values()) == {1}
    assert len(pairs) < 216 * 216


def _s4():
    """S_4 as permutation tuples, composed as (p q)(i) = q[p[i]]."""
    elems = list(itertools.permutations(range(4)))
    return FiniteGroup(
        elems,
        lambda p, q: tuple(q[i] for i in p),
        tuple(range(4)),
        inverse=lambda p: tuple(sorted(range(4), key=p.__getitem__)),
    )


def _perm_closure(perms):
    """The subgroup of S_4 generated by perms, restated on the tuples."""
    closed = {tuple(range(4))}
    frontier = list(closed)
    while frontier:
        p = frontier.pop()
        for q in perms:
            r = tuple(q[i] for i in p)
            if r not in closed:
                closed.add(r)
                frontier.append(r)
    return frozenset(closed)


def test_adjoin_reaches_the_join_without_multiplying_the_old_subgroup():
    # every subgroup H of S_4 and every s outside it: <H, s> is reached
    # from s alone, and no element of H is multiplied by s
    elems = list(itertools.permutations(range(4)))
    subgroups = {_perm_closure([p]) for p in elems}
    while True:
        joins = {_perm_closure(a | b) for a in subgroups for b in subgroups}
        if joins <= subgroups:
            break
        subgroups |= joins
    assert len(subgroups) == 30
    cases = 0
    for sub in subgroups:
        for s in elems:
            if s in sub:
                continue
            fg = _s4()
            closed = {fg.index(p) for p in sub}
            gens = fg.subgroup_generators(closed)
            asked = []
            op_idx = fg.op_idx
            fg.op_idx = lambda i, j: asked.append((i, j)) or op_idx(i, j)
            assert fg._adjoin(closed, gens, fg.index(s))
            assert closed == {fg.index(p) for p in _perm_closure(sub | {s})}
            assert not [i for i, j in asked if fg.elem(i) in sub and j == fg.index(s)]
            cases += 1
    assert cases == 577


@pytest.mark.parametrize("name", ["T3(Z/2)", "T2(Z/3)", "T2(Z/5)"])
def test_width_products_match_enumeration(name):
    group = _small_groups()[name]
    fg = from_group(group)
    elems = list(group.elements())
    comms = {
        group.op(group.op(group.inverse(a), group.inverse(b)), group.op(a, b))
        for a in elems
        for b in elems
    }
    assert fg.commutator_set() == frozenset(fg.index(c) for c in comms)
    for m in range(4):
        products = {group.identity}
        for k in range(1, m + 1):
            for word in itertools.product(comms, repeat=k):
                acc = group.identity
                for c in word:
                    acc = group.op(acc, c)
                products.add(acc)
        assert fg.width_products(m) == frozenset(fg.index(x) for x in products)
