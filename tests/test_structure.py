"""Subgroup descriptions, tori, decompositions, and brute-force verifiers."""

import itertools
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


def test_fitting_fast_reject_agrees_with_full_scan(t2_z3_fg):
    fast = brute_force_fitting(t2_z3_fg, class_bound=2, fast_reject=True)
    slow = brute_force_fitting(t2_z3_fg, class_bound=2, fast_reject=False)
    assert fast.indices == slow.indices
    assert fast.fast_rejections > 0
    assert slow.fast_rejections == 0


def test_fitting_description_requires_domain():
    group = DeformedGroup(parse_ring("Z/4"), 3)
    with pytest.raises(InvalidParameter):
        fitting_description(group)


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
        left_normed_gamma(t3_z3_fg, 5, max_tuples=10)


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
    # order 1,100 is above the table limit: every product goes through the
    # memo, so |G|^2 commutators would take about 20 s
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


def test_no_element_products_after_the_table_is_built():
    group = DeformedGroup(parse_ring("Z/3"), 3)
    calls = [0]

    def op(a, b):
        calls[0] += 1
        return group.op(a, b)

    fg = FiniteGroup(group.elements(), op, group.identity, inverse=group.inverse, generators=group.generating_set())
    assert fg.order == 216
    built = calls[0]
    assert built == 216 * 216
    assert brute_force_fitting(fg, 2).order == 54
    assert calls[0] == built
    assert len(defining_set(Model(fg), formula_ncl(2), "x", semantic=True)) == 54
    assert calls[0] == built
    assert commutator_width_check(fg, 3).width_needed == 1
    assert calls[0] == built


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
