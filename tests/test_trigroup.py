"""Triangular matrix groups, deformations, bridges, presentation checking."""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadeform import (
    CarryCocycle,
    CoboundaryOf,
    DeformedGroup,
    DomainMismatch,
    FunctionTable,
    InvalidParameter,
    MonomialPsi,
    NotAUnit,
    TriMatrix,
    TriMatrixGroup,
    check_presentation,
    deformed_to_matrix,
    fn_identity_check,
    from_group,
    matrix_to_deformed,
    parse_ring,
    split_isomorphism,
    trivial_cocycle,
    unit_group,
    verify_cocycle,
)
from triadeform.cocycles import DictPsi, is_coboundary
from triadeform.errors import ParseError, TooLarge
from triadeform.rings import IntegersMod, Ring
from triadeform.trigroup import DIMENSION_LIMIT, ENUMERATION_LIMIT, _plan, _unit_pool


def _twisted_f5(n=3, target=2):
    r = parse_ring("Z/5")
    u = unit_group(r)
    fs = [CarryCocycle(u, u, {0: target})] + [trivial_cocycle(u, u) for _ in range(n - 2)]
    return DeformedGroup(r, n, tuple(fs))


def _coboundary_q(n=3):
    r = parse_ring("Q")
    u = unit_group(r)
    psi = MonomialPsi(u, u, {0: r.parse_elem("1/2")}, {})
    fs = [CoboundaryOf(u, u, psi)] + [trivial_cocycle(u, u) for _ in range(n - 2)]
    return DeformedGroup(r, n, tuple(fs))


# ---------------------------------------------------------------------------
# strict upper-triangular arithmetic in the normal form


def _unipotent(grp, upper):
    """The element (1, 1, U) of a deformed group."""
    return grp.element(grp.identity.xbar, grp.ring.one, upper)


def test_upper_mul_matches_matrix_product(ring_q, rng):
    n = 4
    grp = DeformedGroup(ring_q, n)
    for _ in range(30):
        g1 = _unipotent(grp, {(i, j): ring_q.random_elem(rng) for i in range(1, n) for j in range(i + 1, n + 1)})
        g2 = _unipotent(grp, {(1, 2): ring_q.random_elem(rng), (2, 4): ring_q.random_elem(rng)})
        m1 = _unitri(ring_q, n, g1.upper)
        m2 = _unitri(ring_q, n, g2.upper)
        for a, b, want in ((g1, g2, m1.mul(m2)), (g2, g1, m2.mul(m1))):
            g = grp.op(a, b)
            assert grp.is_unipotent(g)
            assert _unitri(ring_q, n, g.upper) == want


def _unitri(ring, n, upper):
    m = TriMatrixGroup(ring, n).identity
    rows = [list(row) for row in m.rows]
    for (i, j), v in upper:
        rows[i - 1][j - 1] = v
    return TriMatrix(ring, rows)


def test_upper_inv_is_exact(ring_q, rng):
    n = 5
    grp = DeformedGroup(ring_q, n)
    for _ in range(30):
        g = _unipotent(grp, {(i, j): ring_q.random_elem(rng) for i in range(1, n) for j in range(i + 1, n + 1)})
        assert grp.op(g, grp.inverse(g)).upper == ()
        assert grp.op(grp.inverse(g), g).upper == ()


def test_element_validates_sums_and_drops_zeros(ring_z3):
    grp = DeformedGroup(ring_z3, 3)
    assert _unipotent(grp, {(1, 2): 3}) == grp.identity
    assert _unipotent(grp, {(1, 2): 3}).upper == ()
    assert _unipotent(grp, [((1, 2), 1), ((1, 2), 2)]).upper == ()
    assert _unipotent(grp, [((2, 3), 2), ((1, 3), 1), ((2, 3), 2), ((1, 2), 0)]).upper == (((1, 3), 1), ((2, 3), 1))
    assert _unipotent(grp, [((1, 2), 4), ((1, 2), 0)]) == grp.transvection(1, 2, 1)
    for key in ((2, 2), (0, 1), (3, 4), (2, 1)):
        with pytest.raises(InvalidParameter, match=rf"^entry \({key[0]}, {key[1]}\) is not strictly upper in size 3$"):
            _unipotent(grp, {key: 1})


def test_upper_conjugate_scales_entries(ring_q):
    # (1, 1, U) (xbar, 1, 0) = (xbar, 1, D^-1 U D) for D = diag(xbar, 1)
    grp = DeformedGroup(ring_q, 3)
    torus = grp.element((ring_q.parse_elem("2"), ring_q.parse_elem("3")), ring_q.one, {})
    # entry (1,2) scales by x1^-1 x2
    assert grp.op(_unipotent(grp, {(1, 2): 1}), torus).upper == (((1, 2), ring_q.parse_elem("3/2")),)
    # column n uses x_n = 1
    assert grp.op(_unipotent(grp, {(1, 3): 1}), torus).upper == (((1, 3), ring_q.parse_elem("1/2")),)


def _assert_same_normal_form(grp, a, b):
    assert a == b and hash(a) == hash(b)
    assert a.upper == b.upper and repr(a) == repr(b)
    assert json.dumps(grp.elem_to_json(a)) == json.dumps(grp.elem_to_json(b))


def test_normal_form_is_canonical_whatever_the_route(ring_q, ring_sqrt2, rng):
    for ring in (ring_q, ring_sqrt2):
        grp = DeformedGroup(ring, 4)
        for _ in range(10):
            g = grp.sample(rng)
            b = ring.random_elem(rng)
            # t_ij(b) t_ij(-b) cancels to the identity; g t_13(-u_13) cancels
            # the (1, 3) entry of g, as U e_13 = 0
            _assert_same_normal_form(grp, grp.op(grp.transvection(2, 4, b), grp.transvection(2, 4, ring.neg(b))), grp.identity)
            u13 = dict(g.upper).get((1, 3), ring.zero)
            want = grp.element(g.xbar, g.z, {key: v for key, v in g.upper if key != (1, 3)})
            _assert_same_normal_form(grp, grp.op(g, grp.transvection(1, 3, ring.neg(u13))), want)
            _assert_same_normal_form(grp, grp.inverse(grp.inverse(g)), g)
            _assert_same_normal_form(grp, grp.op(g, grp.inverse(g)), grp.identity)
            m = deformed_to_matrix(grp, g)
            _assert_same_normal_form(grp, matrix_to_deformed(grp, m), g)
            _assert_same_normal_form(grp, grp.inverse(g), matrix_to_deformed(grp, m.inv()))
    # over Z/6, t_12(2) t_23(3) has the product 6 = 0 at (1, 3)
    z6 = parse_ring("Z/6")
    grp = DeformedGroup(z6, 3)
    prod = grp.op(grp.transvection(1, 2, 2), grp.transvection(2, 3, 3))
    _assert_same_normal_form(grp, prod, grp.element((1, 1), 1, {(1, 2): 2, (2, 3): 3}))
    assert prod.upper == (((1, 2), 2), ((2, 3), 3))
    # the split isomorphism of a twisted group returns its elements unchanged
    grp = _coboundary_q()
    iso = split_isomorphism(grp)
    for _ in range(10):
        g = grp.sample(rng)
        _assert_same_normal_form(grp, iso.backward(iso.forward(g)), g)


# ---------------------------------------------------------------------------
# matrix layer


def test_matrix_mul_inverse_round_trip(ring_q, rng):
    grp = TriMatrixGroup(ring_q, 4)
    for _ in range(40):
        m = grp.sample(rng)
        assert m.mul(m.inv()) == grp.identity
        assert m.inv().mul(m) == grp.identity


def test_matrix_requires_unit_diagonal(ring_z):
    with pytest.raises(NotAUnit):
        TriMatrix(ring_z, [[2, 0], [0, 1]])
    with pytest.raises(InvalidParameter):
        TriMatrix(ring_z, [[1, 0], [1, 1]])


def test_matrix_json_round_trip(ring_sqrt2, rng):
    grp = TriMatrixGroup(ring_sqrt2, 3)
    for _ in range(10):
        m = grp.sample(rng)
        assert grp.elem_from_json(grp.elem_to_json(m)) == m


def _schoolbook(ring, a, b):
    """Full n x n x n product of two row tuples, each entry summed from zero."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.add(acc, ring.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _assert_valid_rows(ring, m):
    # the trusted constructor must only ever see rows the validating one accepts
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    rebuilt = TriMatrix(ring, m.rows)
    assert rebuilt.rows == m.rows and rebuilt == m and hash(rebuilt) == hash(m)


@pytest.mark.parametrize("spec", ["Z/6", "Q", "Z[sqrt(2)]"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_lane_matches_schoolbook_products(spec, n, rng):
    ring = parse_ring(spec)
    grp = TriMatrixGroup(ring, n)
    identity = _schoolbook(ring, grp.identity.rows, grp.identity.rows)
    for _ in range(12):
        a, b = grp.sample(rng), grp.sample(rng)
        for m in (a, b):
            _assert_valid_rows(ring, m)
        ab, a_inv, b_inv = a.mul(b), a.inv(), b.inv()
        for m in (ab, a_inv, b_inv):
            _assert_valid_rows(ring, m)
        assert ab.rows == _schoolbook(ring, a.rows, b.rows)
        assert _schoolbook(ring, a.rows, a_inv.rows) == identity
        assert _schoolbook(ring, a_inv.rows, a.rows) == identity
        comm = grp.commutator(a, b)
        _assert_valid_rows(ring, comm)
        expected = _schoolbook(ring, _schoolbook(ring, _schoolbook(ring, a_inv.rows, b_inv.rows), a.rows), b.rows)
        assert comm.rows == expected


@pytest.mark.parametrize("spec, n", [("Z/6", 1), ("Z/6", 2), ("Z/6", 3), ("Z/2", 4), ("Z/3", 3)])
def test_matrix_elements_are_valid_and_distinct(spec, n):
    ring = parse_ring(spec)
    grp = TriMatrixGroup(ring, n)
    elems = list(grp.elements())
    for m in elems:
        _assert_valid_rows(ring, m)
    assert len(set(elems)) == len(elems) == grp.order()
    for m in [grp.identity] + grp.generating_set():
        _assert_valid_rows(ring, m)


def _pictures(m):
    """T_n(Z/m) as matrices (n = 2, 3), untwisted deformed (n = 3) and, when
    (Z/m)^x is not trivial, carry-twisted on its first torsion factor by
    that factor's generator."""
    r = parse_ring(f"Z/{m}")
    out = {"matrix n=2": TriMatrixGroup(r, 2), "matrix n=3": TriMatrixGroup(r, 3), "deformed": DeformedGroup(r, 3)}
    u = unit_group(r)
    if u.torsion_factors:
        out["carry"] = DeformedGroup(r, 3, (CarryCocycle(u, u, {0: u.torsion_factor_generator(0)}), trivial_cocycle(u, u)))
    return out


@pytest.mark.parametrize("m", range(2, 13))
def test_generating_set_is_the_papers_family_and_generates(m):
    for name, grp in _pictures(m).items():
        r, n = grp.ring, grp.n
        units = unit_group(r).generators()
        want = [grp.transvection(i, i + 1, 1) for i in range(1, n)]
        want += [grp.diagonal_gen(k, u) for k in range(1, n + 1) for u in units]
        if isinstance(grp, DeformedGroup):
            want += [grp.central(u) for u in units]
            assert grp.is_untwisted == (name == "deformed")
        assert grp.generating_set() == want, (m, name)
        if grp.order() <= ENUMERATION_LIMIT:
            fg = from_group(grp)
            assert fg.subgroup_closure(fg.generator_indices) == frozenset(fg.all_indices), (m, name)


def test_generating_set_of_a_large_field_lists_no_units(monkeypatch):
    # the unit generators come from the unit group, which finds the least
    # unit of full order in a few steps; listing the 1,000,002 units and
    # closing them took 0.7 s and 169 MB
    def listing(ring):
        raise AssertionError(f"{ring.spec} listed its units")

    monkeypatch.setattr(IntegersMod, "units", listing)
    for make in (TriMatrixGroup, DeformedGroup):
        grp = make(IntegersMod(1_000_003), 3)  # a fresh ring, so no unit group is cached
        start = time.perf_counter()
        gens = grp.generating_set()
        assert time.perf_counter() - start < 0.01
        assert gens[2:5] == [grp.diagonal_gen(k, 2) for k in (1, 2, 3)]
        assert len(gens) == (6 if make is DeformedGroup else 5)


def test_twisted_group_over_a_non_cyclic_unit_group_satisfies_the_presentation(rng):
    # (Z/15)^x = C2 x C4; the carry on the order-4 factor into -1 mod 3 is no coboundary
    r = parse_ring("Z/15")
    u = unit_group(r)
    assert u.torsion_factors == (2, 4)
    carry = CarryCocycle(u, u, {1: u.torsion_factor_generator(0)})
    assert is_coboundary(carry) is None
    g = DeformedGroup(r, 3, (carry, trivial_cocycle(u, u)))
    assert not g.is_untwisted
    for report in check_presentation(g, trials=12, rng=rng):
        assert report.ok, (report.family, report.witness)


@pytest.mark.parametrize("spec", ["Z/6", "Q", "Z[sqrt(2)]"])
def test_bridge_builds_valid_matrices(spec, rng):
    g = DeformedGroup(parse_ring(spec), 3)
    for _ in range(10):
        x = g.sample(rng)
        m = deformed_to_matrix(g, x)
        _assert_valid_rows(g.ring, m)
        assert matrix_to_deformed(g, m) == x


def test_matrix_named_constructors_check_their_arguments(ring_z5):
    t3, t2 = TriMatrixGroup(ring_z5, 3), TriMatrixGroup(ring_z5, 2)
    with pytest.raises(NotAUnit):
        t3.central(0)
    with pytest.raises(NotAUnit):
        t3.diagonal_gen(2, 5)
    with pytest.raises(InvalidParameter):
        t3.diagonal_gen(4, 2)
    with pytest.raises(InvalidParameter):
        t3.transvection(2, 2, 1)
    with pytest.raises(InvalidParameter):
        TriMatrix(ring_z5, [[1, 0], [0, 1, 0]])
    with pytest.raises(InvalidParameter):
        t2.elem_from_json([["1", "0"], ["2", "1"]])
    with pytest.raises(NotAUnit):
        t2.elem_from_json([["1", "0"], ["0", "0"]])
    for bad in ([["1"]], [["1", "0"], ["0", "1"], ["0", "0"]], [["1", "0"], ["0"]], [["1", "0", "0"], ["0", "1", "0"]]):
        with pytest.raises(ParseError, match="2 rows of 2 entries"):
            t2.elem_from_json(bad)
    with pytest.raises(DomainMismatch):
        t2.identity.mul(TriMatrixGroup(parse_ring("Z/7"), 2).identity)
    assert t2.identity != TriMatrixGroup(parse_ring("Z/7"), 2).identity
    assert t3.transvection(1, 3, 7).rows == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    assert t3.diagonal_gen(2, 3).rows == ((1, 0, 0), (0, 3, 0), (0, 0, 1))
    assert t3.central(4).rows == ((4, 0, 0), (0, 4, 0), (0, 0, 4))
    assert t3.identity is t3.identity


def test_matrix_lane_builds_no_validated_matrices(monkeypatch):
    # products, inverses, enumeration and generators are valid by construction;
    # only the public constructor and elem_from_json may check entries
    calls = [0]
    init = TriMatrix.__init__

    def counting_init(self, ring, rows):
        calls[0] += 1
        init(self, ring, rows)

    monkeypatch.setattr(TriMatrix, "__init__", counting_init)
    fg = from_group(TriMatrixGroup(parse_ring("Z/5"), 2))
    assert fg.order == 80
    assert len(fg.center()) == 4
    assert calls[0] == 0
    memo_fg = from_group(TriMatrixGroup(parse_ring("Z/11"), 2))
    assert memo_fg.order == 1100
    assert len(memo_fg.center()) == 10
    gen = memo_fg.index(TriMatrixGroup(memo_fg.elem(0).ring, 2).transvection(1, 2, 1))
    assert len(memo_fg.normal_closure([gen])) == 11
    assert calls[0] == 0


def test_matrix_hash_reads_the_rows_only(monkeypatch):
    z5, z7 = parse_ring("Z/5"), parse_ring("Z/7")
    g = TriMatrixGroup(z5, 3)
    a, b = g.transvection(1, 2, 3), g.diagonal_gen(1, 2)
    built = TriMatrix(parse_ring("Z/5"), [[2, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert g.op(b, a) == built and hash(g.op(b, a)) == hash(built)
    # equal rows over two rings: unequal matrices, two keys of one dict
    rows = [[1, 2, 3], [0, 1, 4], [0, 0, 1]]
    over5, over7 = TriMatrix(z5, rows), TriMatrix(z7, rows)
    assert over5 != over7 and over5.rows == over7.rows
    keys = {over5: "Z/5", over7: "Z/7"}
    assert len(keys) == 2 and keys[TriMatrix(z5, rows)] == "Z/5" and keys[TriMatrix(z7, rows)] == "Z/7"
    calls = [0]
    ring_hash = Ring.__hash__

    def counting_hash(self):
        calls[0] += 1
        return ring_hash(self)

    monkeypatch.setattr(Ring, "__hash__", counting_hash)
    assert hash(z5) == ring_hash(z5) and calls[0] == 1
    calls[0] = 0
    for m in (a, b, built, over5, over7, *g.elements()):
        hash(m)
    assert calls[0] == 0


def test_op_table_associativity_vectorized(t3_z3_fg):
    # full 216x216 index table; associativity via numpy gather
    fg = t3_z3_fg
    table = np.array([[fg.op_idx(a, b) for b in fg.all_indices] for a in fg.all_indices])
    lhs = table[table, :]  # lhs[i, j, k] = (g_i g_j) g_k
    rhs = table[:, table]  # rhs[i, j, k] = g_i (g_j g_k)
    assert lhs.shape == (fg.order,) * 3
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# deformed group laws


def test_constructor_checks_normalisation_on_every_finite_unit():
    # |(Z/41)^x| = 40 lies above the exhaustive limit of the entry check, so
    # its 64 sampled trials can miss a single bad entry; the constructor
    # must not
    r = parse_ring("Z/41")
    u = unit_group(r)
    units = u.elements()
    for bad in units[1:]:
        table = {(x, y): 1 for x in units for y in units}
        table[(1, bad)] = table[(bad, 1)] = 2
        f = FunctionTable(u, u, table)
        if verify_cocycle(f, trials=64, exhaustive_limit=16).ok:
            break
    else:
        pytest.fail("every placement of the bad entry was caught by sampling")
    with pytest.raises(InvalidParameter, match=rf"^cocycle fails the normalisation law at \({bad},\)$"):
        DeformedGroup(r, 3, (f, trivial_cocycle(u, u)))



def test_constructor_reads_no_value_of_a_carry(monkeypatch):
    # carries are cocycles by construction, so building the group, trivial
    # carries included, reads none of their values; its products do
    r = parse_ring("Z/5")
    u = unit_group(r)
    calls = []
    original = CarryCocycle.__call__
    monkeypatch.setattr(CarryCocycle, "__call__", lambda f, x, y: calls.append((x, y)) or original(f, x, y))
    g = DeformedGroup(r, 4, (CarryCocycle(u, u, {0: 2}), trivial_cocycle(u, u), CarryCocycle(u, u, {0: 4})))
    assert calls == [] and not g.is_untwisted
    d = g.diagonal_gen(1, 2)
    assert g.op(d, d) != g.identity and calls != []


def test_constructor_reads_an_exhaustively_checked_cocycle_once_per_pair():
    # |(Z/5)^x| = 4: verify_cocycle's exhaustive report has checked f(1, x)
    # and f(x, 1) on every x, so no second normalisation pass reads f again
    r = parse_ring("Z/5")
    u = unit_group(r)
    calls = []

    class Logged(FunctionTable):
        def __call__(self, x, y):
            calls.append((x, y))
            return super().__call__(x, y)

    f = Logged.from_callable(u, u, CarryCocycle(u, u, {0: 2}))
    DeformedGroup(r, 3, (f, trivial_cocycle(u, u)))
    assert sorted(calls) == sorted(f.table)

def test_constructor_guards():
    r = parse_ring("Z/5")
    u = unit_group(r)
    with pytest.raises(InvalidParameter):
        DeformedGroup(r, 2)
    with pytest.raises(InvalidParameter):
        DeformedGroup(r, 3, (trivial_cocycle(u, u),))
    uz = unit_group(parse_ring("Z"))
    with pytest.raises(DomainMismatch):
        DeformedGroup(r, 3, (trivial_cocycle(uz, uz), trivial_cocycle(u, u)))


@pytest.mark.parametrize("factory", [lambda: DeformedGroup(parse_ring("Q"), 3), _twisted_f5, _coboundary_q])
def test_group_laws_on_samples(factory, rng):
    g = factory()
    xs = [g.sample(rng) for _ in range(12)]
    for a in xs:
        assert g.op(a, g.identity) == a
        assert g.op(g.identity, a) == a
        assert g.op(a, g.inverse(a)) == g.identity
        assert g.op(g.inverse(a), a) == g.identity
    for a in xs[:6]:
        for b in xs[:6]:
            for c in xs[:6]:
                assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_transvection_additivity_hypothesis(b1, b2, b3, num, den):
    q = parse_ring("Q")
    g = DeformedGroup(q, 3)
    from fractions import Fraction

    beta = Fraction(b1, den)
    gamma = Fraction(b2, num)
    t = g.transvection
    assert g.op(t(1, 3, beta), t(1, 3, gamma)) == t(1, 3, beta + gamma)
    assert g.op(t(1, 2, beta), t(1, 2, gamma)) == t(1, 2, beta + gamma)


def test_element_order_and_central(t3_z3):
    g = t3_z3
    minus_one = g.central(2)
    assert g.element_order(minus_one) == 2
    assert g.element_order(g.transvection(1, 2, 1)) == 3
    assert g.element_order(g.identity) == 1


def test_elem_json_shape_and_round_trip(rng):
    g = _twisted_f5()
    for _ in range(15):
        x = g.sample(rng)
        doc = g.elem_to_json(x)
        assert set(doc) == {"xbar", "z", "upper"}
        assert all(isinstance(k, str) and "," in k for k in doc["upper"])
        assert g.elem_from_json(json.loads(json.dumps(doc))) == x


# ---------------------------------------------------------------------------
# bridges to the matrix picture


@pytest.mark.parametrize("spec", ["Q", "Z/3", "Z/5", "Z[sqrt(2)]"])
def test_untwisted_multiply_matches_matrix_multiply(spec, rng):
    r = parse_ring(spec)
    g = DeformedGroup(r, 3)
    m = TriMatrixGroup(r, 3)
    for _ in range(100):
        a, b = g.sample(rng), g.sample(rng)
        assert deformed_to_matrix(g, g.op(a, b)) == deformed_to_matrix(g, a).mul(deformed_to_matrix(g, b))
    for _ in range(50):
        x = m.sample(rng)
        assert deformed_to_matrix(g, matrix_to_deformed(g, x)) == x
        a = g.sample(rng)
        assert matrix_to_deformed(g, deformed_to_matrix(g, a)) == a


def test_bridge_requires_untwisted():
    g = _twisted_f5()
    with pytest.raises(InvalidParameter):
        matrix_to_deformed(g, TriMatrixGroup(g.ring, 3).identity)


# ---------------------------------------------------------------------------
# presentation


def test_presentation_t3_z3_exhaustive(t3_z3):
    for report in check_presentation(t3_z3, trials=0):
        assert report.ok, (report.family, report.witness)
        assert report.checked > 0


def test_presentation_seeded_rings(rng):
    for g in (DeformedGroup(parse_ring("Q"), 3), DeformedGroup(parse_ring("Q"), 4), _coboundary_q(), _twisted_f5()):
        for report in check_presentation(g, trials=12, rng=rng):
            assert report.ok, (report.family, report.witness)


def test_presentation_catches_wrong_cocycle_use():
    # overlap commutation depends on exact upper conjugation; sanity-check
    # one relation by hand: [t_12(b), t_23(c)] = t_13(bc)
    g = DeformedGroup(parse_ring("Q"), 3)
    b = parse_ring("Q").parse_elem("3/2")
    c = parse_ring("Q").parse_elem("-5")
    lhs = g.commutator(g.transvection(1, 2, b), g.transvection(2, 3, c))
    assert lhs == g.transvection(1, 3, b * c)


def _broken(base, family):
    """An untwisted group class with one generator altered so that the named
    relation family fails; families that use the same generator may fail
    with it."""

    class Broken(base):
        def transvection(self, i, j, beta):
            r = self.ring
            if family == "additivity" and (i, j) == (2, 3):
                return super().transvection(i, j, r.mul(beta, beta))
            if family == "disjoint" and (i, j) == (3, 4):  # t_34 drags a t_23 along
                return self.op(super().transvection(3, 4, beta), super().transvection(2, 3, beta))
            if family == "overlap" and (i, j) == (1, self.n):
                return super().transvection(i, j, r.add(beta, beta))
            return super().transvection(i, j, beta)

        def diagonal_gen(self, k, alpha):
            d = super().diagonal_gen(k, alpha)
            p = super().transvection(1, 2, self.ring.one)
            if family == "multiplicativity" and k == self.n:
                return self.op(d, p)
            if family == "commutation" and k == 2:  # still multiplicative in alpha
                return self.op(self.op(p, d), self.inverse(p))
            if family == "conjugation" and k == 1:
                return super().diagonal_gen(k, self.ring.mul(alpha, alpha))
            return d

    return Broken


def _restated_cases(g, family):
    """(witness, holds) for each case of a family at trials=0 over a ring of
    at most 8 elements, in the documented order, for untwisted g."""
    r, n = g.ring, g.n
    scalars, units = list(r.elements()), list(r.units())
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    t, d, op, inv = g.transvection, g.diagonal_gen, g.op, g.inverse

    def comm(a, b):
        return op(op(inv(a), inv(b)), op(a, b))

    if family == "transvection-additivity":
        for (i, j), b, c in itertools.product(pairs, scalars, scalars):
            yield (i, j, b, c), op(t(i, j, b), t(i, j, c)) == t(i, j, r.add(b, c))
    if family == "disjoint-commutation":
        for (i, j), (k, l) in itertools.product(pairs, pairs):
            for b, c in itertools.product(scalars[:4], repeat=2):
                if j != k and l != i:
                    yield (i, j, k, l, b, c), comm(t(i, j, b), t(k, l, c)) == g.identity
    if family == "overlap-commutation":
        for i, j, l in itertools.combinations(range(1, n + 1), 3):
            for b, c in itertools.product(scalars[:4], repeat=2):
                yield (i, j, l, b, c), comm(t(i, j, b), t(j, l, c)) == t(i, l, r.mul(b, c))
    if family == "diagonal-subgroup":
        for k in range(1, n + 1):
            for a1, a2 in itertools.product(units, repeat=2):
                yield ("multiplicativity", k, a1, a2), op(d(k, a1), d(k, a2)) == d(k, r.mul(a1, a2))
        for k, l in itertools.combinations(range(1, n + 1), 2):
            for a1, a2 in itertools.product(units[:4], repeat=2):
                yield ("commutation", k, l, a1, a2), op(d(k, a1), d(l, a2)) == op(d(l, a2), d(k, a1))
    if family == "diagonal-conjugation":
        for k, a in itertools.product(range(1, n + 1), units):
            for (i, j), b in itertools.product(pairs, scalars[:4]):
                scale = (r.inv(a) if i == k else r.one, a if j == k else r.one)
                want = t(i, j, r.mul(r.mul(scale[0], b), scale[1]))
                yield (k, a, i, j, b), op(op(inv(d(k, a)), t(i, j, b)), d(k, a)) == want


@pytest.mark.parametrize(
    "base, spec, n, broken",
    [
        (DeformedGroup, "Z/3", 3, "additivity"),
        (TriMatrixGroup, "Z/3", 4, "disjoint"),
        (TriMatrixGroup, "Z/5", 3, "overlap"),
        (DeformedGroup, "Z/5", 3, "multiplicativity"),
        (TriMatrixGroup, "Z/7", 3, "commutation"),
        (DeformedGroup, "Z/7", 4, "conjugation"),
    ],
)
def test_presentation_reports_the_first_failing_case(base, spec, n, broken):
    # checked counts the cases up to and including the first failure, which
    # is the witness; a family that holds counts all of its cases
    g = _broken(base, broken)(parse_ring(spec), n)
    reports = check_presentation(g, trials=0)
    failing = []
    for report in reports:
        checked, witness = 0, None
        for checked, (case, holds) in enumerate(_restated_cases(g, report.family), 1):
            if not holds:
                witness = case
                break
        assert (report.checked, report.ok, report.witness) == (checked, witness is None, witness), report.family
        failing += [report.family] if witness else []
    assert failing and all(r.family in failing for r in reports if not r.ok)


# ---------------------------------------------------------------------------
# the n-th diagonal family and splitting


def test_fn_identity_all_f5_pairs():
    g = _twisted_f5()
    r = g.ring
    for a in r.units():
        for b in r.units():
            ok, lhs, rhs = fn_identity_check(g, a, b)
            assert ok, (a, b, lhs, rhs)


def test_fn_identity_z_sqrt2_torsion_pairs(rng):
    rs = parse_ring("Z[sqrt(2)]")
    us = unit_group(rs)
    fs = (CarryCocycle(us, us, {0: (3, 2)}), trivial_cocycle(us, us))
    g = DeformedGroup(rs, 3, fs)
    for a in ((1, 0), (-1, 0)):
        for b in ((1, 0), (-1, 0)):
            ok, lhs, rhs = fn_identity_check(g, a, b)
            assert ok


def test_dn_times_inverse_is_identity():
    g = _twisted_f5()
    for a in g.ring.units():
        d = g.diagonal_gen(3, a)
        assert g.op(d, g.inverse(d)) == g.identity


def test_split_isomorphism_untwisted_and_coboundary(rng):
    for g in (DeformedGroup(parse_ring("Q"), 3), _coboundary_q()):
        iso = split_isomorphism(g)
        assert iso is not None
        for _ in range(60):
            a, b = g.sample(rng), g.sample(rng)
            assert iso.forward(g.op(a, b)) == iso.forward(a).mul(iso.forward(b))
            assert iso.backward(iso.forward(a)) == a
            assert iso.forward(iso.backward(iso.forward(b))) == iso.forward(b)


def test_split_isomorphism_refuses_non_coboundary():
    assert split_isomorphism(_twisted_f5()) is None


def test_elements_sizes_and_cap(t3_z3):
    elems = list(t3_z3.elements())
    assert len(elems) == 216 == t3_z3.order()
    assert len(set(elems)) == 216
    for group in (DeformedGroup(parse_ring("Z/7"), 4), TriMatrixGroup(parse_ring("Z/7"), 4), DeformedGroup(parse_ring("Q"), 3)):
        with pytest.raises(TooLarge):
            list(group.elements())


def test_groups_refuse_n_above_the_dimension_limit_before_any_work():
    # a product of dense elements costs about n^3 / 6 ring operations, so a
    # larger n is refused by name, and the largest n allowed still builds at once
    r = parse_ring("Z/5")
    for make in (DeformedGroup, TriMatrixGroup):
        for n in (DIMENSION_LIMIT + 1, 10**30):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match=f"n = {n} exceeds DIMENSION_LIMIT = {DIMENSION_LIMIT}"):
                make(r, n)
            assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        assert make(r, DIMENSION_LIMIT).n == DIMENSION_LIMIT
        assert time.perf_counter() - start < 1.0


def test_slot_plan_feeds_every_entry_of_a_product():
    # (UV)_(i,j) = sum over k of u_(i,k) v_(k,j): slot (i, k) feeds each
    # (k, j) into (i, j), and nothing else
    for n in range(1, 13):
        keys, index, feeds = _plan(n)
        assert keys == tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        for s, (i, k) in enumerate(keys):
            ts, shift = feeds[s]
            assert [(keys[t], keys[t + shift]) for t in ts] == [((k, j), (i, j)) for j in range(k + 1, n + 1)]


def test_twisted_group_order_and_enumeration():
    g = _twisted_f5()
    elems = list(g.elements())
    assert len(elems) == 8000 == g.order()
    fg = from_group(_twisted_f5(n=3, target=1))
    assert fg.order == 8000


# ---------------------------------------------------------------------------
# normal-form products against a restated oracle


class _Arith:
    """Ring arithmetic restated on plain payloads: ints mod 5, Fractions,
    and (a, b) pairs for a + b*sqrt(2)."""

    def __init__(self, spec):
        self.spec = spec
        self.zero = (0, 0) if spec == "Z[sqrt(2)]" else Fraction(0) if spec == "Q" else 0
        self.one = (1, 0) if spec == "Z[sqrt(2)]" else Fraction(1) if spec == "Q" else 1

    def add(self, a, b):
        if self.spec == "Z/5":
            return (a + b) % 5
        if self.spec == "Q":
            return a + b
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        if self.spec == "Z/5":
            return -a % 5
        if self.spec == "Q":
            return -a
        return (-a[0], -a[1])

    def mul(self, a, b):
        if self.spec == "Z/5":
            return a * b % 5
        if self.spec == "Q":
            return a * b
        return (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        if self.spec == "Z/5":
            return pow(a, -1, 5)
        if self.spec == "Q":
            return 1 / a
        norm = a[0] * a[0] - 2 * a[1] * a[1]  # +-1 for a unit
        return (a[0] * norm, -a[1] * norm)


def _oracle_op(ar, n, cocycles, g1, g2):
    """(xbar1 xbar2, z1 z2 prod_i f_i(x1_i, x2_i), U) with I + U the matrix
    product D^-1 (I + U1) D (I + U2), D = diag(xbar2, 1)."""
    xbar = tuple(ar.mul(a, b) for a, b in zip(g1.xbar, g2.xbar))
    z = ar.mul(g1.z, g2.z)
    for i, f in enumerate(cocycles or ()):
        z = ar.mul(z, f(g1.xbar[i], g2.xbar[i]))
    d = list(g2.xbar) + [ar.one]

    def unitri(upper, scale):
        m = [[ar.one if i == j else ar.zero for j in range(n)] for i in range(n)]
        for (i, j), v in upper:
            m[i - 1][j - 1] = ar.mul(ar.mul(ar.inv(d[i - 1]), v), d[j - 1]) if scale else v
        return m

    m1, m2 = unitri(g1.upper, True), unitri(g2.upper, False)
    upper = []
    for i in range(n):
        for j in range(i + 1, n):
            acc = ar.zero
            for k in range(n):
                acc = ar.add(acc, ar.mul(m1[i][k], m2[k][j]))
            if acc != ar.zero:
                upper.append(((i + 1, j + 1), acc))
    return xbar, z, tuple(upper)


def _oracle_inverse(ar, n, cocycles, g):
    """(xbar^-1, (z prod_i f_i(x_i, x_i^-1))^-1, U') with I + U' =
    D^-1 (I + U)^-1 D, D = diag(xbar^-1, 1), by back substitution."""
    xbar = tuple(ar.inv(a) for a in g.xbar)
    z = g.z
    for i, f in enumerate(cocycles or ()):
        z = ar.mul(z, f(g.xbar[i], xbar[i]))
    d = list(xbar) + [ar.one]
    m = [[ar.one if i == j else ar.zero for j in range(n)] for i in range(n)]
    for (i, j), v in g.upper:
        m[i - 1][j - 1] = v
    inv = [[ar.one if i == j else ar.zero for j in range(n)] for i in range(n)]
    upper = []
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = ar.zero
            for k in range(i + 1, j + 1):
                acc = ar.add(acc, ar.mul(m[i][k], inv[k][j]))
            inv[i][j] = ar.neg(acc)
    for i in range(n):
        for j in range(i + 1, n):
            v = ar.mul(ar.mul(ar.inv(d[i]), inv[i][j]), d[j])
            if v != ar.zero:
                upper.append(((i + 1, j + 1), v))
    return xbar, ar.inv(z), tuple(upper)


_TWISTS = {
    "Z/5": {"carry": 2, "coboundary": {1: 1, 2: 2, 3: 4, 4: 3}},
    "Q": {"carry": Fraction(4), "coboundary": Fraction(1, 2)},
    "Z[sqrt(2)]": {"carry": (3, 2), "coboundary": (1, 1)},
}


def _oracle_group(spec, n, kind):
    r = parse_ring(spec)
    if kind == "untwisted":
        return DeformedGroup(r, n)
    u = unit_group(r)
    data = _TWISTS[spec][kind]
    if kind == "carry":
        f = CarryCocycle(u, u, {0: data})
    elif isinstance(data, dict):
        f = CoboundaryOf(u, u, DictPsi(u, u, data))
    else:
        f = CoboundaryOf(u, u, MonomialPsi(u, u, {0: data}, {}))
    # n = 4 twists the first and last factors around a trivial one
    fs = (f, trivial_cocycle(u, u)) if n == 3 else (f, trivial_cocycle(u, u), f)
    return DeformedGroup(r, n, fs)


def _shortcut_pool(g, rng):
    """Elements with all-ones xbar, z = 1, empty U, each alone and combined,
    plus generic samples."""
    r = g.ring
    units = [v for v in (g.sample(rng).z for _ in range(20)) if v != r.one][:2]
    pool = [g.identity, g.transvection(1, g.n, r.random_elem(rng)), g.central(units[0])]
    pool += [g.diagonal_gen(1, units[0]), g.diagonal_gen(g.n, units[1])]
    generic = [g.sample(rng) for _ in range(6)]
    ones = (r.one,) * (g.n - 1)
    pool.append(g.element(ones, generic[0].z, dict(generic[0].upper)))  # xbar ones only
    pool.append(g.element(generic[1].xbar, r.one, dict(generic[1].upper)))  # z = 1 only
    pool.append(g.element(generic[2].xbar, generic[2].z, {}))  # U empty only
    return pool + generic[3:]


# the seven groups of the normal-form benchmark: ring, n and first twist
_NORMAL_FORM_GROUPS = {
    "z5-n3-plain": ("Z/5", 3, None),
    "z5-n4-carry": ("Z/5", 4, ("carry", 2)),
    "z5-n3-cob": ("Z/5", 3, ("table", {1: 1, 2: 2, 3: 4, 4: 3})),
    "q-n3-carry": ("Q", 3, ("carry", Fraction(4))),
    "q-n4-plain": ("Q", 4, None),
    "q-n4-cob": ("Q", 4, ("monomial", Fraction(1, 2))),
    "s2-n3-carry": ("Z[sqrt(2)]", 3, ("carry", (3, 2))),
}


@pytest.mark.parametrize("spec, n, twist", list(_NORMAL_FORM_GROUPS.values()), ids=list(_NORMAL_FORM_GROUPS))
def test_products_keep_the_rings_own_zero_and_one(spec, n, twist):
    # op, inverse and power test 0 and 1 by identity alone, so every zero
    # cell they leave must be ring.zero and every other cell in the support,
    # cancellations included (t_ij(b) t_ij(-b), u u^-1, products over Z/5)
    r = parse_ring(spec)
    if twist is None:
        g = DeformedGroup(r, n)
    else:
        u = unit_group(r)
        kind, data = twist
        first = {
            "carry": lambda: CarryCocycle(u, u, {0: data}),
            "table": lambda: CoboundaryOf(u, u, DictPsi(u, u, data)),
            "monomial": lambda: CoboundaryOf(u, u, MonomialPsi(u, u, {0: data}, {})),
        }[kind]()
        g = DeformedGroup(r, n, (first,) + tuple(trivial_cocycle(u, u) for _ in range(n - 2)))
    rng = random.Random(f"own-zero-one:{spec}:{n}:{twist}")
    scalars = [r.one, r.neg(r.one), r.coerce(2), r.neg(r.coerce(2))] + [r.random_elem(rng) for _ in range(3)]
    units = [r.one, r.neg(r.one)] + [r.random_unit(rng) for _ in range(3)]
    pool = [g.transvection(i, j, b) for i, j in itertools.combinations(range(1, n + 1), 2) for b in scalars[:4]]
    pool += [g.diagonal_gen(k, a) for k in range(1, n + 1) for a in units] + [g.central(a) for a in units]
    pool += [g.sample(rng) for _ in range(6)]
    pool += [g.element([rng.choice(units) for _ in range(n - 1)], rng.choice(units),
                       {key: rng.choice(scalars) for key in rng.sample(list(itertools.combinations(range(1, n + 1), 2)), 2)})
             for _ in range(12)]

    def check(x):
        assert all(v is r.zero for v in x._cells if v == r.zero), x
        assert x._support == tuple(s for s, v in enumerate(x._cells) if v is not r.zero), x
        assert all(v is r.one for v in (*x.xbar, x.z) if v == r.one), x

    cancelled = 0
    for a, b in itertools.chain(itertools.product(pool[:40], repeat=2), (rng.sample(pool, 2) for _ in range(400))):
        for x in (g.op(a, b), g.op(a, g.inverse(b)), g.op(g.inverse(a), a)):
            check(x)
            cancelled += any(x._cells[s] is r.zero for s in a._support + b._support)
    for a in pool:
        check(g.inverse(a))
        for k in (-3, -2, 2, 3, 5):
            check(g.power(a, k))
    assert cancelled > 100


@pytest.mark.parametrize("kind", ["untwisted", "carry", "coboundary"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("spec", ["Z/5", "Q", "Z[sqrt(2)]"])
def test_op_and_inverse_match_oracle(spec, n, kind, rng):
    g = _oracle_group(spec, n, kind)
    ar = _Arith(spec)
    pool = _shortcut_pool(g, rng)
    ones = (g.ring.one,) * (n - 1)
    assert any(e.xbar == ones and e.upper for e in pool)
    assert any(e.z == g.ring.one and e.xbar != ones for e in pool)
    assert any(not e.upper and e.xbar != ones for e in pool)
    assert any(e.xbar != ones and e.z != g.ring.one and e.upper for e in pool)
    for a in pool:
        for b in pool:
            c = g.op(a, b)
            want = _oracle_op(ar, n, g.cocycles, a, b)
            # repr pins each entry's type and, over Q, its reduced form
            assert (c.xbar, c.z, c.upper) == want and repr((c.xbar, c.z, c.upper)) == repr(want), (a, b)
        a_inv = g.inverse(a)
        want = _oracle_inverse(ar, n, g.cocycles, a)
        assert (a_inv.xbar, a_inv.z, a_inv.upper) == want, a
        assert repr((a_inv.xbar, a_inv.z, a_inv.upper)) == repr(want), a
        identity = (ones, ar.one, ())
        assert _oracle_op(ar, n, g.cocycles, a, a_inv) == identity, a
        assert _oracle_op(ar, n, g.cocycles, a_inv, a) == identity, a


@pytest.mark.parametrize(
    "spec, kind", [("Z/5", "carry"), ("Z/5", "coboundary"), ("Q", "carry"), ("Q", "coboundary"), ("Z[sqrt(2)]", "carry")]
)
def test_op_after_a_product_sharing_one_torus_tuple(spec, kind, rng):
    """op remembers its last pair of torus tuples.  Whatever a priming
    product shares with the next one (x1's tuple, x2's or both), every
    product is the one a freshly built group computes, and its central part
    carries the twist prod_i f_i(x1_i, x2_i)."""
    g = _oracle_group(spec, 3, kind)
    r = g.ring
    ones = (r.one,) * (g.n - 1)
    samples = []
    for s in (g.sample(rng) for _ in range(60)):
        if s.xbar != ones and s.upper and all(s.xbar != t.xbar for t in samples):
            samples.append(s)
    # pool[2k] and pool[2k + 1] share the k-th torus tuple; only the second has a strict part
    pool = []
    for s in samples[:3]:
        bare = g.element(s.xbar, s.z, {})
        pool += [bare, g.op(bare, g.element(ones, r.one, dict(s.upper)))]
        assert pool[-1].xbar is bare.xbar and pool[-1].upper == s.upper
    assert len(pool) == 6
    want = {}
    for (i, a), (j, b) in itertools.product(enumerate(pool), repeat=2):
        want[i, j] = _oracle_group(spec, 3, kind).op(a, b)
        twist = r.one
        for f, x1, x2 in zip(g.cocycles, a.xbar, b.xbar):
            twist = r.mul(twist, f(x1, x2))
        assert g.twist(a.xbar, b.xbar) == twist
        assert want[i, j].z == r.mul(r.mul(a.z, b.z), twist)

    def check(i, j):
        got = g.op(pool[i], pool[j])
        assert got == want[i, j] and repr(got) == repr(want[i, j]), (i, j)

    for i, j in itertools.product(range(6), repeat=2):
        sib_i, sib_j, other_i, other_j = i ^ 1, j ^ 1, (i + 2) % 6, (j + 2) % 6
        for prime in ((sib_i, sib_j), (sib_i, other_j), (other_i, sib_j)):
            check(other_i, other_j)  # shares neither tuple with the prime
            check(*prime)
            check(i, j)


# ---------------------------------------------------------------------------
# powers


@pytest.mark.parametrize("factory", [lambda: _twisted_f5(n=4), _coboundary_q])
def test_power_matches_repeated_op(factory, rng):
    g = factory()
    for x in (g.sample(rng) for _ in range(3)):
        acc = g.identity
        x_inv = g.inverse(x)
        acc_inv = g.identity
        assert g.power(x, 0) == g.identity
        for k in range(1, 21):
            acc = g.op(acc, x)
            acc_inv = g.op(acc_inv, x_inv)
            assert g.power(x, k) == acc
            assert g.power(x, -k) == acc_inv


def test_power_large_exponent_is_fast(rng):
    g = _twisted_f5(n=4)
    x = g.sample(rng)
    q = DeformedGroup(parse_ring("Q"), 3)
    t = q.transvection(1, 3, Fraction(3, 2))
    start = time.perf_counter()
    big = g.power(x, 10**6)
    big_t = q.power(t, -(10**6))
    assert time.perf_counter() - start < 1.0
    assert big == g.power(x, 10**6 % g.element_order(x))
    assert big_t == q.transvection(1, 3, Fraction(-3 * 10**6, 2))


def test_unit_pool_counts_the_units_before_it_lists_them(monkeypatch):
    # a ring with at most 8 units gives them all; a larger one gives 1, -1
    # and seeded draws, without listing its units
    assert _unit_pool(IntegersMod(9), random.Random(1), 5) == [1, 2, 4, 5, 7, 8]
    listed = []
    units = IntegersMod.units
    monkeypatch.setattr(IntegersMod, "units", lambda ring: listed.append(ring.m) or units(ring))
    ring = IntegersMod(1_000_003)
    start = time.perf_counter()
    pool = _unit_pool(ring, random.Random(7), 6)
    assert time.perf_counter() - start < 0.05
    rng = random.Random(7)
    assert pool == [1, 1_000_002] + [ring.random_unit(rng) for _ in range(4)]
    assert listed == []
