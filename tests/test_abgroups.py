"""Finitely generated abelian groups, homomorphisms, Ext, and purity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadeform import AbHom, FgAbelian, InvalidParameter, ext_group, is_pure_subgroup
from triadeform.abgroups import power_by_squaring
from triadeform.errors import NotBijective


def test_kernel_basis_width_is_checked(monkeypatch):
    from triadeform import snf

    monkeypatch.setattr(snf, "kernel_basis", lambda system: [[1]])
    with pytest.raises(RuntimeError, match="coordinates"):
        AbHom.identity(FgAbelian((2,))).kernel_is_trivial()


def test_invariant_chain_enforced():
    FgAbelian((2, 4), 1)
    with pytest.raises(InvalidParameter):
        FgAbelian((4, 2))
    with pytest.raises(InvalidParameter):
        FgAbelian((2, 3))
    with pytest.raises(InvalidParameter):
        FgAbelian((1,))


def test_from_cyclic_orders_canonicalises():
    g = FgAbelian.from_cyclic_orders([2, 3])
    assert g.invariant_factors == (6,)
    h = FgAbelian.from_cyclic_orders([2, 2, 3])
    assert h.invariant_factors == (2, 6)
    assert FgAbelian.from_cyclic_orders([1, 1], 2).free_rank == 2


def test_group_laws_and_orders():
    g = FgAbelian((2, 4), 1)
    x = (1, 3, -2)
    y = (1, 2, 5)
    assert g.op(x, y) == (0, 1, 3)
    assert g.op(x, g.inverse(x)) == g.identity
    assert g.power((0, 1, 0), 4) == g.identity
    assert g.element_order((1, 0, 0)) == 2
    assert g.element_order((0, 1, 0)) == 4
    assert g.element_order((0, 0, 1)) is None
    assert FgAbelian((2, 4)).order() == 8


def test_nth_root_examples():
    g = FgAbelian((8,))
    assert g.nth_root((4,), 2) in {(2,), (6,)}
    assert g.nth_root((1,), 2) is None
    z = FgAbelian((), 1)
    assert z.nth_root((6,), 3) == (2,)
    assert z.nth_root((5,), 3) is None


@pytest.mark.parametrize("x, y", [((1, 3, 99), (1, 1)), ((1, 1), (1, 3, 99)), ((1,), (1, 1)), ((1, 1), ())])
def test_op_refuses_operands_of_the_wrong_length(x, y):
    # zip would stop at the shorter operand and hide the extra coordinate
    with pytest.raises(InvalidParameter, match="coordinates"):
        FgAbelian((2, 4)).op(x, y)
    with pytest.raises(InvalidParameter, match="coordinates"):
        FgAbelian((2,), 1).op(x, y)


def _slow_reduce(factors, rank, vec):
    # one coordinate at a time: torsion coordinates mod d_i, free ones as is
    assert len(vec) == len(factors) + rank
    return tuple(vec[i] % factors[i] if i < len(factors) else vec[i] for i in range(len(vec)))


@pytest.mark.parametrize("factors, rank", [((), 0), ((6,), 0), ((2, 4), 0), ((2, 2, 6), 0), ((3,), 1), ((2, 4), 2), ((), 2)])
def test_coordinate_arithmetic_matches_slow_reduction(factors, rank, rng):
    g = FgAbelian(factors, rank)
    k = len(factors)
    for _ in range(200):
        x = tuple(rng.randint(-50, 50) for _ in range(g.n))
        y = tuple(rng.randint(-50, 50) for _ in range(g.n))
        e = rng.randint(-7, 7)
        assert g.reduce(x) == _slow_reduce(factors, rank, x)
        assert g.op(x, y) == _slow_reduce(factors, rank, [a + b for a, b in zip(x, y)])
        assert g.inverse(x) == _slow_reduce(factors, rank, [-a for a in x])
        assert g.power(x, e) == _slow_reduce(factors, rank, [e * a for a in x])
        canon = _slow_reduce(factors, rank, x)
        assert g.decompose(x) == (canon[:k], {i: canon[k + i] for i in range(rank) if canon[k + i]})
        assert g.compose(*g.decompose(x)) == canon


@given(st.integers(2, 12), st.integers(0, 40), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_nth_root_is_section_hypothesis(m, a, n):
    g = FgAbelian((m,))
    root = g.nth_root((a % m,), n)
    if root is not None:
        assert g.power(root, n) == ((a % m),)
    else:
        # no y with n*y = a mod m exists
        assert all((n * y) % m != a % m for y in range(m))


# ---------------------------------------------------------------------------
# Ext


def _brute_hom_count(m: int, n: int) -> int:
    # |Ext(Z/m, Z/n)| = gcd(m, n) for cyclic groups
    import math

    return math.gcd(m, n)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_ext_cyclic_orders(m, n):
    e = ext_group(FgAbelian((m,)), FgAbelian((n,)))
    order = 1
    for d in e.invariant_factors:
        order *= d
    assert order == _brute_hom_count(m, n)
    assert e.free_rank == 0


def test_ext_free_b_vanishes():
    for rank in (1, 2, 3):
        e = ext_group(FgAbelian((), rank), FgAbelian((4, 8)))
        assert e.invariant_factors == () and e.free_rank == 0


def test_ext_mixed_example():
    # Ext(Z/4 + Z, Z/2) = Z/2
    e = ext_group(FgAbelian((4,), 1), FgAbelian((2,)))
    assert e.invariant_factors == (2,)


def test_ext_random_free_b_instances(rng):
    for _ in range(50):
        b = FgAbelian((), rng.randint(1, 4))
        t = FgAbelian.from_cyclic_orders([rng.randint(2, 9) for _ in range(rng.randint(1, 3))])
        e = ext_group(b, t)
        assert e.invariant_factors == () and e.free_rank == 0


# ---------------------------------------------------------------------------
# homomorphisms


def test_hom_validation_and_apply():
    z4 = FgAbelian((4,))
    z2 = FgAbelian((2,))
    f = AbHom(z4, z2, [[1]])
    assert f.apply((3,)) == (1,)
    with pytest.raises(InvalidParameter):
        # a generator of order 2 cannot map to a generator of order 4
        AbHom(z2, z4, [[1]])
    AbHom(z2, z4, [[2]])


def test_hom_bijectivity_and_inverse():
    g = FgAbelian((2, 4), 1)
    ident = AbHom.identity(g)
    assert ident.is_bijective()
    shear = AbHom(g, g, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert shear.is_bijective()
    inv = shear.inverse()
    for x in [(1, 3, 5), (0, 2, -7)]:
        assert inv.apply(shear.apply(x)) == g.reduce(x)
    proj = AbHom(g, FgAbelian((2,)), [[1, 0, 0]])
    assert proj.is_surjective() and not proj.is_bijective()


def test_power_by_squaring_makes_one_product_per_bit():
    for k in range(-40, 41):
        products, inverses = [], []
        power = power_by_squaring(lambda a, b: products.append(1) or a + b, 0, lambda a: inverses.append(1) or -a, 3, k)
        assert power == 3 * k and len(inverses) == (k < 0)
        assert len(products) == (abs(k).bit_length() - 1 + bin(k).count("1") if k else 0)


# the invariant-factor shapes of rank at most 3, free rank included
SMALL_SHAPES = [
    ((2,), 0), ((4,), 0), ((6,), 0), ((), 1), ((2, 2), 0), ((2, 4), 0), ((3, 6), 0),
    ((2,), 1), ((4,), 1), ((), 2), ((2, 2, 2), 0), ((2, 4, 8), 0), ((2, 6), 1), ((3,), 2), ((), 3),
]


def _seeded_hom(rng, g):
    """A random well-defined endomorphism of g: torsion rows scaled so the
    torsion relations hold, torsion columns zero on the free rows."""
    d = g.invariant_factors
    matrix = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            v = rng.randint(-3, 3)
            if j < g.k:
                v = v * (d[i] // math.gcd(d[i], d[j])) if i < g.k else 0
            row.append(v)
        matrix.append(row)
    return AbHom(g, g, matrix)


def _inverse_by_solving(hom):
    """The inverse matrix restated with one snf.solve_integer per codomain
    generator on [matrix | codomain relations]."""
    from triadeform import snf

    rels = hom.codomain.relation_columns()
    aug = [row + [col[i] for col in rels] for i, row in enumerate(hom.matrix)]
    n = hom.codomain.n
    cols = [snf.solve_integer(aug, [int(i == j) for i in range(n)])[: hom.domain.n] for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(hom.domain.n)]


def test_inverse_equals_the_per_generator_solutions():
    rng = random.Random(20261020)
    inverted = 0
    for factors, free in SMALL_SHAPES:
        g = FgAbelian(factors, free)
        for _ in range(40):
            hom = _seeded_hom(rng, g)
            if not hom.is_bijective():
                with pytest.raises(NotBijective):
                    hom.inverse()
                continue
            inv = hom.inverse()
            assert inv.matrix == _inverse_by_solving(hom)
            for x in (g.sample(rng) for _ in range(5)):
                assert inv.apply(hom.apply(x)) == x and hom.apply(inv.apply(x)) == x
            inverted += 1
    assert inverted > 150


def test_inverse_computes_one_smith_form(monkeypatch):
    from triadeform import snf

    g = FgAbelian((2, 4), 1)
    shear = AbHom(g, g, [[1, 0, 1], [2, 1, 3], [0, 0, -1]])
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    inv = shear.inverse()
    assert len(calls) == 1
    for x in [(1, 3, 5), (0, 2, -7), (1, 1, 0)]:
        assert inv.apply(shear.apply(x)) == x


@pytest.mark.parametrize(
    "hom",
    [
        AbHom(FgAbelian((2, 4), 1), FgAbelian((2,)), [[1, 0, 0]]),
        AbHom(FgAbelian((), 1), FgAbelian((), 1), [[2]]),
        AbHom(FgAbelian((2,)), FgAbelian((4,)), [[2]]),
        AbHom(FgAbelian((4,)), FgAbelian((4,)), [[2]]),
        AbHom(FgAbelian((2, 2)), FgAbelian((2, 2)), [[1, 1], [1, 1]]),
        AbHom(FgAbelian((), 2), FgAbelian((), 1), [[1, 0]]),
        AbHom(FgAbelian((4,)), FgAbelian((), 1), [[0]]),
    ],
)
def test_inverse_of_a_map_that_is_not_bijective_raises(hom):
    assert not hom.is_bijective()
    with pytest.raises(NotBijective):
        hom.inverse()


# ---------------------------------------------------------------------------
# purity


def test_pure_subgroup_examples():
    z = FgAbelian((), 1)
    doubling = AbHom(z, z, [[2]])
    assert not is_pure_subgroup(doubling, bound=6)
    ident = AbHom.identity(z)
    assert is_pure_subgroup(ident, bound=6)
    # Z/2 embedded as the 2-torsion of Z/4 is not pure
    emb = AbHom(FgAbelian((2,)), FgAbelian((4,)), [[2]])
    assert not is_pure_subgroup(emb, bound=6)
    # direct-summand embedding is pure
    summand = AbHom(FgAbelian((2,)), FgAbelian((2, 4)), [[1], [0]])
    assert is_pure_subgroup(summand, bound=8)


@pytest.fixture
def rng():
    return random.Random(7)
