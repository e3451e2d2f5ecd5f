"""Symmetric 2-cocycles: verification, splitting, CoT, transport, extensions.

The splitting decisions are checked against a brute-force oracle that
enumerates candidate sections of the extension directly, with no shared
code path.
"""

import itertools
import random

import pytest

from triadeform import (
    CarryCocycle,
    CoboundaryOf,
    FgAbelian,
    FunctionTable,
    InvalidParameter,
    build_extension,
    cocycle_from_json,
    cocycle_inverse,
    cocycle_product,
    ext_group,
    is_coboundary,
    is_cot,
    parse_ring,
    transport_cocycle,
    trivial_cocycle,
    unit_group,
    verify_cocycle,
)
from triadeform.abgroups import AbHom
from triadeform.cocycles import (
    DictPsi,
    coboundary_defect,
    ext_identity,
    ext_mul,
    ext_pow,
)

SMALL_GROUPS = {
    2: [(2,)],
    3: [(3,)],
    4: [(4,), (2, 2)],
    5: [(5,)],
    6: [(6,)],
    7: [(7,)],
    8: [(8,), (2, 4), (2, 2, 2)],
}


def _groups_up_to(bound):
    for order in sorted(SMALL_GROUPS):
        if order > bound:
            break
        for factors in SMALL_GROUPS[order]:
            yield FgAbelian(factors)


def brute_force_splits(f) -> bool:
    """Does the extension E(f) admit a section hom B -> E(f)?

    Enumerates generator images directly: a candidate alpha_i per torsion
    factor, accepted when (g_i, alpha_i) has the right order in E(f).  Cross
    relations hold automatically because E(f) is abelian.
    """
    b, a = f.domain, f.codomain
    factors = b.torsion_factors
    gens = [b.torsion_factor_generator(i) for i in range(len(factors))]
    for alphas in itertools.product(a.elements(), repeat=len(factors)):
        if all(
            ext_pow(f, (g, alpha), m) == ext_identity(f)
            for g, alpha, m in zip(gens, alphas, factors)
        ):
            return True
    return False


def all_carry_cocycles(b, a):
    k = len(b.torsion_factors)
    for targets in itertools.product(a.elements(), repeat=k):
        yield CarryCocycle(b, a, dict(enumerate(targets)))


# ---------------------------------------------------------------------------
# verification


def test_verify_accepts_carries_and_rejects_broken_tables(rng):
    b = FgAbelian((4,))
    a = FgAbelian((2,))
    good = CarryCocycle(b, a, {0: (1,)})
    assert verify_cocycle(good, rng=rng).ok
    table = {(x, y): good(x, y) for x in b.elements() for y in b.elements()}
    assert verify_cocycle(FunctionTable(b, a, table), rng=rng).ok
    table[((1,), (2,))] = a.op(table[((1,), (2,))], (1,))  # break symmetry
    report = verify_cocycle(FunctionTable(b, a, table), rng=rng)
    assert not report.ok and report.failure is not None


def test_verify_exhausts_small_finite_domains(rng):
    uq = unit_group(parse_ring("Q"))
    uz = unit_group(parse_ring("Z"))
    f = CarryCocycle(uz, uq, {0: parse_ring("Q").parse_elem("4")})
    report = verify_cocycle(f, trials=60, rng=rng)
    assert report.ok and report.exhaustive


def test_verify_samples_infinite_domains(rng):
    us = unit_group(parse_ring("Z[sqrt(2)]"))
    f = CarryCocycle(us, us, {0: (3, 2)})
    report = verify_cocycle(f, trials=60, rng=rng)
    assert report.ok and not report.exhaustive and report.checked >= 60


# ---------------------------------------------------------------------------
# splitting vs the brute-force section oracle


def test_is_coboundary_matches_brute_force_on_all_small_carries():
    checked = 0
    for b in _groups_up_to(8):
        for a in _groups_up_to(8):
            for f in all_carry_cocycles(b, a):
                expected = brute_force_splits(f)
                psi = is_coboundary(f)
                assert (psi is not None) == expected, (b, a, f.targets)
                checked += 1
    assert checked > 1000


def test_is_coboundary_witness_is_exact():
    for b in _groups_up_to(6):
        for a in _groups_up_to(6):
            for f in all_carry_cocycles(b, a):
                psi = is_coboundary(f)
                if psi is None:
                    continue
                for x in b.elements():
                    for y in b.elements():
                        assert coboundary_defect(f, psi, x, y) == a.identity


def test_section_witness_rejects_a_non_canonical_argument():
    b = FgAbelian((4,))
    psi = is_coboundary(trivial_cocycle(b, b))
    assert psi((3,)) == (0,)
    with pytest.raises(InvalidParameter, match="reconstruct"):
        psi((7,))


def test_is_coboundary_on_shifted_tables(rng):
    # coboundary * carry tables: verdict must track the carry part
    b = FgAbelian((4,))
    a = FgAbelian((4,))
    for _ in range(60):
        images = {b.identity: a.identity}
        for x in b.elements():
            if x != b.identity:
                images[x] = a.reduce((rng.randrange(4),))
        psi = DictPsi(b, a, images)
        carry = CarryCocycle(b, a, {0: (rng.randrange(4),)})
        mixed_table = {
            (x, y): a.op(coboundary_value(b, a, psi, x, y), carry(x, y))
            for x in b.elements()
            for y in b.elements()
        }
        f = FunctionTable(b, a, mixed_table)
        assert verify_cocycle(f).ok
        assert (is_coboundary(f) is not None) == brute_force_splits(f)


def coboundary_value(b, a, psi, x, y):
    return a.op(psi(b.op(x, y)), a.inverse(a.op(psi(x), psi(y))))


def test_free_domain_factors_never_obstruct():
    uz = unit_group(parse_ring("Z"))
    uq = unit_group(parse_ring("Q"))
    q = parse_ring("Q")
    f = CarryCocycle(uz, uq, {0: q.parse_elem("4")})
    psi = is_coboundary(f)
    assert psi is not None and psi(-1) == q.parse_elem("1/2")
    assert is_coboundary(CarryCocycle(uz, uq, {0: q.parse_elem("2")})) is None


# ---------------------------------------------------------------------------
# ext class counts against brute-force equivalence counting


def _brute_class_count(b, a) -> int:
    carries = list(all_carry_cocycles(b, a))
    reps = []
    for f in carries:
        if not any(
            brute_force_splits(cocycle_product(f, cocycle_inverse(g))) for g in reps
        ):
            reps.append(f)
    return len(reps)


def test_ext_orders_match_brute_class_counts():
    for b in _groups_up_to(6):
        for a in _groups_up_to(6):
            ext = ext_group(b, a)
            order = 1
            for d in ext.invariant_factors:
                order *= d
            assert order == _brute_class_count(b, a), (b, a)


# ---------------------------------------------------------------------------
# CoT


def test_is_cot_examples():
    rs = parse_ring("Z[sqrt(2)]")
    us = unit_group(rs)
    assert not is_cot(CarryCocycle(us, us, {0: (1, 1)}))
    assert is_cot(CarryCocycle(us, us, {0: (3, 2)}))
    assert is_cot(trivial_cocycle(us, us))
    # torsion-free domain: nothing to obstruct
    torsion_free = FgAbelian((), 2)
    assert is_cot(CarryCocycle(torsion_free, FgAbelian((2,)), {}))


def test_is_cot_tracks_torsion_restriction_only():
    # obstruction lives on the torsion factor; free data is irrelevant
    b = FgAbelian((2,), 1)
    a = FgAbelian((4,))
    assert is_cot(CarryCocycle(b, a, {0: (2,)}))
    assert not is_cot(CarryCocycle(b, a, {0: (1,)}))


# ---------------------------------------------------------------------------
# extension groups


def test_extension_group_twisted_vs_split_orders():
    b = FgAbelian((2,))
    a = FgAbelian((2,))
    twisted = build_extension(CarryCocycle(b, a, {0: (1,)}))
    split = build_extension(trivial_cocycle(b, a))
    assert twisted.order() == split.order() == 4
    g = (b.torsion_factor_generator(0), a.identity)
    assert twisted.element_order(g) == 4  # Z/4
    assert split.element_order(g) == 2  # Z/2 x Z/2


def test_extension_group_is_abelian(rng):
    b = FgAbelian((2, 4))
    a = FgAbelian((4,))
    e = build_extension(CarryCocycle(b, a, {0: (2,), 1: (1,)}))
    elems = list(e.elements())
    for _ in range(100):
        x, y = rng.choice(elems), rng.choice(elems)
        assert e.op(x, y) == e.op(y, x)
        assert e.op(x, e.inverse(x)) == e.identity


def test_build_extension_refuses_non_cocycles():
    b = FgAbelian((3,))
    a = FgAbelian((3,))
    table = {(x, y): a.identity for x in b.elements() for y in b.elements()}
    table[((1,), (2,))] = (1,)  # asymmetric against ((2,), (1,))
    with pytest.raises(InvalidParameter):
        build_extension(FunctionTable(b, a, table))


# ---------------------------------------------------------------------------
# transport and serialization


def test_transport_preserves_class_and_values():
    b = FgAbelian((4,))
    a = FgAbelian((2,))
    f = CarryCocycle(b, a, {0: (1,)})
    eta = AbHom(b, b, [[3]])  # relabel the generator
    psi = AbHom.identity(a)
    g = transport_cocycle(f, psi, eta)
    inv = eta.inverse()
    for x in b.elements():
        for y in b.elements():
            assert g(x, y) == psi.apply(f(inv.apply(x), inv.apply(y)))
    assert (is_coboundary(g) is None) == (is_coboundary(f) is None)


def test_transport_rejects_non_bijective_eta():
    from triadeform.errors import NotBijective

    b = FgAbelian((4,))
    a = FgAbelian((2,))
    f = CarryCocycle(b, a, {0: (1,)})
    with pytest.raises(NotBijective):
        transport_cocycle(f, AbHom.identity(a), AbHom(b, b, [[2]]))


def test_cocycle_json_round_trip():
    b = FgAbelian((2, 4))
    a = FgAbelian((4,))
    f = CarryCocycle(b, a, {0: (2,), 1: (3,)})
    g = cocycle_from_json(f.to_json())
    for x in b.elements():
        for y in b.elements():
            assert g(x, y) == f(x, y)
    us = unit_group(parse_ring("Z[sqrt(2)]"))
    h = CarryCocycle(us, us, {0: (3, 2)})
    h2 = cocycle_from_json(h.to_json())
    assert h2((-1, 0), (-1, 0)) == h((-1, 0), (-1, 0)) == (3, 2)


@pytest.fixture
def rng():
    return random.Random(4242)
