"""Symmetric 2-cocycles: verification, splitting, CoT, transport, extensions.

The splitting decisions are checked against a brute-force oracle that
enumerates candidate sections of the extension directly, with no shared
code path.
"""

import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest

from triadeform import (
    CarryCocycle,
    CoboundaryOf,
    DeformedGroup,
    DomainMismatch,
    FgAbelian,
    FunctionTable,
    InvalidParameter,
    MonomialPsi,
    NotAUnit,
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
    CocycleReport,
    DictPsi,
    ExtensionGroup,
    ProductCocycle,
    SplitSectionPsi,
    SymCocycle2,
    TransportedCocycle,
    coboundary_defect,
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


def linear_ext_powers(f, x, k):
    """x^0, x^1, ..., x^|k| in E(f), one product at a time; x^-1 for k < 0.

    Restates (b1, a1)(b2, a2) = (b1 b2, a1 a2 f(b1, b2)) and
    (b, a)^-1 = (b^-1, (a f(b, b^-1))^-1) over the carriers alone.
    """
    b, a = f.domain, f.codomain
    if k < 0:
        b_inv = b.inverse(x[0])
        x = (b_inv, a.inverse(a.op(x[1], f(x[0], b_inv))))
    acc = (b.identity, a.identity)
    yield acc
    for _ in range(abs(k)):
        acc = (b.op(acc[0], x[0]), a.op(a.op(acc[1], x[1]), f(acc[0], x[0])))
        yield acc


def linear_ext_pow(f, x, k):
    *_, last = linear_ext_powers(f, x, k)
    return last


def brute_force_splits(f) -> bool:
    """Does the extension E(f) admit a section hom B -> E(f)?

    Searches generator images directly: a candidate alpha_i per torsion
    factor, accepted when (g_i, alpha_i) has the right order in E(f).  Cross
    relations hold automatically because E(f) is abelian, so each factor is
    searched on its own and E(f) splits iff every factor has a lift.
    """
    b, a = f.domain, f.codomain
    identity = (b.identity, a.identity)
    return all(
        any(linear_ext_pow(f, (b.torsion_factor_generator(i), alpha), m) == identity for alpha in a.elements())
        for i, m in enumerate(b.torsion_factors)
    )


def all_carry_cocycles(b, a):
    k = len(b.torsion_factors)
    for targets in itertools.product(a.elements(), repeat=k):
        yield CarryCocycle(b, a, dict(enumerate(targets)))


# ---------------------------------------------------------------------------
# verification


@pytest.mark.parametrize(
    "carrier",
    [
        unit_group(parse_ring("Q")),
        unit_group(parse_ring("Z/9")),
        unit_group(parse_ring("Z[sqrt(2)]")),
        unit_group(parse_ring("Z[sqrt(3)]")),
        unit_group(parse_ring("Z[i]")),
        FgAbelian((2, 6), 2),
        FgAbelian((4,)),
    ],
    ids=repr,
)
def test_torsion_exponents_match_decompose(carrier, rng):
    for _ in range(40):
        x = carrier.sample(rng)
        assert carrier.torsion_exponents(x) == carrier.decompose(x)[0]
    if not isinstance(carrier, FgAbelian):
        zero = carrier.ring.zero
        with pytest.raises(NotAUnit):
            carrier.torsion_exponents(zero)
        with pytest.raises(NotAUnit):
            CarryCocycle(carrier, carrier, {0: carrier.torsion_factor_generator(0)})(zero, carrier.identity)


def test_carry_and_torsion_monomial_never_factor_rationals(monkeypatch):
    import triadeform.rings as rings_module

    q = unit_group(parse_ring("Q"))
    f = CarryCocycle(q, q, {0: parse_ring("Q").parse_elem("3")})
    psi = MonomialPsi(q, q, {0: parse_ring("Q").parse_elem("1/2")})
    monkeypatch.setattr(rings_module, "_trial_factor", None)  # factoring would fail
    minus = parse_ring("Q").parse_elem("-35/12")
    plus = parse_ring("Q").parse_elem("77/5")
    assert f(minus, minus) == 3 and f(minus, plus) == 1
    assert psi(minus) == parse_ring("Q").parse_elem("1/2") and psi(plus) == 1


def test_carry_targets_must_be_elements_of_the_codomain():
    z4 = FgAbelian((4,))
    u5 = unit_group(parse_ring("Z/5"))
    for codomain, target in ((z4, (4,)), (z4, "x"), (z4, [1]), (u5, "x"), (u5, 0), (u5, 10)):
        with pytest.raises(InvalidParameter, match="torsion factor 0 "):
            CarryCocycle(z4, codomain, {0: target})
    with pytest.raises(InvalidParameter, match="torsion factor 1 "):
        CarryCocycle(FgAbelian((2, 4)), z4, {0: (1,), 1: (-1,)})


def test_carry_targets_are_stored_canonical():
    # 6 = 1 and 7 = 2 in (Z/5)^x: the first is no twist, the second reports,
    # serialises and obstructs as 2, as SymCocycle2's walk finds it
    u5 = unit_group(parse_ring("Z/5"))
    assert CarryCocycle(u5, u5, {0: 6}).targets == {}
    assert DeformedGroup(parse_ring("Z/5"), 3, (CarryCocycle(u5, u5, {0: 6}), trivial_cocycle(u5, u5))).is_untwisted
    f = CarryCocycle(u5, u5, {0: 7})
    assert f.targets == {0: 2} and f.to_json()["backend"]["targets"] == {"0": "2"}
    assert f.factor_obstruction(0) == SymCocycle2.factor_obstruction(f, 0) == 2
    q = unit_group(parse_ring("Q"))
    g = CarryCocycle(q, q, {0: 4})
    assert g.targets == {0: parse_ring("Q").parse_elem("4")} and not isinstance(g.targets[0], int)
    assert g.to_json() == cocycle_from_json(g.to_json()).to_json()


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


def unmemoised_report(f) -> CocycleReport:
    """verify_cocycle's exhaustive branch, restated with f and B.op evaluated
    afresh at every use."""
    b, a = f.domain, f.codomain
    elems = list(b.elements())
    checked = 0
    for x in elems:
        checked += 1
        if not (f(b.identity, x) == a.identity and f(x, b.identity) == a.identity):
            return CocycleReport(False, checked, True, ("normalisation", x))
    for x, y in itertools.product(elems, repeat=2):
        checked += 1
        if f(x, y) != f(y, x):
            return CocycleReport(False, checked, True, ("symmetry", x, y))
    for x, y, z in itertools.product(elems, repeat=3):
        checked += 1
        if a.op(f(b.op(x, y), z), f(x, y)) != a.op(f(x, b.op(y, z)), f(y, z)):
            return CocycleReport(False, checked, True, ("cocycle", x, y, z))
    return CocycleReport(True, checked, True)


class LoggedTable(SymCocycle2):
    """f read from a dict of pairs, which may lack some (a FunctionTable
    refuses that when built), recording every pair it is evaluated on; a
    pair with no entry raises KeyError where it is read."""

    def __init__(self, domain, codomain, table):
        self.domain = domain
        self.codomain = codomain
        self.table = table
        self.calls = []

    def __call__(self, x, y):
        self.calls.append((x, y))
        return self.table[(x, y)]


def _broken_tables():
    b = FgAbelian((2, 4))
    a = FgAbelian((4,))
    carry = CarryCocycle(b, a, {0: (1,), 1: (3,)})
    good = {(x, y): carry(x, y) for x in b.elements() for y in b.elements()}
    p, q = (1, 1), (0, 3)
    unnormalised = dict(good)
    unnormalised[(b.identity, q)] = (1,)
    asymmetric = dict(good)
    asymmetric[(p, q)] = a.op(good[(p, q)], (1,))
    # symmetric and normalised, but the cocycle identity fails
    bent = dict(good)
    bent[(p, q)] = bent[(q, p)] = a.op(good[(p, q)], (1,))
    return b, a, {"normalisation": unnormalised, "symmetry": asymmetric, "cocycle": bent, None: good}


def test_verify_report_matches_unmemoised_checks():
    b, a, tables = _broken_tables()
    for law, table in tables.items():
        f = FunctionTable(b, a, table)
        report, expected = verify_cocycle(f, exhaustive_limit=16), unmemoised_report(f)
        assert report == expected and report.to_json() == expected.to_json()
        assert report.exhaustive and report.ok == (law is None)
        assert (report.failure or (None,))[0] == law
    # every pair is evaluated once, although the valid table meets each in many triples
    logged = LoggedTable(b, a, tables[None])
    assert verify_cocycle(logged, exhaustive_limit=16).checked == 8 + 64 + 512
    assert sorted(logged.calls) == sorted(tables[None])
    u5 = unit_group(parse_ring("Z/5"))
    q = parse_ring("Q")
    for target in ("3", "1/2"):
        f = CarryCocycle(u5, unit_group(q), {0: q.parse_elem(target)})
        assert verify_cocycle(f) == unmemoised_report(f) == CocycleReport(True, 4 + 16 + 64, True)


def test_verify_raises_where_the_unmemoised_checks_raise():
    b, a, tables = _broken_tables()
    for missing in [((1, 1), (0, 3)), ((0, 2), b.identity), ((1, 3), (1, 3))]:
        table = dict(tables[None])
        del table[missing]
        memoised, plain = LoggedTable(b, a, table), LoggedTable(b, a, table)
        with pytest.raises(KeyError):
            verify_cocycle(memoised)
        with pytest.raises(KeyError):
            unmemoised_report(plain)
        # the same pairs are first asked for in the same order, up to the failing one
        assert memoised.calls == list(dict.fromkeys(plain.calls))
        assert memoised.calls[-1] == plain.calls[-1] == missing


IDENTITY_DOMAINS = (
    (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2), (16,), (4, 4), (2, 8), (2, 2, 4), (2, 2, 2, 2),
)
IDENTITY_CODOMAINS = ((2,), (3,), (4,), (2, 2))


def _not_identity(carrier, rng):
    while True:
        a = carrier.sample(rng)
        if a != carrier.identity:
            return a


def _law_breaks(f, rng):
    """f's table, and seeded copies of it broken in each law in turn: f(1, q)
    moved; f(p, q) moved alone; f(p, q) and f(q, p) moved together, which
    keeps the table normalised and symmetric."""
    b, a = f.domain, f.codomain
    elems = list(b.elements())
    good = {(x, y): f(x, y) for x in elems for y in elems}
    rest = [x for x in elems if x != b.identity]
    p, q = rng.sample(rest, 2) if len(rest) > 1 else rest * 2  # p = q only on Z/2, which no move can make asymmetric
    shift = _not_identity(a, rng)
    unnormalised = dict(good)
    unnormalised[b.identity, q] = a.op(good[b.identity, q], shift)
    asymmetric = dict(good)
    asymmetric[p, q] = a.op(good[p, q], shift)
    bent = dict(good)
    bent[p, q] = bent[q, p] = a.op(good[p, q], shift)
    return [good, unnormalised, asymmetric, bent]


def _identity_cases(rng):
    for bs in IDENTITY_DOMAINS:
        for cs in IDENTITY_CODOMAINS:
            yield FgAbelian(bs), FgAbelian(cs)
    q, z = unit_group(parse_ring("Q")), FgAbelian((), 1)
    for m in (5, 9, 13):
        u = unit_group(parse_ring(f"Z/{m}"))
        yield u, q
        yield u, z


def test_verify_reports_equal_the_unmemoised_checks_on_every_small_pair(rng):
    # every FgAbelian domain of order at most 16 into small codomains, and
    # (Z/m)^x domains into the infinite Q^x and Z, whose values are numbered
    # as they appear
    laws = {"normalisation": 0, "symmetry": 0, "cocycle": 0, None: 0}
    for b, a in _identity_cases(rng):
        carry = CarryCocycle(b, a, {i: _not_identity(a, rng) for i in range(len(b.torsion_factors))})
        for table in _law_breaks(carry, rng):
            f = FunctionTable(b, a, table)
            report, expected = verify_cocycle(f, exhaustive_limit=16), unmemoised_report(f)
            assert report == expected and report.to_json() == expected.to_json(), (b, a)
            laws[(report.failure or (None,))[0]] += 1
    # 58 pairs; on Z/2 the asymmetric and the bent table are the same
    assert laws["normalisation"] == 58 and laws["symmetry"] == 58 - 4 and laws["cocycle"] >= 50, laws


def test_exhaustive_walk_computes_each_product_once(monkeypatch):
    # |B| = 16, |A| = 4: the definition multiplies 2 |B|^3 = 8,192 times in
    # each group; the walk computes each distinct product once, on the pairs
    # the definition multiplies, in the order it first does
    b, a = FgAbelian((2, 2, 4)), FgAbelian((4,))
    f = FunctionTable.from_callable(b, a, CarryCocycle(b, a, {0: (1,), 2: (3,)}))
    b_calls, a_calls = [], []
    for carrier, calls in ((b, b_calls), (a, a_calls)):
        op = carrier.op
        monkeypatch.setattr(carrier, "op", lambda x, y, calls=calls, op=op: calls.append((x, y)) or op(x, y))
    assert verify_cocycle(f, exhaustive_limit=16) == CocycleReport(True, 16 + 256 + 4096, True)
    assert len(b_calls) <= 16**2 and len(a_calls) <= 4**2
    b_walk, a_walk = b_calls[:], a_calls[:]
    del b_calls[:], a_calls[:]
    assert unmemoised_report(f).ok
    assert len(b_calls) == len(a_calls) == 2 * 16**3
    assert b_walk == list(dict.fromkeys(b_calls)) and a_walk == list(dict.fromkeys(a_calls))


# ---------------------------------------------------------------------------
# extension powers against the linear product


def test_ext_pow_matches_linear_power_on_all_small_carries(rng):
    # each carry is checked on one sign and every fifth exponent in
    # [0, 40], rotating, so all of [-40, 40] is met on every shape
    checked = 0
    for b in _groups_up_to(8):
        b_elems = list(b.elements())
        for a in _groups_up_to(8):
            a_elems = list(a.elements())
            for f in all_carry_cocycles(b, a):
                x = (rng.choice(b_elems), rng.choice(a_elems))
                sign = 1 if checked % 2 else -1
                powers = list(linear_ext_powers(f, x, 40 * sign))
                for j in range(checked // 2 % 5, 41, 5):
                    assert ext_pow(f, x, sign * j) == powers[j], (b, a, f.targets, x, sign * j)
                checked += 1
    assert checked > 3000


def test_ext_pow_matches_linear_power_on_unit_groups():
    rs = parse_ring("Z[sqrt(2)]")
    us = unit_group(rs)
    q = parse_ring("Q")
    cases = [
        (CarryCocycle(us, us, {0: (1, 1)}), (rs.neg(rs.unit_pow((1, 1), 3)), rs.unit_pow((1, 1), -2))),
        (CarryCocycle(unit_group(parse_ring("Z/5")), unit_group(q), {0: q.parse_elem("3")}), (2, q.parse_elem("5/7"))),
    ]
    for f, x in cases:
        for sign in (1, -1):
            for k, expected in enumerate(linear_ext_powers(f, x, 40 * sign)):
                assert ext_pow(f, x, sign * k) == expected, (f.domain, sign * k)


def test_ext_pow_large_exponent_is_fast():
    b, a = FgAbelian((2, 4)), FgAbelian((8,))
    e = build_extension(CarryCocycle(b, a, {0: (3,), 1: (5,)}))
    x = ((1, 3), (2,))
    start = time.perf_counter()
    big, big_inv = e.power(x, 10**6), e.power(x, -(10**6))
    assert time.perf_counter() - start < 1.0
    order = e.element_order(x)
    assert big == linear_ext_pow(e.cocycle, x, 10**6 % order)
    assert big_inv == linear_ext_pow(e.cocycle, x, -(10**6 % order))


def test_section_witness_is_exact_for_large_free_exponents():
    rs = parse_ring("Z[sqrt(2)]")
    us = unit_group(rs)
    f = CarryCocycle(us, us, {0: rs.unit_pow((1, 1), 6)})
    psi = is_coboundary(f)
    assert psi is not None
    units = [rs.unit_pow((1, 1), k) for k in (0, 1, 700, -1000)]
    units += [rs.neg(u) for u in units]
    for x in units:
        for y in units:
            assert coboundary_defect(f, psi, x, y) == us.identity


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


ORDER_16_SHAPES = [
    (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6),
    (13,), (14,), (15,), (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2),
]  # every FgAbelian of order 2 to 16
CYCLIC_UNIT_MODULI = (2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 17, 18, 19, 22, 23, 25, 26, 27, 29)  # m <= 30


def _check_closed_form(f):
    """f's obstructions and is_coboundary's verdict and roots equal those
    computed from SymCocycle2's walk."""
    a, roots = f.codomain, {}
    for idx, m in enumerate(f.domain.torsion_factors):
        walk = SymCocycle2.factor_obstruction(f, idx)
        assert f.factor_obstruction(idx) == walk, (f.to_json(), idx)
        roots[idx] = a.nth_root(a.inverse(walk), m)
    psi = is_coboundary(f)
    if None in roots.values():
        assert psi is None, f.to_json()
    else:
        assert psi is not None and psi.roots == roots, f.to_json()


def test_carry_obstructions_equal_the_walk(rng):
    # every carry of a pair that has at most 64, else every carry with one
    # target and 32 seeded ones; the section search on two carries per pair
    for b, a in itertools.product(map(FgAbelian, ORDER_16_SHAPES), repeat=2):
        k, elems = len(b.torsion_factors), list(a.elements())
        if len(elems) ** k <= 64:
            maps = list(itertools.product(elems, repeat=k))
        else:
            maps = [tuple(c if j == i else a.identity for j in range(k)) for i in range(k) for c in elems]
            maps += [tuple(rng.choice(elems) for _ in range(k)) for _ in range(32)]
        carries = [CarryCocycle(b, a, dict(enumerate(ts))) for ts in maps]
        for f in carries:
            _check_closed_form(f)
        for f in rng.sample(carries, 2):
            assert (is_coboundary(f) is not None) == brute_force_splits(f), (b, a, f.targets)
    units = [unit_group(parse_ring(f"Z/{m}")) for m in CYCLIC_UNIT_MODULI]
    units += [unit_group(parse_ring("Z[sqrt(2)]")), unit_group(parse_ring("Q"))]
    for b, a in itertools.product(units, repeat=2):
        carries = [CarryCocycle(b, a, {0: c} if b.torsion_factors else {}) for c in _target_pool(a)]
        for f in carries:
            _check_closed_form(f)
        if a.is_finite and b.torsion_factors:
            f = rng.choice(carries)
            assert (is_coboundary(f) is not None) == brute_force_splits(f), (b, a, f.targets)


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


def test_is_cot_reads_the_torsion_factors_only():
    # obstruction lives on the torsion factor; free data is irrelevant
    b = FgAbelian((2,), 1)
    a = FgAbelian((4,))
    assert is_cot(CarryCocycle(b, a, {0: (2,)}))
    assert not is_cot(CarryCocycle(b, a, {0: (1,)}))


class RestrictedToTorsion(SymCocycle2):
    """f on the torsion subgroup of its domain, evaluated lazily over
    FgAbelian(torsion factors) embedded through the domain's compose; its
    obstructions come from SymCocycle2's walk over these values."""

    def __init__(self, f):
        self.f, self.domain, self.codomain = f, FgAbelian(f.domain.torsion_factors), f.codomain

    def __call__(self, x, y):
        return self.f(self.f.domain.compose(x, {}), self.f.domain.compose(y, {}))


COT_CARRIERS = [
    FgAbelian((2,)),
    FgAbelian((4,)),
    FgAbelian((2, 2)),
    FgAbelian((2, 4)),
    FgAbelian((3,), 1),
    FgAbelian((2,), 2),
    FgAbelian((), 1),
] + [unit_group(parse_ring(spec)) for spec in ("Z/5", "Z/7", "Z/9", "Q", "Z[sqrt(2)]", "Z[i]", "Z")]


def _target_pool(a):
    """Every element of a finite carrier; the identity, the torsion
    generators and seeded samples of an infinite one."""
    if a.is_finite:
        return list(a.elements())
    rng = random.Random(0)
    pool = [a.identity] + [a.torsion_factor_generator(i) for i in range(len(a.torsion_factors))]
    for x in (a.sample(rng) for _ in range(5)):
        if x not in pool:
            pool.append(x)
    return pool


def test_is_cot_agrees_with_a_restated_restriction_to_torsion():
    checked = 0
    for b in COT_CARRIERS:
        for a in COT_CARRIERS:
            for targets in itertools.product(_target_pool(a), repeat=len(b.torsion_factors)):
                f = CarryCocycle(b, a, dict(enumerate(targets)))
                expected = is_coboundary(RestrictedToTorsion(f)) is not None
                assert is_cot(f) == expected, (b, a, targets)
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize("spec", ["Z/7", "Z/9", "Z[i]"])
def test_unit_group_roots_and_orders_match_a_linear_walk(spec):
    units = unit_group(parse_ring(spec))
    elems = units.elements()  # g^0, g^1, ..., so the first root has the least exponent

    def linear_power(y, n):
        acc = units.identity
        for _ in range(n):
            acc = units.op(acc, y)
        return acc

    for x in elems:
        order = next(k for k in range(1, len(elems) + 1) if linear_power(x, k) == units.identity)
        assert units.element_order(x) == order
        for n in range(1, 2 * len(elems) + 1):
            roots = [y for y in elems if linear_power(y, n) == x]
            assert units.nth_root(x, n) == (roots[0] if roots else None), (x, n)


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


def linear_element_order(f, x, bound):
    """The least k >= 1 with x^k = 1, walking one product at a time."""
    identity = (f.domain.identity, f.codomain.identity)
    return next((k for k, p in enumerate(linear_ext_powers(f, x, bound)) if k and p == identity), None)


def test_element_order_matches_linear_walk_on_all_small_carries(rng):
    checked = 0
    for b in _groups_up_to(8):
        b_elems = list(b.elements())
        for a in _groups_up_to(8):
            a_elems = list(a.elements())
            for f in all_carry_cocycles(b, a):
                e = ExtensionGroup(f)
                x = (rng.choice(b_elems), rng.choice(a_elems))
                assert e.element_order(x) == linear_element_order(f, x, e.order()), (b, a, f.targets, x)
                checked += 1
    assert checked > 3000


def test_element_order_over_infinite_carriers():
    rs = parse_ring("Z[sqrt(2)]")
    us = unit_group(rs)
    one, minus_one, eps = rs.one, rs.neg(rs.one), (1, 1)
    split = build_extension(CarryCocycle(us, us, {}))
    assert split.element_order((minus_one, one)) == 2
    assert split.element_order((one, minus_one)) == 2
    assert split.element_order((one, one)) == 1
    assert split.element_order((eps, one)) is None
    assert split.element_order((minus_one, eps)) is None
    # (-1, 1)^2 = (1, f(-1, -1)): the carry target sets the order
    for target, order in ((minus_one, 4), (eps, None)):
        f = CarryCocycle(us, us, {0: target})
        assert build_extension(f).element_order((minus_one, one)) == order
        assert order is None or linear_element_order(f, (minus_one, one), 8) == order
    q = parse_ring("Q")
    f = CarryCocycle(unit_group(parse_ring("Z/5")), unit_group(q), {0: q.parse_elem("-1")})
    cases = [
        ((2, q.one), 8),
        ((4, q.parse_elem("-1")), 4),
        ((1, q.parse_elem("-1")), 2),
        ((2, q.parse_elem("5/7")), None),
    ]
    for x, order in cases:
        assert build_extension(f).element_order(x) == order
        assert order is None or linear_element_order(f, x, 16) == order


def test_element_order_refuses_a_table_that_is_not_a_cocycle():
    b, a = FgAbelian((3,)), FgAbelian((2,))
    values = {(0, 0): 1, (0, 1): 1, (0, 2): 0, (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 0): 0, (2, 1): 1, (2, 2): 1}
    table = FunctionTable(b, a, {((i,), (j,)): (v,) for (i, j), v in values.items()})
    with pytest.raises(InvalidParameter):
        ExtensionGroup(table).element_order(((1,), (0,)))


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


def test_transported_coboundary_reads_back_with_the_same_values(rng):
    # a coboundary takes the path of every other backend: a transport, whose
    # table document reads back over a finite domain, and which has no
    # document over an infinite one
    a = FgAbelian((4,))
    psi = AbHom(a, a, [[3]])
    cases = [
        (FgAbelian((2, 4)), [[1, 0], [0, 3]], {0: (1,), 1: (3,)}, {}),
        (FgAbelian((2,), 1), [[1, 0], [0, -1]], {0: (1,)}, {0: (1,)}),
    ]
    for b, matrix, torsion_bases, free_bases in cases:
        f = CoboundaryOf(b, a, MonomialPsi(b, a, torsion_bases, free_bases))
        eta = AbHom(b, b, matrix)
        g = transport_cocycle(f, psi, eta)
        inv = eta.inverse()
        xs = list(b.elements()) if b.is_finite else [b.sample(rng) for _ in range(10)]
        want = {(x, y): psi.apply(f(inv.apply(x), inv.apply(y))) for x in xs for y in xs}
        assert any(v != a.identity for v in want.values())
        assert {(x, y): g(x, y) for x in xs for y in xs} == want
        assert isinstance(g, TransportedCocycle) and g.is_cocycle_by_construction
        if b.is_finite:
            back = cocycle_from_json(json.loads(json.dumps(g.to_json())))
            assert {(x, y): back(x, y) for x in xs for y in xs} == want
            assert is_coboundary(back) is not None
        else:
            with pytest.raises(InvalidParameter):
                g.to_json()


def _random_automorphism(group, rng):
    while True:
        matrix = [[rng.randrange(-3, 4) for _ in range(group.n)] for _ in range(group.n)]
        try:
            hom = AbHom(group, group, matrix)
        except InvalidParameter:
            continue
        if hom.is_bijective():
            return hom


def test_transport_table_equals_the_pairwise_evaluation(rng):
    # the transport's table document against from_callable's over the
    # definition psi(f(eta^-1(x), eta^-1(y))) read pair by pair
    for b, a in itertools.product(map(FgAbelian, ORDER_16_SHAPES), repeat=2):
        f = CarryCocycle(b, a, {i: a.sample(rng) for i in range(len(b.torsion_factors))})
        psi, eta = _random_automorphism(a, rng), _random_automorphism(b, rng)
        g = transport_cocycle(f, psi, eta)
        inv = eta.inverse()
        expected = FunctionTable.from_callable(b, a, lambda x, y: psi.apply(f(inv.apply(x), inv.apply(y))))
        assert isinstance(g, TransportedCocycle), (b, a)
        assert json.dumps(g.to_json()) == json.dumps(expected.to_json()), (b, a)
    # up to 256 elements the document is a table, past them there is none
    a = FgAbelian((2,))
    for shape, written in (((2, 128), True), ((2, 256), False)):
        b = FgAbelian(shape)
        g = transport_cocycle(CarryCocycle(b, a, {1: (1,)}), AbHom.identity(a), AbHom(b, b, [[1, 0], [0, 3]]))
        assert isinstance(g, TransportedCocycle) and g((0, 127), (0, 1)) == (1,) and g((1, 3), (1, 5)) == (0,)
        if written:
            assert g.to_json()["backend"]["type"] == "table"
        else:
            with pytest.raises(InvalidParameter, match="table form"):
                g.to_json()


def test_transport_applies_eta_inverse_once_per_element(monkeypatch):
    # nothing is applied until the transport is read; then eta^-1 once per
    # element and psi once per value of f, however often pairs are read
    b, a = FgAbelian((2, 8)), FgAbelian((2, 4))
    f = CarryCocycle(b, a, {0: (1, 1), 1: (0, 3)})
    psi, eta = AbHom(a, a, [[1, 0], [2, 3]]), AbHom(b, b, [[1, 0], [4, 3]])
    elems = list(b.elements())
    calls = []
    apply = AbHom.apply
    monkeypatch.setattr(AbHom, "apply", lambda hom, x: calls.append(hom) or apply(hom, x))
    g = transport_cocycle(f, psi, eta)
    assert calls == []
    read = [g(x, y) for _ in range(2) for x in elems for y in elems]
    values = {f(x, y) for x in elems for y in elems}
    assert len([h for h in calls if h is not psi]) == b.order()
    assert 1 < len([h for h in calls if h is psi]) <= len(values)
    monkeypatch.setattr(AbHom, "apply", apply)
    inv = eta.inverse()
    assert read[: len(elems) ** 2] == [psi.apply(f(inv.apply(x), inv.apply(y))) for x in elems for y in elems]
    assert verify_cocycle(g).ok and (is_coboundary(g) is None) == (is_coboundary(f) is None)


def test_transport_of_a_product_checks_the_isomorphisms_once(monkeypatch):
    b, a = FgAbelian((4,)), FgAbelian((2,))
    parts = [CarryCocycle(b, a, {0: (1,)}), trivial_cocycle(b, a), CoboundaryOf(b, a, MonomialPsi(b, a, {0: (1,)}))]
    eta = AbHom(b, b, [[3]])
    counts = {"is_bijective": 0, "inverse": 0}
    for name in counts:
        method = getattr(AbHom, name)

        def counted(hom, method=method, name=name):
            counts[name] += 1
            return method(hom)

        monkeypatch.setattr(AbHom, name, counted)
    g = transport_cocycle(ProductCocycle(parts), AbHom.identity(a), eta)
    # psi and eta checked once each; the inverse reads its Smith form itself
    assert counts == {"is_bijective": 2, "inverse": 1}
    assert [type(p) for p in g.parts] == [TransportedCocycle] * 3
    for x in b.elements():
        for y in b.elements():
            assert g(x, y) == ProductCocycle(parts)(b.reduce((3 * x[0],)), b.reduce((3 * y[0],)))


def test_carry_transport_computes_three_smith_forms(monkeypatch):
    from triadeform import snf

    b, a = FgAbelian((2, 4)), FgAbelian((4,))
    f = CarryCocycle(b, a, {0: (1,), 1: (3,)})
    psi, eta = AbHom(a, a, [[3]]), AbHom(b, b, [[1, 0], [2, 1]])
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    g = transport_cocycle(f, psi, eta)
    # psi's check, eta's check and eta's inverse
    assert len(calls) == 3
    for x in b.elements():
        for y in b.elements():
            # eta is an involution, so it is its own inverse
            assert g(x, y) == psi.apply(f(eta.apply(x), eta.apply(y)))


def test_transport_rejects_non_bijective_eta():
    from triadeform.errors import NotBijective

    b = FgAbelian((4,))
    a = FgAbelian((2,))
    f = CarryCocycle(b, a, {0: (1,)})
    with pytest.raises(NotBijective):
        transport_cocycle(f, AbHom.identity(a), AbHom(b, b, [[2]]))


@pytest.mark.parametrize("carrier", ["units", "fg"])
@pytest.mark.parametrize("side", ["eta", "psi"])
def test_transport_matches_the_groups_before_any_smith_form(monkeypatch, carrier, side):
    # an AbHom acts on FgAbelian coordinates, so a carry on (Z/7)^x, like a
    # cocycle on other FgAbelian groups than the maps', is refused by
    # comparing the groups, before either map's Smith form is computed
    from triadeform import snf

    if carrier == "units":
        b = a = unit_group(parse_ring("Z/7"))
        f = CarryCocycle(b, a, {0: 3})
    else:
        b, a = FgAbelian((4,)), FgAbelian((2,))
        f = CarryCocycle(b, a, {0: (1,)})
    z6, z2, z4 = FgAbelian((6,)), FgAbelian((2,)), FgAbelian((4,))
    psi, eta = AbHom.identity(z2), AbHom.identity(z4)
    if side == "eta":
        eta = AbHom.identity(z6 if carrier == "units" else z2)
    else:
        psi = AbHom.identity(z6 if carrier == "units" else z4)
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    with pytest.raises(DomainMismatch, match="do not match the cocycle's groups"):
        transport_cocycle(f, psi, eta)
    assert calls == []


def test_cocycle_inverse_of_a_backend_without_one_is_refused():
    class Constant(SymCocycle2):
        domain = codomain = FgAbelian((2,))

        def __call__(self, x, y):
            return self.codomain.identity

    with pytest.raises(InvalidParameter, match="cannot invert Constant structurally"):
        cocycle_inverse(Constant())
    assert not Constant().is_trivial


def test_function_table_names_its_first_missing_pair():
    # a table lacking a pair is refused when built, as a usage error naming
    # the pair, not by a KeyError from whoever reads it first
    z2 = FgAbelian((2,))
    with pytest.raises(InvalidParameter, match=re.escape("table has no entry for x = [0], y = [0]")):
        build_extension(FunctionTable(z2, z2, {}))
    full = {(x, y): z2.identity for x in z2.elements() for y in z2.elements()}
    del full[(1,), (0,)]
    with pytest.raises(InvalidParameter, match=re.escape("x = [1], y = [0]; a table lists every pair")):
        FunctionTable(z2, z2, full)


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


# ---------------------------------------------------------------------------
# psi maps invert in kind, and every document written reads back


def _readable_cocycles(b, a, rng):
    """A cocycle of each backend that documents describe, on finite (B, A):
    a carry, a table, and the coboundaries of a monomial and a table psi."""
    torsion = range(len(b.torsion_factors))
    carry = CarryCocycle(b, a, {i: a.sample(rng) for i in torsion})
    monomial = CoboundaryOf(b, a, MonomialPsi(b, a, {i: a.sample(rng) for i in torsion}))
    table_psi = CoboundaryOf(b, a, DictPsi(b, a, {x: a.sample(rng) for x in b.elements() if x != b.identity}))
    return [carry, FunctionTable.from_callable(b, a, table_psi), monomial, table_psi]


def test_built_cocycles_read_back_with_equal_values(rng):
    # products, inverses and transports of cocycles that documents describe
    # write documents that cocycle_from_json reads, with the same values
    checked = 0
    for b, a in itertools.product(map(FgAbelian, [(4,), (2, 4), (6,), (3,)]), repeat=2):
        elems = list(b.elements())
        fs = _readable_cocycles(b, a, rng)
        psi, eta = _random_automorphism(a, rng), _random_automorphism(b, rng)
        inverses = [cocycle_inverse(f) for f in fs]
        for f, g in zip(fs, inverses):
            assert all(g(x, y) == a.inverse(f(x, y)) for x in elems for y in elems), type(f).__name__
        built = inverses + [cocycle_product(f, g) for f, g in itertools.product(fs, repeat=2)]
        built += [cocycle_inverse(cocycle_product(fs[0], fs[2])), cocycle_inverse(cocycle_product(fs[2], fs[3]))]
        built += [transport_cocycle(f, psi, eta) for f in fs + built]
        for g in built:
            back = cocycle_from_json(json.loads(json.dumps(g.to_json())))
            assert all(back(x, y) == g(x, y) for x in elems for y in elems), (b, a, g.to_json())
            checked += 1
    assert checked == 16 * 48


def _psi_cases(rng):
    """(psi, points): a monomial, a table and a section psi on each pair of
    carriers, with points listing a finite domain or sampling an infinite
    one.  The section is is_coboundary's witness for the monomial's
    coboundary."""
    z3, z4, z2z4, z6 = (FgAbelian(shape) for shape in ((3,), (4,), (2, 4), (6,)))
    q, sqrt2, u7 = (unit_group(parse_ring(spec)) for spec in ("Q", "Z[sqrt(2)]", "Z/7"))
    pairs = [(z4, z4), (z2z4, z4), (z6, z3), (FgAbelian((2,), 1), z4), (q, q), (sqrt2, sqrt2), (u7, u7), (z3, u7)]
    for b, a in pairs:
        points = list(b.elements()) if b.is_finite else [b.sample(rng) for _ in range(12)]
        free_keys = sorted({key for x in points for key in b.decompose(x)[1]})
        torsion = {i: _not_identity(a, rng) for i in range(len(b.torsion_factors))}
        monomial = MonomialPsi(b, a, torsion, {key: _not_identity(a, rng) for key in free_keys})
        table = DictPsi(b, a, {x: a.sample(rng) for x in points if x != b.identity})
        section = is_coboundary(CoboundaryOf(b, a, monomial))
        for psi in (monomial, table, section):
            yield psi, points


def test_psi_inverse_is_the_pointwise_inverse_in_kind(rng):
    checked = 0
    for psi, points in _psi_cases(rng):
        b, a = psi.domain, psi.codomain
        inv = psi.inverse()
        assert type(inv) is type(psi)
        for x in points:
            assert inv(x) == a.inverse(psi(x)), (psi, x)
            checked += 1
        g = cocycle_inverse(CoboundaryOf(b, a, psi))
        assert type(g.psi) is type(psi)
        if b.is_finite:
            f = CoboundaryOf(b, a, psi)
            assert all(g(x, y) == a.inverse(f(x, y)) for x in points for y in points)
        if isinstance(psi, SplitSectionPsi):
            # a section is built from its cocycle and has no document form
            with pytest.raises(InvalidParameter, match="no document form"):
                g.to_json()
        else:
            back = cocycle_from_json(json.loads(json.dumps(g.to_json()))).psi
            assert all(back(x) == inv(x) for x in points)
    assert checked > 150


def test_transported_cocycle_over_a_free_domain_inverts(rng):
    b, a = FgAbelian((2,), 1), FgAbelian((4,))
    f = CoboundaryOf(b, a, MonomialPsi(b, a, {0: (1,)}, {0: (1,)}))
    g = transport_cocycle(f, AbHom(a, a, [[3]]), AbHom(b, b, [[1, 0], [0, -1]]))
    inv = cocycle_inverse(g)
    assert isinstance(g, TransportedCocycle) and isinstance(inv, TransportedCocycle)
    xs = [b.sample(rng) for _ in range(12)]
    assert any(g(x, y) != a.identity for x in xs for y in xs)
    assert all(inv(x, y) == a.inverse(g(x, y)) for x in xs for y in xs)
    assert is_coboundary(inv) is not None


@pytest.fixture
def rng():
    return random.Random(4242)


# ---------------------------------------------------------------------------
# cocycles by construction: the theorem build_extension and DeformedGroup
# skip their check on, and the refusals that stay


def _library_cocycles(b, a, rng, points):
    """Every kind of cocycle the library builds on (B, A) and calls a cocycle
    by construction: a carry, the coboundaries of a monomial, a table (over
    a finite B) and a splitting-witness psi, products of two carries (a
    carry again) and of mixed parts, the inverse of each, and, between
    FgAbelian groups, transport_cocycle's transports of a carry and of a
    product along automorphisms.  points are the elements whose free
    exponents the monomial psi gives bases to."""
    torsion = range(len(b.torsion_factors))
    free_keys = sorted({key for x in points for key in b.decompose(x)[1]})
    carry = CarryCocycle(b, a, {i: a.sample(rng) for i in torsion})
    other = CarryCocycle(b, a, {i: a.sample(rng) for i in torsion})
    psi = MonomialPsi(b, a, {i: a.sample(rng) for i in torsion}, {key: a.sample(rng) for key in free_keys})
    monomial = CoboundaryOf(b, a, psi)
    section = CoboundaryOf(b, a, is_coboundary(monomial))
    built = [carry, monomial, section, cocycle_product(carry, other), cocycle_product(monomial, section)]
    if b.is_finite:
        table = CoboundaryOf(b, a, DictPsi(b, a, {x: a.sample(rng) for x in b.elements() if x != b.identity}))
        built += [table, cocycle_product(carry, table)]
    built += [cocycle_inverse(f) for f in built]
    if isinstance(b, FgAbelian) and isinstance(a, FgAbelian):
        psi, eta = _random_automorphism(a, rng), _random_automorphism(b, rng)
        built += [transport_cocycle(f, psi, eta) for f in (carry, built[4])]
    return built


def _check_by_construction(f, **sampling) -> CocycleReport:
    """verify_cocycle's report on f, which must say it is a cocycle by
    construction; the caller asserts the report."""
    assert f.is_cocycle_by_construction, type(f).__name__
    return verify_cocycle(f, **sampling)


def test_library_cocycles_are_cocycles_exhaustively_on_every_pair_up_to_order_16(rng):
    # the theorem build_extension and DeformedGroup rest on, checked by
    # verify_cocycle's exhaustive branch on every pair of FgAbelian groups
    # of order 2 to 16.  Every kind is checked on each pair with |B| <= 4;
    # past that one kind per pair, in turn, so that each B meets every kind
    # (the exhaustive walk grows as |B|^3)
    checked = 0
    for n, (b, a) in enumerate(itertools.product(map(FgAbelian, ORDER_16_SHAPES), repeat=2)):
        built = _library_cocycles(b, a, rng, list(b.elements()))
        assert all(f.is_cocycle_by_construction for f in built), (b, a)
        for f in built if b.order() <= 4 else [built[n % len(built)]]:
            report = _check_by_construction(f, exhaustive_limit=16)
            assert report.ok and report.exhaustive, (b, a, type(f).__name__, report.failure)
            checked += 1
    assert checked == 4 * 24 * 16 + 20 * 24


UNIT_PAIRS = [("Z/9", "Z/9"), ("Z/29", "Z/29"), ("Z/25", "Q"), ("Q", "Q"), ("Z[sqrt(2)]",) * 2, ("Z/19", "Z[sqrt(2)]")]


@pytest.mark.parametrize("spec_b, spec_a", UNIT_PAIRS)
def test_library_cocycles_pass_seeded_samples_over_unit_groups(spec_b, spec_a):
    # (Z/9)^x has 6 elements and is checked exhaustively, the rest by 200
    # seeded samples each
    b, a = unit_group(parse_ring(spec_b)), unit_group(parse_ring(spec_a))
    rng = random.Random(f"{spec_b}->{spec_a}")
    points = [b.sample(rng) for _ in range(12)]
    for f in _library_cocycles(b, a, rng, points):
        report = _check_by_construction(f, trials=200, rng=random.Random(7), exhaustive_limit=16)
        assert report.ok, (type(f).__name__, report.failure)
        assert report.exhaustive if spec_b == "Z/9" else report.checked == 200


def test_the_theorem_check_fails_a_backend_broken_on_purpose():
    # two backends that claim to be cocycles by construction but are not
    # fail the same check the theorem tests make
    class Lopsided(CoboundaryOf):
        def __call__(self, x, y):  # psi(xy) psi(x)^-1, without psi(y)^-1
            return self.codomain.op(self.psi(self.domain.op(x, y)), self.codomain.inverse(self.psi(x)))

    class LateCarry(CarryCocycle):
        def __call__(self, x, y):  # carries past m, not from m on
            tx, ty = self.domain.torsion_exponents(x), self.domain.torsion_exponents(y)
            out = self.codomain.identity
            for idx, c in self.targets.items():
                if tx[idx] + ty[idx] > self.domain.torsion_factors[idx]:
                    out = self.codomain.op(out, c)
            return out

    b, a = FgAbelian((4,)), FgAbelian((4,))
    for f in (Lopsided(b, a, MonomialPsi(b, a, {0: (1,)})), LateCarry(b, a, {0: (1,)})):
        assert not _check_by_construction(f, exhaustive_limit=16).ok, type(f).__name__


def test_trusted_carry_products_and_inverses_keep_canonical_targets(rng):
    # cocycle_product and cocycle_inverse of carries build through the
    # trusted constructor; their targets are what the public one would store
    for b, a in [(FgAbelian((2, 4)), FgAbelian((2, 6))), (unit_group(parse_ring("Z/9")), unit_group(parse_ring("Q")))]:
        torsion = range(len(b.torsion_factors))
        for _ in range(20):
            f = CarryCocycle(b, a, {i: a.sample(rng) for i in torsion})
            g = CarryCocycle(b, a, {i: a.sample(rng) for i in torsion})
            for h in (cocycle_product(f, g), cocycle_inverse(f), cocycle_product(f, cocycle_inverse(f))):
                assert type(h) is CarryCocycle and h.targets == CarryCocycle(b, a, h.targets).targets
            assert cocycle_product(f, cocycle_inverse(f)).targets == {}


def test_public_carry_constructor_still_checks_its_targets():
    u = unit_group(parse_ring("Z/9"))
    assert CarryCocycle(u, u, {0: 11}).targets == {0: 2}  # a representative is canonicalised
    with pytest.raises(InvalidParameter, match="not an element"):
        CarryCocycle(u, u, {0: 3})
    with pytest.raises(InvalidParameter, match="no torsion factor"):
        CarryCocycle(u, u, {1: 2})


def _asymmetric_table(b, a, value):
    """The table with identity values but f(g, g^2) = value, g = (1,)."""
    table = {(x, y): a.identity for x in b.elements() for y in b.elements()}
    table[(1,), (2,)] = value
    return FunctionTable(b, a, table)


def test_refusals_of_tables_are_unchanged():
    # a table is never a cocycle by construction, alone, inside a product
    # or under a transport's base, and is refused with the law and witness
    # it had when every cocycle was checked, in the one message of
    # check_cocycle
    z3 = FgAbelian((3,))
    table = _asymmetric_table(z3, z3, (1,))
    moved = transport_cocycle(table, AbHom(z3, z3, [[2]]), AbHom(z3, z3, [[2]]))
    product = ProductCocycle([CarryCocycle(z3, z3, {0: (1,)}), table])
    for f in (table, product, moved):
        assert not f.is_cocycle_by_construction
        with pytest.raises(InvalidParameter) as exc:
            build_extension(f)
        assert str(exc.value) == "cocycle fails the symmetry law at ((1,), (2,))"
    r7 = parse_ring("Z/7")
    u7 = unit_group(r7)
    t7 = FunctionTable(u7, u7, {(x, y): 2 if (x, y) == (3, 5) else 1 for x in u7.elements() for y in u7.elements()})
    cases = [
        (t7, trivial_cocycle(u7, u7)),
        (trivial_cocycle(u7, u7), ProductCocycle([CarryCocycle(u7, u7, {0: 3}), t7])),
    ]
    for fs in cases:
        with pytest.raises(InvalidParameter) as exc:
            DeformedGroup(r7, 3, fs)
        assert str(exc.value) == "cocycle fails the symmetry law at (3, 5)"


def test_every_single_pair_asymmetry_over_a_unit_group_of_40_is_refused_by_both_callers():
    # |(Z/41)^x| = 40 lies past the exhaustive limit, so sampling alone let
    # most tables that are asymmetric at one pair through; the entry check
    # then reads every element and pair, and build_extension and
    # DeformedGroup refuse each such table with one message
    r = parse_ring("Z/41")
    u = unit_group(r)
    units = u.elements()
    ones = {(x, y): 1 for x in units for y in units}

    def deformed(f):
        return DeformedGroup(r, 3, (f, trivial_cocycle(u, u)))

    refused, at_the_pair = 0, 0
    for p, q in itertools.permutations(units, 2):
        f = FunctionTable(u, u, ones)
        f.table[p, q] = 2
        messages = set()
        for build in (build_extension, deformed):
            with pytest.raises(InvalidParameter) as exc:
                build(f)
            messages.add(str(exc.value))
        (message,) = messages
        assert re.fullmatch(r"cocycle fails the (normalisation|symmetry|cocycle) law at \(.+\)", message)
        refused += 1
        # a sampled triple may meet the bad pair first, in the cocycle law
        at_the_pair += message in {
            f"cocycle fails the normalisation law at ({p * q},)",
            f"cocycle fails the symmetry law at ({p}, {q})",
            f"cocycle fails the symmetry law at ({q}, {p})",
        }
    assert refused == 40 * 39 and at_the_pair > refused // 2


def test_coboundaries_of_partial_psi_tables_raise_when_built():
    # a psi table that lacks an element is not total: build_extension and
    # DeformedGroup verify its coboundary, which meets the gap then, not at
    # first use
    z4 = FgAbelian((4,))
    f = CoboundaryOf(z4, z4, DictPsi(z4, z4, {(1,): (1,)}))
    assert not f.is_cocycle_by_construction
    with pytest.raises(InvalidParameter, match=r"^psi table has no entry for \[2\]$"):
        build_extension(f)
    r7, rq = parse_ring("Z/7"), parse_ring("Q")
    u7, uq = unit_group(r7), unit_group(rq)
    cases = [
        (r7, CoboundaryOf(u7, u7, DictPsi(u7, u7, {3: 2})), "2"),
        (rq, CoboundaryOf(uq, uq, DictPsi(uq, uq, {rq.parse_elem("2"): rq.parse_elem("3")})), "-5"),
    ]
    for ring, f, missing in cases:
        assert not f.is_cocycle_by_construction
        with pytest.raises(InvalidParameter) as exc:
            DeformedGroup(ring, 3, (f, trivial_cocycle(f.domain, f.codomain)))
        assert str(exc.value) == f"psi table has no entry for {missing}"
    # a complete table over a finite domain is total, with values in A only
    full = {x: (1,) for x in z4.elements() if x != z4.identity}
    assert CoboundaryOf(z4, z4, DictPsi(z4, z4, full)).is_cocycle_by_construction
    assert not CoboundaryOf(z4, z4, DictPsi(z4, z4, {**full, (2,): (5,)})).is_cocycle_by_construction
    # a psi on other groups than the cocycle's is not trusted either
    z2 = FgAbelian((2,))
    assert not CoboundaryOf(z4, z4, MonomialPsi(z2, z4, {0: (1,)})).is_cocycle_by_construction


def test_build_extension_reads_no_value_of_a_carry(monkeypatch):
    calls = []
    original = CarryCocycle.__call__
    monkeypatch.setattr(CarryCocycle, "__call__", lambda f, x, y: calls.append((x, y)) or original(f, x, y))
    b, a = FgAbelian((2, 4)), FgAbelian((8,))
    f = CarryCocycle(b, a, {0: (3,), 1: (5,)})
    e = build_extension(f)
    assert calls == []
    # the group still reads f: x^4 carries twice on Z/2 and once on Z/4
    assert e.power(((1, 1), (0,)), 4) == ((0, 0), (2 * 3 + 5 - 8,))
    assert calls != []
    # a transported carry, alone or in a product, is a cocycle by
    # construction too: neither f nor the maps are read
    calls.clear()
    apply = AbHom.apply
    monkeypatch.setattr(AbHom, "apply", lambda hom, x: calls.append(hom) or apply(hom, x))
    b, a = FgAbelian((4, 4)), FgAbelian((8,))
    f = CarryCocycle(b, a, {0: (3,), 1: (5,)})
    psi, eta = AbHom(a, a, [[3]]), AbHom(b, b, [[1, 1], [0, 1]])
    for g in (transport_cocycle(f, psi, eta), transport_cocycle(ProductCocycle([f, f]), psi, eta)):
        assert build_extension(g).cocycle is g
    assert calls == []


def test_a_transport_takes_homomorphisms_only():
    # two callables are not a transport: a map that is not a homomorphism
    # would make E(f) from a non-cocycle that claims to be one
    z4 = FgAbelian((4,))
    carry = CarryCocycle(z4, z4, {0: (1,)})
    with pytest.raises(TypeError):
        TransportedCocycle(carry, z4, z4, lambda a: (1,), lambda x: x)
    with pytest.raises(InvalidParameter, match="AbHom"):
        TransportedCocycle(carry, lambda a: (1,), lambda x: x)
    with pytest.raises(DomainMismatch):
        TransportedCocycle(carry, AbHom.identity(z4), AbHom.identity(FgAbelian((2,))))
    g = TransportedCocycle(carry, AbHom(z4, z4, [[3]]), AbHom.identity(z4))
    assert g.is_cocycle_by_construction and verify_cocycle(g).ok


def test_monomial_psi_refuses_a_free_key_that_names_no_free_factor():
    # a base on a key decompose never gives would be trusted and ignored
    b, a, q = FgAbelian((2,), 1), FgAbelian((4,)), unit_group(parse_ring("Q"))
    for domain, codomain, key, base in [(b, a, 5, (1,)), (b, a, -1, (1,)), (a, a, 0, (1,)), (q, q, 4, Fraction(2))]:
        with pytest.raises(InvalidParameter, match=f"no free factor {key}"):
            MonomialPsi(domain, codomain, {}, {key: base})
    assert MonomialPsi(b, a, {}, {0: (1,)})((1, 3)) == (3,)
    assert MonomialPsi(q, q, {}, {3: Fraction(2)})(Fraction(-9, 5)) == 4


def test_monomial_psi_refuses_a_torsion_index_outside_its_domain():
    b, a = FgAbelian((2, 4)), FgAbelian((4,))
    for idx in (-1, 2, 7):
        with pytest.raises(InvalidParameter, match=f"no torsion factor {idx}"):
            MonomialPsi(b, a, {idx: (1,)})
    psi = MonomialPsi(b, a, {1: (1,)})
    assert psi((1, 3)) == (3,) and psi((1, 0)) == (0,)
