"""Ring arithmetic, unit groups, divisibility, and the psi predicate."""

import itertools
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadeform import (
    DeformedGroup,
    DivisionByZeroDivisor,
    InvalidParameter,
    NotAUnit,
    ParseError,
    TriMatrixGroup,
    divides,
    eval_psi,
    fundamental_unit,
    is_square_unit,
    is_unit,
    parse_ring,
    unit_decompose,
    unit_group,
)
from triadeform.errors import NotInSubgroupB, TooLarge
from triadeform.rings import (
    COMPLETE,
    FUNDAMENTAL_UNIT_DIGITS,
    GaussianIntegers,
    IntegerRing,
    IntegersMod,
    QuadraticOrder,
    RationalField,
    UnitGroupStruct,
)

# ---------------------------------------------------------------------------
# parsing and the basic ring contract


@pytest.mark.parametrize(
    "spec, kind",
    [
        ("Z", "Integers"),
        ("Q", "Rationals"),
        ("Z/7", "IntegersMod"),
        ("Z[sqrt(2)]", "QuadraticOrder"),
        ("Z[i]", "GaussianIntegers"),
    ],
)
def test_parse_ring_kinds(spec, kind):
    assert parse_ring(spec).kind == kind


def test_parse_ring_rejects_garbage():
    for bad in ("Z/1", "Z[sqrt(4)]", "Z[sqrt(1)]", "GF(9)", ""):
        with pytest.raises((ParseError, InvalidParameter)):
            parse_ring(bad)


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/6", "Z[sqrt(2)]", "Z[sqrt(-5)]", "Z[i]"])
def test_ring_axioms_on_samples(spec, rng):
    r = parse_ring(spec)
    xs = [r.random_elem(rng) for _ in range(8)] + [r.zero, r.one]
    for x in xs:
        assert r.add(x, r.zero) == x
        assert r.mul(x, r.one) == x
        assert r.add(x, r.neg(x)) == r.zero
    for x in xs:
        for y in xs:
            assert r.add(x, y) == r.add(y, x)
            assert r.mul(x, y) == r.mul(y, x)
    for x in xs[:4]:
        for y in xs[:4]:
            for z in xs[:4]:
                assert r.mul(x, r.add(y, z)) == r.add(r.mul(x, y), r.mul(x, z))


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/9", "Z[sqrt(3)]", "Z[i]"])
def test_elem_text_and_json_round_trip(spec, rng):
    r = parse_ring(spec)
    for _ in range(20):
        x = r.random_elem(rng)
        assert r.parse_elem(r.format_elem(x)) == x
        assert r.elem_from_json(r.elem_to_json(x)) == x


@pytest.mark.parametrize(
    "spec, good, bad",
    [
        ("Z", [(7, 7), ("-7", -7)], [7.0, 2.7, True, "7.0", "+7", " 7", "x", None]),
        ("Z/5", [(7, 2), ("-1", 4)], [2.7, False, "2.7", "", [2]]),
        ("Q", [({"num": 1, "den": "2"}, Fraction(1, 2))], [{"num": 1.5, "den": "1"}, {"num": "1", "den": True}]),
        ("Z[sqrt(2)]", [({"a": 1, "b": "-2", "d": 2}, (1, -2))], [{"a": 1.0, "b": "0"}, {"a": "1", "b": "0", "d": 2.0}]),
    ],
)
def test_elem_from_json_reads_integers_only(spec, good, bad):
    # a JSON integer or the decimal string elem_to_json writes; int() used
    # to accept floats and booleans and truncate them
    r = parse_ring(spec)
    for data, x in good:
        assert r.elem_from_json(data) == x
    for data in bad:
        with pytest.raises(ParseError):
            r.elem_from_json(data)


@pytest.mark.parametrize(
    "spec, form, bad",
    [
        ("Q", "{num, den}", ["-1/4", [1, 4], {"num": 1}, {"den": 4}, None, 7]),
        ("Z[sqrt(2)]", "{a, b, d?}", ["d", "a", [1, 2], {"a": 1}, {"b": 1, "d": 2}, None]),
        ("Z[i]", "{a, b, d?}", ["d", "1+i", [1, 1], {"b": 1}, None]),
    ],
)
def test_elem_from_json_names_the_object_form(spec, form, bad):
    # a string, a list or an object missing a key is a ParseError naming the
    # expected object, not a TypeError or KeyError from indexing it ("d" in
    # a string used to pass as a substring test)
    r = parse_ring(spec)
    for data in bad:
        with pytest.raises(ParseError, match=re.escape(form)):
            r.elem_from_json(data)
    with pytest.raises(ParseError):
        parse_ring("Q").elem_from_json({"num": "1", "den": "0"})


def test_rationals_stay_exact():
    q = parse_ring("Q")
    x = q.parse_elem("1/3")
    acc = q.zero
    for _ in range(3):
        acc = q.add(acc, x)
    assert acc == q.one
    assert isinstance(x, Fraction)


# per ring: fresh values equal to 0 and to 1 that ensure accepts, and text
# literals of them; a fresh tuple is built at run time, so it is never one of
# the ring's own constants
_ZERO_ONE_FORMS = {
    "Z": ([0, False, 2**70 - 2**70], [1, True, 2**70 + 1 - 2**70], [" 0 ", "-0"], ["1", "+1"]),
    "Z/6": ([0, False, 6, -12], [1, True, 7, -5], ["0", "6", "-6"], ["1", "7", "-5"]),
    "Q": ([0, False, Fraction(0), Fraction(0, 7)], [1, True, Fraction(1), Fraction(3, 3)], ["0", "0/5"], ["1", "3/3"]),
    "Z[sqrt(2)]": ([0, False, tuple([0, 0]), (False, False)], [1, True, tuple([1, 0]), (True, 0)], ["0", "0+0*sqrt(2)"], ["1", "1+0*sqrt(2)"]),
    "Z[sqrt(-3)]": ([0, False, tuple([0, 0]), (0, False)], [1, True, tuple([1, 0]), (True, False)], ["0", "0*sqrt(-3)"], ["1", "1-0*sqrt(-3)"]),
    "Z[i]": ([0, False, tuple([0, 0]), (False, 0)], [1, True, tuple([1, 0]), (1, False)], ["0", "0*i"], ["1", "1+0*i"]),
}


def _pool(r, rng):
    """Ring elements whose sums, differences, products, negatives, inverses,
    conjugates and powers hit 0 and 1: 0, +-1, units and their inverses,
    seeded draws, and large coordinates that cancel."""
    units = [r.one, r.neg(r.one)] + [r.random_unit(rng) for _ in range(6)]
    units += [r.inv(u) for u in units]
    big = r.ensure(2**70) if not isinstance(r, QuadraticOrder) else (2**70, 3)
    pool = [r.zero, r.coerce(2), big, r.neg(big), r.add(big, r.one)] + [r.random_elem(rng) for _ in range(10)]
    return units, pool + units + [r.neg(x) for x in pool]


@pytest.mark.parametrize("spec", list(_ZERO_ONE_FORMS))
def test_every_ring_returns_its_own_zero_and_one(spec):
    # the normal form tests 0 and 1 by identity alone, so every way an
    # element enters a ring and every operation must give ring.zero and
    # ring.one for 0 and 1
    r = parse_ring(spec)
    zeros, ones, zero_texts, one_texts = _ZERO_ONE_FORMS[spec]

    def own(x):
        if x == r.zero:
            return x is r.zero
        return x is r.one if x == r.one else True

    for value, forms, texts in ((r.zero, zeros, zero_texts), (r.one, ones, one_texts)):
        made = [r.coerce(forms[0]), r.ensure(value)] + [r.ensure(v) for v in forms]
        made += [r.parse_elem(t) for t in texts]
        made += [r.elem_from_json(r.elem_to_json(value)), r.elem_from_json(json.loads(json.dumps(r.elem_to_json(value))))]
        assert all(x is value for x in made), (spec, value, made)
    rng = random.Random(f"own-zero-one:{spec}")
    for draw, count in (("random_elem", 4_000), ("random_unit", 500)):
        got = [getattr(r, draw)(rng) for _ in range(count)]
        hits = [x for x in got if x == r.zero or x == r.one]
        assert hits and all(map(own, hits)), (spec, draw)
    units, pool = _pool(r, rng)
    results = []
    for x, y in itertools.product(pool, repeat=2):
        results += [r.add(x, y), r.sub(x, y), r.mul(x, y)]
    for x in pool:
        results += [r.neg(x), r.add(x, r.neg(x)), r.sub(x, x)] + ([r.conj(x)] if isinstance(r, QuadraticOrder) else [])
    for u in units:
        results += [r.inv(u), r.mul(u, r.inv(u))] + [r.unit_pow(u, k) for k in range(-4, 5)]
        results += [r.unit_pow(u, r.unit_group().element_order(u))] if r.unit_group().is_finite else []
    hits = [x for x in results if x == r.zero or x == r.one]
    assert len(hits) > 50 and all(map(own, hits)), spec


@pytest.mark.parametrize("spec", ["Z[sqrt(2)]", "Z[sqrt(-3)]", "Z[i]"])
def test_quadratic_order_turns_bools_into_ints(spec):
    # ensure(True) used to keep the bool, which printed "True" and wrote
    # {"a": "True"}, a document elem_from_json refused
    r = parse_ring(spec)
    for value, want in ((True, r.one), (False, r.zero), ((True, True), (1, 1)), ((False, True), (0, 1))):
        x = r.ensure(value)
        assert x == want and all(type(v) is int for v in x)
        assert r.format_elem(x) == r.format_elem(want)
        doc = json.loads(json.dumps(r.elem_to_json(x)))
        assert "True" not in json.dumps(doc) and r.elem_from_json(doc) == want
    assert r.ensure(True) is r.one and r.ensure(False) is r.zero and r.coerce(True) is r.one


def test_rational_unit_tests_read_plain_ints_and_fresh_fractions():
    # is_unit and the sign bit read Fraction slots, with ensure for the rest
    q = RationalField()
    for zero in (0, False, Fraction(0), Fraction(0, 3), q.zero):
        assert not q.is_unit(zero)
        with pytest.raises(NotAUnit):
            q.unit_group().torsion_exponents(zero)
    for x, sign in ((-1, 1), (1, 0), (True, 0), (Fraction(-2, 3), 1), (Fraction(5), 0), (-(2**80), 1)):
        assert q.is_unit(x)
        assert q.unit_group().torsion_exponents(x) == (sign,) == q.unit_group().decompose(q.ensure(x))[0]
    with pytest.raises(InvalidParameter):
        q.is_unit("1")


# ---------------------------------------------------------------------------
# rational arithmetic against the fractions operators

_BIG = 2**100
_INTS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60), st.integers(-_BIG, _BIG))
_FRACTIONS = st.builds(Fraction, _INTS, st.one_of(st.integers(1, 60), st.integers(1, _BIG)))


def _assert_same_fraction(got, want):
    assert got == want
    assert type(got) is Fraction
    assert repr(got) == repr(want) and hash(got) == hash(want)
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


@given(st.one_of(_FRACTIONS, _INTS), st.one_of(_FRACTIONS, _INTS))
@settings(max_examples=400, deadline=None)
def test_rational_arithmetic_matches_the_fraction_operators(x, y):
    q = RationalField()
    fx, fy = Fraction(x), Fraction(y)
    results = [
        (q.add(x, y), fx + fy),
        (q.sub(x, y), fx - fy),
        (q.mul(x, y), fx * fy),
        (q.neg(x), -fx),
        (q.add(x, q.neg(x)), 0),
        (q.sub(x, x), 0),
        (q.add(q.neg(x), q.add(x, q.one)), 1),
    ]
    if fx:
        results += [(q.inv(x), 1 / fx), (q.mul(x, q.inv(x)), 1), (q.mul(q.inv(x), x), 1)]
        results += [(q.inv(q.mul(x, q.inv(x))), 1), (q.mul(q.neg(x), q.inv(q.neg(x))), 1)]
    else:
        with pytest.raises(NotAUnit):
            q.inv(x)
    for got, want in results:
        _assert_same_fraction(got, Fraction(want))
        # a result equal to 0 or 1 is the field's own zero or one
        if want == 0:
            assert got is q.zero
        elif want == 1:
            assert got is q.one


@pytest.mark.parametrize("bad", [0.5, "1/2", None, (1, 2), 1j])
def test_rational_arithmetic_refuses_non_rationals(bad):
    q = RationalField()
    half = Fraction(1, 2)
    for op in (q.add, q.sub, q.mul):
        for args in ((bad, half), (half, bad)):
            with pytest.raises(InvalidParameter):
                op(*args)
    for op in (q.neg, q.inv):
        with pytest.raises(InvalidParameter):
            op(bad)
    for zero in (0, Fraction(0), q.zero):
        with pytest.raises(NotAUnit):
            q.inv(zero)


class _FreshDrawsQ(RationalField):
    """Q with the draws restated as fresh Fractions, the same rng calls."""

    def random_elem(self, rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def random_unit(self, rng):
        num = rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 7, 9))
        return Fraction(num, rng.choice((1, 2, 3, 5, 7)))


def test_rational_constructors_return_the_fields_own_zero_and_one():
    q = RationalField()
    for value, own in ((0, q.zero), (1, q.one)):
        made = [
            q.coerce(value),
            q.ensure(value),
            q.ensure(Fraction(value)),
            q.parse_elem(f" {value} "),
            q.parse_elem(f"{3 * value}/3"),
            q.elem_from_json({"num": str(value), "den": "1"}),
            q.elem_from_json({"num": str(2 * value), "den": "2"}),
        ]
        assert all(x is own for x in made)
    # so an element built from ints holds them too, for op's identity tests
    g = DeformedGroup(q, 4).element([1, 1, 1], 1, {(1, 2): 0})
    assert all(x is q.one for x in g.xbar) and g.z is q.one and g == DeformedGroup(q, 4).identity
    # the draws: the same values from the same rng calls as fresh
    # Fractions, and the field's own zero and one where they equal 0 or 1
    fresh = _FreshDrawsQ()
    for draw in ("random_elem", "random_unit"):
        rng, ref = random.Random(f"draws:{draw}"), random.Random(f"draws:{draw}")
        got = [getattr(q, draw)(rng) for _ in range(2_000)]
        want = [getattr(fresh, draw)(ref) for _ in range(2_000)]
        assert got == want and rng.getstate() == ref.getstate()
        hits = [x for x in got if x in (0, 1)]
        assert hits and all(x is (q.one if x else q.zero) for x in hits)


def test_seeded_rational_samples_are_unchanged():
    q, fresh = RationalField(), _FreshDrawsQ()
    assert repr(TriMatrixGroup(q, 3).sample(random.Random(7))) == "TriMatrix[-2/5 11 -26/9; 0 3/7 -3; 0 0 1]"
    for make in (TriMatrixGroup, DeformedGroup):
        rng, ref = random.Random(20261019), random.Random(20261019)
        got = [make(q, 3).sample(rng) for _ in range(50)]
        want = [make(fresh, 3).sample(ref) for _ in range(50)]
        if make is DeformedGroup:
            # the normal form keeps the zeros a ring gives it and finds them
            # by identity, so the fresh draws are read in through element
            want = [make(q, 3).element(g.xbar, g.z, g.upper) for g in want]
        assert repr(got) == repr(want)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# Pell oracle: fundamental units found independently by brute force


def _pell_brute(d: int, y_cap: int = 10_000):
    # smallest unit > 1 solves x^2 - d y^2 = +-1 with minimal y
    best = None
    for y in range(1, y_cap + 1):
        for n in (1, -1):
            x2 = n + d * y * y
            if x2 <= 0:
                continue
            x = int(x2**0.5)
            for cand in (x - 1, x, x + 1):
                if cand > 0 and cand * cand == x2:
                    best = (cand, y)
                    break
            if best:
                return best
    raise AssertionError(f"no Pell solution with y <= {y_cap} for d={d}")


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10])
def test_fundamental_unit_matches_pell_brute_force(d):
    assert fundamental_unit(d) == _pell_brute(d)


def test_fundamental_unit_sqrt2_pinned():
    assert fundamental_unit(2) == (1, 1)


def test_fundamental_unit_is_bounded_below_the_printing_limit():
    # the walk stops at the end of the first period, where the norm is +-1
    h, k = fundamental_unit(100000007)
    assert h * h - 100000007 * k * k in (1, -1)
    assert len(str(h)) == 3333 < FUNDAMENTAL_UNIT_DIGITS < sys.int_info.default_max_str_digits
    start = time.perf_counter()
    for d in (1000000007, 10000000019):
        with pytest.raises(TooLarge, match="FUNDAMENTAL_UNIT_DIGITS"):
            fundamental_unit(d)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# divisibility against an independent exact solver


def _divides_oracle(d: int, a, b) -> bool:
    # solve (a0 + a1 s)(x + y s) = b over Q and test integrality;
    # uses Fraction linear algebra, not the conjugate-norm shortcut
    a0, a1 = a
    b0, b1 = b
    det = Fraction(a0 * a0 - d * a1 * a1)
    if det == 0:
        raise ZeroDivisionError
    x = (Fraction(b0) * a0 - d * Fraction(b1) * a1) / det
    y = (Fraction(b1) * a0 - Fraction(b0) * a1) / det
    return x.denominator == 1 and y.denominator == 1


@pytest.mark.parametrize("d", [2, 3, -5])
def test_quadratic_divides_matches_linear_solver(d, rng):
    r = parse_ring(f"Z[sqrt({d})]")
    checked = 0
    for _ in range(300):
        a = r.random_elem(rng)
        b = r.random_elem(rng)
        if r.norm(a) == 0:
            continue
        assert divides(r, a, b) == _divides_oracle(d, a, b)
        checked += 1
    assert checked > 250


def test_divides_by_zero_raises(ring_sqrt2):
    with pytest.raises(DivisionByZeroDivisor):
        divides(ring_sqrt2, ring_sqrt2.zero, ring_sqrt2.one)


def test_integer_and_rational_divides():
    z = parse_ring("Z")
    assert divides(z, 3, 12) and not divides(z, 5, 12)
    q = parse_ring("Q")
    assert divides(q, Fraction(7, 2), Fraction(1, 5))


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_divides_closed_under_products_hypothesis(a0, a1, c0, c1):
    r = parse_ring("Z[sqrt(2)]")
    a, c = (a0, a1), (c0, c1)
    if r.norm(a) == 0:
        return
    assert divides(r, a, r.mul(a, c))


# ---------------------------------------------------------------------------
# unit groups and decomposition


def test_unit_group_structures():
    assert unit_group(parse_ring("Z")).generators() == [-1]
    u5 = unit_group(parse_ring("Z/5"))
    assert u5.torsion_factors == (4,) and u5.order() == 4 and u5.is_finite
    uq = unit_group(parse_ring("Q"))
    assert uq.torsion_factors == (2,) and not uq.is_finite
    ui = unit_group(parse_ring("Z[i]"))
    assert ui.torsion_factors == (4,) and ui.generators() == [(0, 1)]
    us = unit_group(parse_ring("Z[sqrt(2)]"))
    assert us.torsion_factors == (2,) and us.free_basis == ((1, 1),)
    assert us.generators() == [(-1, 0), (1, 1)]
    # (Z/15)^x = C2 x C4, each factor generated by a unit that is 1 mod the other prime power
    u15 = unit_group(parse_ring("Z/15"))
    assert (u15.torsion_factors, u15.generators(), u15.order()) == ((2, 4), [11, 7], 8)
    assert repr(u15) == "UnitGroupStruct(Z/15, torsion=8, rank=0)"
    with pytest.raises(InvalidParameter, match="no torsion factor 2"):
        u15.torsion_factor_generator(2)


def test_free_generator_refuses_keys_that_name_no_basis_element():
    # a key is a basis index, or over Q^x a prime: a negative index must not
    # wrap round to the last element, nor a key past the end raise IndexError
    us = unit_group(parse_ring("Z[sqrt(2)]"))
    assert us.free_generator(0) == (1, 1)
    uq = unit_group(parse_ring("Q"))
    assert uq.free_generator(7) == 7 and uq.compose((1,), {2: -1, 3: 1}) == Fraction(-3, 2)
    # over Q^x a key is a prime, as decompose gives; 4 and 6 name no basis element
    for units, key in [(us, -1), (us, 1), (unit_group(parse_ring("Z/7")), 0), (uq, 1), (uq, -3), (uq, 4), (uq, 6)]:
        with pytest.raises(InvalidParameter, match=f"no free factor {key}"):
            units.free_generator(key)


@pytest.mark.parametrize("make", [IntegerRing, RationalField, lambda: IntegersMod(7), lambda: QuadraticOrder(2), GaussianIntegers])
def test_a_ring_keeps_one_unit_group(make):
    r = make()
    assert r.unit_group() is r.unit_group()
    assert unit_group(r) is r.unit_group()
    assert make().unit_group() is not r.unit_group()  # one per ring object


def test_rational_unit_decompositions_are_computed_once_per_ring(monkeypatch):
    import triadeform.rings as rings_module

    trial_factor, calls = rings_module._trial_factor, []

    def counting(n):
        calls.append(n)
        return trial_factor(n)

    monkeypatch.setattr(rings_module, "_trial_factor", counting)
    q = RationalField()
    for _ in range(3):
        assert q.unit_group().decompose(Fraction(-12, 35)) == ((1,), {2: 2, 3: 1, 5: -1, 7: -1})
    assert sorted(calls) == [12, 35]  # numerator and denominator, each once


def _linear_order(x, m):
    k, acc = 1, x % m
    while acc != 1:
        acc, k = acc * x % m, k + 1
    return k


def test_unit_group_generator_is_the_least_unit_of_full_order():
    cyclic = 0
    for m in range(2, 200):
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        full = [x for x in units if _linear_order(x, m) == len(units)]
        ring = IntegersMod(m)  # fresh, so nothing is cached
        struct = unit_group(ring)
        if not full:
            assert len(struct.torsion_factors) >= 2, m
            continue
        cyclic += 1
        assert struct.torsion_factors == ((len(units),) if len(units) > 1 else ()), m
        assert struct.generators() == full[: len(struct.torsion_factors)], m
        assert ring.units() == units
    # (Z/m)^x is cyclic exactly for m = 2, 4, p^k and 2 p^k with p an odd prime
    assert cyclic == sum(1 for m in range(2, 200) if m in (2, 4) or _odd_prime_power(m) or _odd_prime_power(m // 2) and m % 4 == 2)


def test_unit_group_of_every_small_modulus_matches_the_unit_list():
    # the oracle lists the units by gcd and finds each order by a linear
    # walk; the unit group is built from the prime-power parts of m
    pinned = {2: [], 8: [7, 5], 12: [7, 5], 15: [11, 7], 16: [15, 5], 24: [7, 13, 17]}
    for m in range(2, 200):
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        struct = IntegersMod(m).unit_group()
        gens = struct.generators()
        assert math.prod(struct.torsion_factors) == len(units) == struct.order(), m
        assert [_linear_order(g, m) for g in gens] == list(struct.torsion_factors), m
        assert gens == pinned.get(m, gens), m
        elements = struct.elements()
        assert len(elements) == len(units) and sorted(elements) == units, m
        for x in units:
            assert struct.compose(*struct.decompose(x)) == x, (m, x)


def test_unit_count_matches_the_unit_list():
    for m in range(2, 300):
        assert IntegersMod(m).unit_count() == sum(1 for x in range(1, m) if math.gcd(x, m) == 1), m


def test_unit_group_of_a_large_prime_modulus_is_fast():
    ring = IntegersMod(1_000_003)
    start = time.perf_counter()
    struct = unit_group(ring)
    elapsed = time.perf_counter() - start
    assert (struct.generators(), struct.torsion_factors) == ([2], (1_000_002,))
    # 1_000_002 = 2 * 3 * 166_667 with 166_667 prime
    assert all(pow(2, 1_000_002 // q, 1_000_003) != 1 for q in (2, 3, 166_667))
    assert elapsed < 0.05


def test_unit_group_of_a_modulus_beyond_trial_division_fails_fast():
    # 10^14 + 31 is prime: trial division would take about 5 * 10^6 steps
    ring = IntegersMod(2 * (10**14 + 31))
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="trial divisors"):
        unit_group(ring)
    assert time.perf_counter() - start < 0.5


# the next primes after 10^22 and 3 * 10^22: their product has no factor
# below TRIAL_DIVISION_LIMIT and is far above its square
P22, Q22 = 10**22 + 9, 3 * 10**22 + 29


def test_rational_decomposition_beyond_trial_division_fails_fast():
    # factoring P22 * Q22 without a size bound took over 10 s
    units = unit_group(RationalField())
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="trial divisors"):
        unit_decompose(units, Fraction(P22 * Q22))
    with pytest.raises(TooLarge, match="trial divisors"):
        unit_decompose(units, Fraction(1, P22 * Q22))
    assert time.perf_counter() - start < 0.5
    # a cofactor below 10^12 is still split: 1_000_003 is prime
    assert unit_decompose(units, Fraction(12 * 1_000_003, 35)) == (0, {2: 2, 3: 1, 5: -1, 7: -1, 1_000_003: 1})


def test_quadratic_order_beyond_trial_division_fails_fast():
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="trial divisors"):
        QuadraticOrder(P22 * Q22)
    with pytest.raises(TooLarge, match="trial divisors"):
        fundamental_unit(P22 * Q22)
    assert time.perf_counter() - start < 0.5


def test_primality_by_trial_division_then_sympy():
    from sympy import isprime

    from triadeform.rings import _is_prime

    for n in range(200):
        assert _is_prime(n) is isprime(n), n
    for n in (1_000_003, 1_000_003**2, 10**12 + 39, P22, Q22, P22 * Q22, 2 * P22):
        assert _is_prime(n) is isprime(n), n
    # past trial division the free generators of Q^x still take a prime key
    units = unit_group(RationalField())
    assert units.free_generator(P22) == P22
    with pytest.raises(TooLarge, match="trial divisors"):
        units.decompose(Fraction(P22))
    with pytest.raises(InvalidParameter):
        units.free_generator(P22 * Q22)


def test_torsion_log_above_its_bound_fails_fast():
    # the table holds one entry per unit; for (Z/1,000,003)^x it took 0.4 s
    from triadeform.rings import TORSION_LOG_LIMIT

    units = unit_group(IntegersMod(1_000_003))
    assert units.order() > TORSION_LOG_LIMIT
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="torsion log"):
        units.decompose(2)
    with pytest.raises(TooLarge, match="torsion log"):
        units.elements()
    assert time.perf_counter() - start < 0.05


def test_units_list_is_computed_once_and_copied(monkeypatch):
    ring = IntegersMod(9)
    first = ring.units()
    monkeypatch.setattr(math, "gcd", None)  # a second enumeration would fail
    first.append(0)
    assert ring.units() == [1, 2, 4, 5, 7, 8]


def test_unit_decompose_round_trip(ring_sqrt2, rng):
    u = unit_group(ring_sqrt2)
    for _ in range(40):
        x = ring_sqrt2.random_unit(rng)
        t, free = u.decompose(x)
        rebuilt = u.compose(t, free)
        assert rebuilt == x
    with pytest.raises(NotAUnit):
        u.decompose((2, 0))


def test_non_cyclic_unit_group_refused():
    # unit_group() builds every (Z/m)^x; unit_decompose refuses the non-cyclic
    # ones, as one exponent cannot say which unit of C2 x C4 it names: 7 and
    # 11 * 7 share it
    units = unit_group(IntegersMod(15))
    for x in (7, 11, 2):
        with pytest.raises(InvalidParameter, match="2 torsion factors"):
            unit_decompose(units, x)
    for m, factors in ((8, 2), (12, 2), (24, 3)):
        with pytest.raises(InvalidParameter, match=rf"\(Z/{m}\)\^x has {factors} torsion factors"):
            unit_decompose(unit_group(IntegersMod(m)), 5)
    assert unit_decompose(unit_group(IntegersMod(7)), 3) == (1, {})
    assert unit_decompose(unit_group(IntegersMod(2)), 1) == (0, {})


def _real_sign(x, d):
    # sign of a + b*sqrt(d), d > 0, in integers only
    a, b = x
    if a == 0 or b == 0 or (a > 0) == (b > 0):
        return (a > 0) - (a < 0) or (b > 0) - (b < 0)
    if a > 0:
        return 1 if a * a > d * b * b else -1
    return 1 if a * a < d * b * b else -1


def _qmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _linear_decompose(x, d, eps):
    """(t, e) with x = (-1)^t eps^e, by dividing or multiplying by eps one step at a time."""
    eps_inv = (eps[0], -eps[1]) if eps[0] ** 2 - d * eps[1] ** 2 == 1 else (-eps[0], eps[1])
    t = 0
    if _real_sign(x, d) < 0:
        x, t = (-x[0], -x[1]), 1
    e = 0
    while x != (1, 0):
        if _real_sign((x[0] - 1, x[1]), d) > 0:
            x, e = _qmul(x, eps_inv, d), e + 1
        else:
            x, e = _qmul(x, eps, d), e - 1
    return t, e


@pytest.mark.parametrize("d", [2, 3, 7])
def test_real_quadratic_decomposition_matches_linear_walk(d):
    # Z[sqrt(2)] has a fundamental unit of norm -1, Z[sqrt(3)] and Z[sqrt(7)] of norm +1
    ring = QuadraticOrder(d)  # a fresh ring, so no decomposition is cached
    units = unit_group(ring)
    eps = fundamental_unit(d)
    eps_inv = ring.inv(eps)
    for step, k_range in ((eps, range(0, 301)), (eps_inv, range(0, -301, -1))):
        x = (1, 0)
        for k in k_range:
            for t, u in ((0, x), (1, (-x[0], -x[1]))):
                assert unit_decompose(units, u) == (t, {0: k} if k else {})
                assert _linear_decompose(u, d, eps) == (t, k)
            x = _qmul(x, step, d)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_real_quadratic_decomposition_of_large_powers(d):
    ring = QuadraticOrder(d)
    units = unit_group(ring)
    eps = fundamental_unit(d)
    for k in (20000, -20000):
        for u in (ring.unit_pow(eps, k), ring.neg(ring.unit_pow(eps, k))):
            torsion, free = units.decompose(u)
            assert free == {0: k}
            assert units.compose(torsion, free) == u
    for x in ((2, 0), (0, 1), (1, 1) if d != 2 else (1, 2), (0, 0), ring.mul((2, 0), eps)):
        with pytest.raises(NotAUnit):
            units.decompose(x)


def test_real_quadratic_decomposition_checks_its_residue():
    # with eps^2 passed off as the fundamental unit, eps itself has no exponent
    ring = QuadraticOrder(2)
    eps = fundamental_unit(2)
    squared = UnitGroupStruct(ring, ((2, (-1, 0)),), (ring.mul(eps, eps),), COMPLETE)
    assert squared.decompose(ring.unit_pow(eps, 6)) == ((0,), {0: 3})
    with pytest.raises(RuntimeError, match="residue"):
        squared.decompose(ring.unit_pow(eps, 7))


def test_is_square_unit_sqrt2(ring_sqrt2):
    u = unit_group(ring_sqrt2)
    assert is_square_unit(u, (3, 2))
    assert not is_square_unit(u, (1, 1))
    assert not is_square_unit(u, (-1, 0))
    eps4 = ring_sqrt2.unit_pow((1, 1), 4)
    assert is_square_unit(u, eps4)


def test_unit_decompose_rationals():
    u = unit_group(parse_ring("Q"))
    t, free = u.decompose(Fraction(-8, 9))
    assert t == (1,)
    assert free == {2: 3, 3: -2}


def test_is_unit_per_ring():
    assert is_unit(parse_ring("Z"), -1) and not is_unit(parse_ring("Z"), 2)
    assert is_unit(parse_ring("Z/9"), 2) and not is_unit(parse_ring("Z/9"), 3)
    assert is_unit(parse_ring("Z[sqrt(2)]"), (1, 1))
    assert not is_unit(parse_ring("Z[sqrt(2)]"), (1, 2))


# ---------------------------------------------------------------------------
# the divisibility predicate psi


LAM = (3, 2)  # (1+sqrt(2))^2, generates the squares among the positive units


def _lam_pow(r, k):
    return r.unit_pow(LAM, k)


def test_psi_worked_fixture_true(ring_sqrt2):
    r = ring_sqrt2
    alpha = LAM
    beta = _lam_pow(r, 2)
    delta = _lam_pow(r, 6)
    gate = r.add(r.one, r.mul(r.sub(beta, r.one), alpha))
    a = r.mul(gate, (7, 0))
    assert eval_psi(r, 2, LAM, alpha, beta, delta, a) is True


def test_psi_worked_fixture_alpha_one_false(ring_sqrt2):
    r = ring_sqrt2
    a = r.mul(r.add(r.one, r.mul(r.sub(_lam_pow(r, 2), r.one), LAM)), (7, 0))
    assert eval_psi(r, 2, LAM, r.one, _lam_pow(r, 2), _lam_pow(r, 6), a) is False


def test_psi_worked_fixture_small_delta_false(ring_sqrt2):
    r = ring_sqrt2
    a = r.mul(r.add(r.one, r.mul(r.sub(_lam_pow(r, 2), r.one), LAM)), (7, 0))
    assert eval_psi(r, 2, LAM, LAM, _lam_pow(r, 2), LAM, a) is False


def test_psi_rejects_non_subgroup_arguments(ring_sqrt2):
    r = ring_sqrt2
    with pytest.raises(NotInSubgroupB):
        # 1+sqrt(2) is a unit but not a square, so it is outside B = (R^x)^2
        eval_psi(r, 2, LAM, (1, 1), _lam_pow(r, 2), _lam_pow(r, 6), r.one)
    with pytest.raises(NotInSubgroupB):
        eval_psi(r, 2, LAM, (2, 0), _lam_pow(r, 2), _lam_pow(r, 6), r.one)


def _psi_oracle(r, s, lam, alpha, beta, delta, a) -> bool:
    """Independent re-statement: same conjuncts, divisibility via the
    Fraction linear solver instead of the ring's conjugate-norm test."""
    if alpha == r.one or delta == r.one:
        return False
    d1 = r.sub(delta, r.one)
    for i in range(1, s + 1):
        lhs = r.sub(r.mul(alpha, r.unit_pow(lam, i)), r.one)
        if lhs == r.zero:
            if d1 != r.zero:
                return False
            continue
        if not _divides_oracle(r.d, lhs, d1):
            return False
    gate = r.add(r.one, r.mul(r.sub(beta, r.one), alpha))
    if gate == r.zero:
        return a == r.zero
    return _divides_oracle(r.d, gate, a)


def test_psi_matches_independent_oracle_on_seeded_instances(ring_sqrt2, rng):
    r = ring_sqrt2
    agree = 0
    for _ in range(200):
        s = rng.randint(1, 3)
        alpha = _lam_pow(r, rng.randint(-3, 4))
        beta = _lam_pow(r, rng.randint(-3, 4))
        delta = _lam_pow(r, rng.randint(-4, 5))
        a = r.random_elem(rng)
        expected = _psi_oracle(r, s, LAM, alpha, beta, delta, a)
        assert eval_psi(r, s, LAM, alpha, beta, delta, a) == expected
        agree += 1
    assert agree == 200


def test_psi_needs_real_quadratic_order():
    refuses = "eval_psi needs a real quadratic order"
    with pytest.raises(InvalidParameter, match=refuses):
        eval_psi(parse_ring("Z"), 1, 2, 3, 5, 7, 1)
    with pytest.raises(InvalidParameter, match=refuses):
        eval_psi(parse_ring("Z[i]"), 1, (0, 1), (1, 0), (1, 0), (1, 0), (1, 0))
    with pytest.raises(InvalidParameter, match=refuses):
        eval_psi(parse_ring("Q"), 1, Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(1))
    for spec in ("Z/7", "Z/8"):
        # a finite ring is refused whether or not its unit group is cyclic
        with pytest.raises(InvalidParameter, match=refuses):
            eval_psi(parse_ring(spec), 1, 3, 5, 3, 5, 1)
    with pytest.raises(InvalidParameter, match=refuses):
        eval_psi(parse_ring("Z[sqrt(-5)]"), 1, (-1, 0), (1, 0), (-1, 0), (1, 0), (1, 0))


@pytest.mark.parametrize(
    "ring, xs",
    [
        (IntegersMod(7), [3, 5]),
        (IntegersMod(12), [5, 7, 11]),
        (IntegersMod(25), [2, 24]),
        (RationalField(), [Fraction(-2, 3), Fraction(5)]),
        (QuadraticOrder(2), [(1, 1), (-3, 2)]),
        (GaussianIntegers(), [(0, 1), (-1, 0)]),
        (IntegerRing(), [-1]),
    ],
)
def test_unit_pow_equals_repeated_products(ring, xs):
    for x in xs:
        for k in range(-12, 13):
            step = ring.inv(x) if k < 0 else x
            acc = ring.one
            for _ in range(abs(k)):
                acc = ring.mul(acc, step)
            assert ring.unit_pow(x, k) == acc


def test_shifted_residues_decompose_as_a_linear_walk():
    for m in range(2, 200):
        ring = IntegersMod(m)
        units = ring.unit_group()
        # each product of generator powers, one multiplication at a time, in
        # the lexicographic order of the exponents
        walk = {}
        for exps in itertools.product(*(range(d) for d in units.torsion_factors)):
            acc = 1
            for g, k in zip(units.generators(), exps):
                for _ in range(k):
                    acc = acc * g % m
            walk[acc] = exps
        assert units.elements() == list(walk)
        for x in ring.units():
            assert units.decompose(x + m) == units.decompose(x - 3 * m) == (walk[x], {})


def _odd_prime_power(m):
    p = next((q for q in range(3, m + 1) if m % q == 0), None)
    if p is None or m % 2 == 0:
        return False
    while m % p == 0:
        m //= p
    return m == 1


def test_compose_inverts_decompose_on_sampled_units(rng):
    # fresh rings, so every decomposition is computed by the ring's own
    # exponent routine rather than read from a cache
    rings = [IntegersMod(m) for m in range(2, 60)]
    rings += [GaussianIntegers(), QuadraticOrder(-3), QuadraticOrder(2), QuadraticOrder(7), RationalField(), IntegerRing()]
    checked = set()
    for ring in rings:
        units = ring.unit_group()
        sample = ring.units() if ring.is_finite else [ring.random_unit(rng) for _ in range(30)]
        if ring.spec == "Q":
            sample += [Fraction(-(2**40) * 7, 3**5 * 101), Fraction(1), Fraction(-1)]
        for x in sample:
            torsion, free = units.decompose(x)
            assert units.compose(torsion, free) == x, (ring.spec, x)
            assert len(torsion) == len(units.torsion_factors) and all(free.values())
            assert all(0 <= t < d for t, d in zip(torsion, units.torsion_factors))
        checked.add(ring.spec)
    assert {"Z/2", "Z/4", "Z/8", "Z/15", "Z/27", "Z/50", "Z[i]", "Z[sqrt(-3)]", "Z[sqrt(2)]", "Q", "Z"} <= checked
    with pytest.raises(NotAUnit):
        unit_group(QuadraticOrder(-3)).decompose((1, 1))


def _ideal_by_closure(m, gens):
    """The ideal of Z/m generated by gens, closed under sums and multiples."""
    ideal = {0}
    for g in gens:
        ideal = {(a + r * g) % m for a in ideal for r in range(m)}
    return ideal


def test_ideal_contains_matches_the_closure_over_residue_rings(rng):
    for m in range(2, 31):
        ring = IntegersMod(m)
        gen_sets = [[]] + [[g] for g in range(m)] + [rng.sample(range(m), k) for k in (2, 3) for _ in range(6) if m >= k]
        for gens in gen_sets:
            ideal = _ideal_by_closure(m, gens)
            assert {x for x in range(m) if ring.ideal_contains(gens, x)} == ideal, (m, gens)


def test_is_domain_matches_a_zero_divisor_search():
    for m in range(2, 61):
        zero_divisors = any(a * b % m == 0 for a in range(1, m) for b in range(1, m))
        assert IntegersMod(m).is_domain is not zero_divisors, m
    for spec in ("Z", "Q", "Z[i]", "Z[sqrt(2)]", "Z[sqrt(-3)]"):
        assert parse_ring(spec).is_domain is True
    # past trial division (no factor below 10^6, m above 10^12) sympy decides
    assert IntegersMod(10**12 + 39).is_domain is True
    assert IntegersMod(1_000_003**2).is_domain is False
