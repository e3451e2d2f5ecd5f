"""Exact arithmetic over the supported coefficient rings.

Five rings are available: the integers, the rationals, residue rings Z/m,
real or imaginary quadratic orders Z[sqrt(d)] (exactly that order, never the
maximal one), and the Gaussian integers.  Elements are plain Python values:
``int`` for Z and Z/m, ``Fraction`` for Q, and ``(a, b)`` integer pairs for
the quadratic rings, so everything stays hashable and exactly comparable.

The unit-group machinery treats R^x as a product of cyclic torsion factors
and a free part, (Z/m)^x as the product of its prime-power parts (CRT), and
decides membership, decomposition, square testing and k-th roots by exact
computation (continued fractions for the fundamental unit, one shared
torsion-log table of the torsion generators, prime factorisation for Q^x).
Divisibility in the quadratic orders is decided by solving the 2x2 integer
linear system directly rather than by norm heuristics.  Each ring answers for itself whether it is an
integral domain, whether an element lies in the ideal some elements
generate, and the exponents of a unit, so no other module branches on a
ring's class.

Every factorisation (of m for Z/m, of Q^x's numerators and denominators,
of d for Z[sqrt(d)]) is trial division by _trial_factor, TooLarge at once
past TRIAL_DIVISION_LIMIT.  _is_prime, the one primality test, is the only
place sympy is imported, for what trial division cannot settle.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from typing import Any, Iterator

from .abgroups import AbelianCarrier, power_by_squaring
from .errors import (
    DivisionByZeroDivisor,
    InvalidParameter,
    NotAUnit,
    NotInSubgroupB,
    ParseError,
    TooLarge,
)
from .snf import solve_integer

Elem = Any  # int | Fraction | tuple[int, int], depending on the ring

COMPLETE = "complete"
LAZY_PRIME_BASIS = "lazy-prime-basis"


def _json_int(value) -> int:
    """An integer field of an element document: a JSON integer, or the
    decimal string elem_to_json writes.  Floats, booleans and other strings
    raise ParseError instead of being truncated by int()."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ParseError(f"expected an integer or a decimal string, got {value!r}")


def _too_many_digits() -> TooLarge:
    """What a writer raises for an integer past Python's int-to-str limit,
    which the library leaves as it is."""
    return TooLarge(f"an integer has more than {sys.get_int_max_str_digits()} digits, Python's int-to-str limit")


def _json_fields(data, keys: tuple[str, ...], form: str) -> list:
    """The values at keys of the element document data, which must be a JSON
    object holding them all; ParseError naming form otherwise."""
    if not (isinstance(data, dict) and all(key in data for key in keys)):
        raise ParseError(f"expected an element object {form}, got {data!r}")
    return [data[key] for key in keys]


class Ring:
    """Base class: exact ring arithmetic over plain hashable payloads."""

    kind: str
    spec: str
    is_domain: bool
    # Every constructor and operation gives 0 and 1 as these very objects
    # (small ints are cached; Q has _own, the quadratic orders _pair).
    zero: Elem
    one: Elem

    # -- ring operations -------------------------------------------------
    def add(self, x: Elem, y: Elem) -> Elem:
        raise NotImplementedError

    def neg(self, x: Elem) -> Elem:
        raise NotImplementedError

    def mul(self, x: Elem, y: Elem) -> Elem:
        raise NotImplementedError

    def sub(self, x: Elem, y: Elem) -> Elem:
        return self.add(x, self.neg(y))

    def coerce(self, n: int) -> Elem:
        """Image of the plain integer n in this ring."""
        raise NotImplementedError

    def ensure(self, x) -> Elem:
        """Accept an existing element of this ring, coercing plain integers."""
        if isinstance(x, int):
            return self.coerce(x)
        raise InvalidParameter(f"{x!r} is not an element of {self.spec}")

    def is_unit(self, x: Elem) -> bool:
        raise NotImplementedError

    def inv(self, x: Elem) -> Elem:
        raise NotImplementedError

    def unit_pow(self, x: Elem, k: int) -> Elem:
        return power_by_squaring(self.mul, self.one, self.inv, x, k)

    def divides(self, a: Elem, b: Elem) -> bool:
        """Whether a | b, i.e. b = a*c for some ring element c."""
        raise NotImplementedError

    def ideal_contains(self, gens, x: Elem) -> bool:
        """Whether x lies in the ideal generated by gens ({0} when empty)."""
        raise NotImplementedError

    # -- finiteness ------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterator[Elem]:
        raise InvalidParameter(f"{self.spec} is not finite")

    def units(self) -> list[Elem]:
        raise InvalidParameter(f"{self.spec} is not finite")

    def size(self) -> int:
        raise InvalidParameter(f"{self.spec} is not finite")

    def unit_count(self) -> int:
        raise InvalidParameter(f"{self.spec} is not finite")

    # -- unit group ------------------------------------------------------
    _unit_struct: "UnitGroupStruct | None" = None

    def unit_group(self) -> "UnitGroupStruct":
        """R^x, built once per ring object, so its decomposition cache lasts
        as long as the ring."""
        if self._unit_struct is None:
            self._unit_struct = self._build_unit_group()
        return self._unit_struct

    def _build_unit_group(self) -> "UnitGroupStruct":
        raise NotImplementedError

    def unit_exponents(self, units: "UnitGroupStruct", x: Elem) -> tuple[tuple[int, ...], dict]:
        """Exponents of the unit x over the generators of units.  This
        default looks x up among the products of powers of the torsion
        generators, which are all of R^x when R^x is finite."""
        try:
            return (units.torsion_log()[self.ensure(x)], {})
        except KeyError:
            raise NotAUnit(f"{x!r} is not a unit in {self.spec}") from None

    def unit_torsion_exponents(self, units: "UnitGroupStruct", x: Elem) -> tuple[int, ...]:
        """The torsion part of unit_exponents alone.  This default decomposes
        x fully; a ring that reads the torsion part more cheaply than the
        free exponents answers it itself."""
        return units.decompose(x)[0]

    # -- parsing / formatting / JSON --------------------------------------
    def parse_elem(self, text: str) -> Elem:
        raise NotImplementedError

    def format_elem(self, x: Elem) -> str:
        raise NotImplementedError

    def elem_to_json(self, x: Elem):
        raise NotImplementedError

    def elem_from_json(self, data) -> Elem:
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------
    def random_elem(self, rng) -> Elem:
        raise NotImplementedError

    def random_unit(self, rng) -> Elem:
        raise NotImplementedError

    # -- identity ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Ring({self.spec!r})"


class IntegerRing(Ring):
    kind = "Integers"
    spec = "Z"
    is_domain = True

    zero = 0
    one = 1

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def coerce(self, n):
        return int(n)

    def is_unit(self, x):
        return x in (1, -1)

    def inv(self, x):
        if x not in (1, -1):
            raise NotAUnit(f"{x} is not a unit in Z")
        return x

    def divides(self, a, b):
        if a == 0:
            raise DivisionByZeroDivisor("zero divides nothing in Z")
        return b % a == 0

    def ideal_contains(self, gens, x):
        g = math.gcd(*gens)
        return x % g == 0 if g else x == 0

    def _build_unit_group(self):
        return UnitGroupStruct(self, ((2, -1),), (), COMPLETE)

    def parse_elem(self, text):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ParseError(f"bad integer literal {text!r}") from exc

    def format_elem(self, x):
        try:
            return str(x)
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_to_json(self, x):
        try:
            return str(x)
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_from_json(self, data):
        return _json_int(data)

    def random_elem(self, rng):
        return rng.randint(-40, 40)

    def random_unit(self, rng):
        return rng.choice((1, -1))


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


def _fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime ints num and den > 0, made by setting
    its two slots; 0 and 1 are RationalField's own zero and one, so identity
    tests settle them without Fraction.__eq__.  Fraction's private slots are
    read and written in this module only."""
    if den == 1 and 0 <= num <= 1:
        return _Q_ONE if num else _Q_ZERO
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _own(q: Fraction) -> Fraction:
    """q, or RationalField's own zero or one when q equals 0 or 1: what the
    field's constructors from ints, text, JSON and rng draws return."""
    if q._denominator == 1 and 0 <= q._numerator <= 1:
        return _Q_ONE if q._numerator else _Q_ZERO
    return q


class RationalField(Ring):
    kind = "Rationals"
    spec = "Q"
    is_domain = True

    zero = _Q_ZERO
    one = _Q_ONE

    # The operations read the two slots of their Fraction operands and build
    # the reduced result with _fraction, skipping the operator dispatch and
    # the argument checks of Fraction.__new__; anything else that ensure
    # accepts (plain ints) takes the slow route once, the rest raises
    # InvalidParameter.  The gcd steps are those of fractions.Fraction
    # (Knuth, TAOCP vol. 2, 4.5.1).

    def add(self, x, y):
        try:
            na, da = x._numerator, x._denominator
            nb, db = y._numerator, y._denominator
        except AttributeError:
            return self.add(self.ensure(x), self.ensure(y))
        g = math.gcd(da, db)
        if g == 1:
            return _fraction(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)
        if g2 == 1:
            return _fraction(t, s * db)
        return _fraction(t // g2, s * (db // g2))

    def neg(self, x):
        try:
            return _fraction(-x._numerator, x._denominator)
        except AttributeError:
            return self.neg(self.ensure(x))

    def mul(self, x, y):
        try:
            na, da = x._numerator, x._denominator
            nb, db = y._numerator, y._denominator
        except AttributeError:
            return self.mul(self.ensure(x), self.ensure(y))
        g1 = math.gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = math.gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _fraction(na * nb, da * db)

    def coerce(self, n):
        return _own(Fraction(n))

    def ensure(self, x):
        if type(x) is Fraction:
            return _own(x)
        if isinstance(x, (int, Fraction)):
            return _own(Fraction(x))
        raise InvalidParameter(f"{x!r} is not a rational element")

    def is_unit(self, x):
        try:
            return x._numerator != 0
        except AttributeError:
            return self.is_unit(self.ensure(x))

    def inv(self, x):
        try:
            num, den = x._numerator, x._denominator
        except AttributeError:
            return self.inv(self.ensure(x))
        if num > 0:
            return _fraction(den, num)
        if num < 0:
            return _fraction(-den, -num)
        raise NotAUnit("0 is not a unit in Q")

    def divides(self, a, b):
        if a == 0:
            raise DivisionByZeroDivisor("zero divides nothing in Q")
        return True

    def ideal_contains(self, gens, x):
        return x == 0 or any(g != 0 for g in gens)

    def _build_unit_group(self):
        return UnitGroupStruct(self, ((2, Fraction(-1)),), (), LAZY_PRIME_BASIS)

    def unit_exponents(self, units, x):
        """The sign bit, and the exponent of each prime keyed by the prime."""
        frac = Fraction(x)
        free = _trial_factor(abs(frac.numerator))
        free.update({p: -e for p, e in _trial_factor(frac.denominator).items()})  # coprime: no prime twice
        return ((0 if frac > 0 else 1,), dict(sorted(free.items())))

    def unit_torsion_exponents(self, units, x):
        """The sign bit, found without factoring x."""
        try:
            num = x._numerator
        except AttributeError:
            num = self.ensure(x)._numerator
        if not num:
            raise NotAUnit(f"{x!r} is not a unit in {self.spec}")
        return (0 if num > 0 else 1,)

    def parse_elem(self, text):
        try:
            return _own(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def format_elem(self, x):
        try:
            return str(x)
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_to_json(self, x):
        try:
            return {"num": str(x.numerator), "den": str(x.denominator)}
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_from_json(self, data):
        num, den = (_json_int(v) for v in _json_fields(data, ("num", "den"), "{num, den}"))
        if den == 0:
            raise ParseError(f"the den of {data!r} is 0")
        return _own(Fraction(num, den))

    def random_elem(self, rng):
        return _own(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    def random_unit(self, rng):
        num = rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 7, 9))
        den = rng.choice((1, 2, 3, 5, 7))
        return _own(Fraction(num, den))


class IntegersMod(Ring):
    kind = "IntegersMod"

    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameter(f"modulus must be at least 2, got {m}")
        self.m = m
        self.spec = f"Z/{m}"
        self._units: list[int] | None = None

    zero = 0
    one = 1

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def coerce(self, n):
        return n % self.m

    def is_unit(self, x):
        return math.gcd(x % self.m, self.m) == 1

    def inv(self, x):
        if not self.is_unit(x):
            raise NotAUnit(f"{x} is not a unit in {self.spec}")
        return pow(x % self.m, -1, self.m)

    def divides(self, a, b):
        a, b = a % self.m, b % self.m
        if a == 0:
            raise DivisionByZeroDivisor(f"zero divides nothing in {self.spec}")
        return b % math.gcd(a, self.m) == 0

    @property
    def is_domain(self):
        """Whether m is prime, by _is_prime."""
        return _is_prime(self.m)

    def ideal_contains(self, gens, x):
        return x % math.gcd(self.m, *gens) == 0

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(range(self.m))

    def units(self):
        if self._units is None:
            self._units = [x for x in range(1, self.m) if math.gcd(x, self.m) == 1]
        return list(self._units)

    def size(self):
        return self.m

    def unit_count(self):
        """phi(m), from the factorisation of m alone."""
        return _totient(_trial_factor(self.m))

    def _build_unit_group(self):
        """(Z/m)^x as the product of its prime-power parts (CRT; Cohen, GTM
        138, 1.4), each generator 1 mod m / q^e for its q^e || m.  An odd q^e,
        or 4, gives one factor, generated by the least such g of full order
        mod q^e (Alg. 1.4.4); 2^e, e >= 3, gives -1 and 5 lifted the same way;
        2 gives none.  So a cyclic (Z/m)^x has its least unit of full order."""
        m, torsion = self.m, []
        for q, e in _trial_factor(m).items():
            qe = q**e
            rest = m // qe
            if q == 2 and e >= 3:
                # the g = r mod 2^e with g = 1 mod rest, for r = -1 and 5
                inv = pow(rest, -1, qe)
                torsion += [(2, 1 + rest * (-2 * inv % qe)), (qe // 4, 1 + rest * (4 * inv % qe))]
            elif qe > 2:
                order = _totient({q: e})
                cofactors = [order // p for p in _trial_factor(order)]
                gen = next(g for g in range(1, m, rest) if g % q and all(pow(g, c, qe) != 1 for c in cofactors))
                torsion.append((order, gen))
        return UnitGroupStruct(self, torsion, (), COMPLETE)

    def parse_elem(self, text):
        try:
            return int(text.strip()) % self.m
        except ValueError as exc:
            raise ParseError(f"bad residue literal {text!r}") from exc

    def format_elem(self, x):
        return str(x % self.m)

    def elem_to_json(self, x):
        return str(x % self.m)

    def elem_from_json(self, data):
        return _json_int(data) % self.m

    def random_elem(self, rng):
        return rng.randrange(self.m)

    def random_unit(self, rng):
        while True:
            x = rng.randrange(1, self.m)
            if math.gcd(x, self.m) == 1:
                return x


# The largest divisor _trial_factor tries, so it bounds every factorisation
# here ((Z/m)^x, Q^x exponents, squarefree d): it factors every n below its
# square, 10^12, in at most half a million steps, and raises TooLarge for
# larger n that it cannot finish, where the steps would grow as sqrt(n).
TRIAL_DIVISION_LIMIT = 10**6
# The largest torsion order that UnitGroupStruct.torsion_log tables, one
# entry per unit, so its time and memory grow with it.
TORSION_LOG_LIMIT = 10**6
# The most digits of a fundamental unit (growing about as sqrt(d)): below
# Python's 4,300-digit int-to-str limit, so every unit admitted prints.
FUNDAMENTAL_UNIT_DIGITS = 4000
_UNIT_CAP = 10**FUNDAMENTAL_UNIT_DIGITS  # built once: a power this size costs about 30 us


def _trial_factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division, in about sqrt(n)
    steps: the library's one factoring routine.  TooLarge, at once, for an
    n whose factors it cannot finish below TRIAL_DIVISION_LIMIT."""
    out: dict[int, int] = {}
    given = n
    p = 2
    while p * p <= n:
        if p > TRIAL_DIVISION_LIMIT:
            raise TooLarge(f"factoring {given} needs trial divisors above {TRIAL_DIVISION_LIMIT}")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


@functools.lru_cache(maxsize=1024)
def _is_prime(n: int) -> bool:
    """Whether n is prime: by trial division, or by sympy's isprime for an n
    with no factor up to TRIAL_DIVISION_LIMIT (so above its square).  Cached,
    as the free generators of Q^x ask again for each prime key."""
    try:
        return _trial_factor(n) == {n: 1}
    except TooLarge:
        from sympy import isprime

        return isprime(n)


def _is_squarefree(d: int) -> bool:
    return all(e == 1 for e in _trial_factor(abs(d)).values())


def _totient(factors: dict[int, int]) -> int:
    """Euler's phi of the number whose prime factorisation is factors."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


_QO_ZERO, _QO_ONE = (0, 0), (1, 0)


def _pair(a: int, b: int) -> tuple[int, int]:
    """(a, b), or the own 0 or 1: b or a >> 1 is false iff b = 0 and a is 0 or 1."""
    return (a, b) if b or a >> 1 else _QO_ONE if a else _QO_ZERO


class QuadraticOrder(Ring):
    """The order Z[sqrt(d)] for squarefree d not in {0, 1}; elements (a, b)."""

    kind = "QuadraticOrder"
    is_domain = True

    def __init__(self, d: int):
        if d in (0, 1) or not _is_squarefree(d):
            raise InvalidParameter(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d
        self.spec = f"Z[sqrt({d})]"
        self.symbol = f"sqrt({d})"

    zero = _QO_ZERO
    one = _QO_ONE

    def add(self, x, y):
        a, b = x[0] + y[0], x[1] + y[1]
        return (a, b) if b or a >> 1 else _QO_ONE if a else _QO_ZERO

    def neg(self, x):
        a, b = -x[0], -x[1]
        return (a, b) if b or a >> 1 else _QO_ONE if a else _QO_ZERO

    def mul(self, x, y):
        a, b = x
        c, e = y
        a, b = a * c + self.d * b * e, a * e + b * c
        return (a, b) if b or a >> 1 else _QO_ONE if a else _QO_ZERO

    def coerce(self, n):
        return _pair(int(n), 0)

    def ensure(self, x):
        if type(x) is tuple and len(x) == 2:
            a, b = x
            if type(a) is int and type(b) is int:
                return x if b or a >> 1 else _QO_ONE if a else _QO_ZERO
        if isinstance(x, int):
            x = (x, 0)
        if isinstance(x, tuple) and len(x) == 2 and all(isinstance(v, int) for v in x):
            return _pair(*map(int, x))  # bools and other int subclasses become ints
        raise InvalidParameter(f"{x!r} is not an element of {self.spec}")

    def conj(self, x):
        a, b = x
        return (a, -b) if b or a >> 1 else _QO_ONE if a else _QO_ZERO

    def norm(self, x) -> int:
        return x[0] * x[0] - self.d * x[1] * x[1]

    def is_unit(self, x):
        return self.norm(x) in (1, -1)

    def inv(self, x):
        n = self.norm(x)
        if n == 1:
            return self.conj(x)
        if n == -1:
            return self.neg(self.conj(x))
        raise NotAUnit(f"{self.format_elem(x)} is not a unit in {self.spec}")

    def divides(self, a, b):
        # b = a*c has a unique candidate c = b * conj(a) / N(a); a 2x2
        # Cramer solve plus an integrality check decides it exactly.
        if a == self.zero:
            raise DivisionByZeroDivisor(f"zero divides nothing in {self.spec}")
        n = self.norm(a)
        num = self.mul(b, self.conj(a))
        return num[0] % n == 0 and num[1] % n == 0

    def ideal_contains(self, gens, x):
        # the lattice spanned by g and sqrt(d)*g (i*g over Z[i]) for each g
        cols = [c for g in gens for c in (g, self.mul(g, (0, 1)))]
        return solve_integer([[c[0] for c in cols], [c[1] for c in cols]], list(x)) is not None

    def sign_real(self, x) -> int:
        """Sign of a + b*sqrt(d) under the real embedding (d > 0 only)."""
        a, b = x
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        if a > 0:
            return 1 if a * a > self.d * b * b else -1
        return 1 if a * a < self.d * b * b else -1

    def _greater_than_one(self, x) -> bool:
        return self.sign_real((x[0] - 1, x[1])) > 0

    def _build_unit_group(self):
        if self.d > 0:
            return UnitGroupStruct(self, ((2, (-1, 0)),), (fundamental_unit(self.d),), COMPLETE)
        if self.d == -1:
            return UnitGroupStruct(self, ((4, (0, 1)),), (), COMPLETE)
        return UnitGroupStruct(self, ((2, (-1, 0)),), (), COMPLETE)

    def unit_exponents(self, units, x):
        """Over a real order, (t, e) with x = (-1)^t eps^e for eps the free
        generator of units, by binary descent on e: O(log |e|) products and
        exact comparisons with 1 in the ring, no floats."""
        if self.d < 0:
            return super().unit_exponents(units, x)
        one = self.one

        def at_least_one(q):
            return q == one or self._greater_than_one(q)

        t = 0
        if self.sign_real(x) < 0:
            x = self.neg(x)
            t = 1
        # x = eps^e with eps > 1; for e < 0 descend on x^-1 = eps^-e instead
        sign = 1
        if not at_least_one(x):
            x, sign = self.inv(x), -1
        # eps^(-2^j) for every j with x * eps^(-2^j) >= 1
        inv_powers = []
        p_inv = self.inv(units.free_basis[0])
        while at_least_one(self.mul(x, p_inv)):
            inv_powers.append(p_inv)
            p_inv = self.mul(p_inv, p_inv)
        # peel the binary digits of e off from the top down
        e = 0
        for j in range(len(inv_powers) - 1, -1, -1):
            q = self.mul(x, inv_powers[j])
            if at_least_one(q):
                x, e = q, e + (1 << j)
        if x != one:
            raise RuntimeError(f"{self.spec}: unit not a power of the fundamental unit, residue {x!r}")
        e *= sign
        return ((t,), {0: e} if e else {})

    def unit_torsion_exponents(self, units, x):
        """Over a real order the sign bit under the real embedding, found
        without the descent on the free exponent."""
        if self.d < 0:
            return super().unit_torsion_exponents(units, x)
        if not self.is_unit(x):
            raise NotAUnit(f"{x!r} is not a unit in {self.spec}")
        return (1 if self.sign_real(x) < 0 else 0,)

    def parse_elem(self, text):
        return _parse_quadratic(self, text)

    def format_elem(self, x):
        a, b = x
        try:
            return str(a) if b == 0 else f"{a}{b:+d}*{self.symbol}"
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_to_json(self, x):
        try:
            return {"a": str(x[0]), "b": str(x[1]), "d": self.d}
        except ValueError:  # past the digit limit
            raise _too_many_digits() from None

    def elem_from_json(self, data):
        a, b = _json_fields(data, ("a", "b"), "{a, b, d?}")
        if "d" in data and _json_int(data["d"]) != self.d:
            raise InvalidParameter(f"element with d={data['d']} used in {self.spec}")
        return _pair(_json_int(a), _json_int(b))

    def random_elem(self, rng):
        return _pair(rng.randint(-15, 15), rng.randint(-15, 15))

    def random_unit(self, rng):
        struct = self.unit_group()
        sign = rng.choice((1, -1))
        if struct.free_basis:
            u = self.unit_pow(struct.free_basis[0], rng.randint(-5, 5))
        else:
            order = struct.order()
            u = self.unit_pow(struct.torsion_factor_generator(0), rng.randrange(order))
            return u if sign == 1 or order != 4 else self.neg(u)
        return u if sign == 1 else self.neg(u)


class GaussianIntegers(QuadraticOrder):
    kind = "GaussianIntegers"

    def __init__(self):
        super().__init__(-1)
        self.spec = "Z[i]"
        self.symbol = "i"


def _parse_quadratic(ring: QuadraticOrder, text: str) -> tuple[int, int]:
    symbol, s = ring.symbol, text.replace(" ", "")
    if not s:
        raise ParseError("empty element literal")
    # split into rational and irrational parts; accept "3", "2*sym", "3+2*sym",
    # "sym", "-sym", "3-sym"
    sym = re.escape(symbol)
    m = re.fullmatch(
        rf"(?P<a>[+-]?\d+)?(?:(?P<bsign>[+-]?)(?:(?P<b>\d+)\*)?{sym})?",
        s,
    )
    if not m or (m.group("a") is None and m.group("b") is None and symbol not in s):
        raise ParseError(f"bad element literal {text!r} for {ring.spec}")
    a = int(m.group("a")) if m.group("a") is not None else 0
    if symbol in s:
        b = int(m.group("b")) if m.group("b") is not None else 1
        if m.group("bsign") == "-":
            b = -b
    else:
        b = 0
    return _pair(a, b)


# ---------------------------------------------------------------------------
# ring spec parsing


_RING_CACHE: dict[str, Ring] = {}


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec: Z | Q | Z/<m> | Z[sqrt(<d>)] | Z[i]."""
    s = spec.strip().replace(" ", "")
    if s in _RING_CACHE:
        return _RING_CACHE[s]
    if s == "Z":
        ring: Ring = IntegerRing()
    elif s == "Q":
        ring = RationalField()
    elif s == "Z[i]":
        ring = GaussianIntegers()
    elif m := re.fullmatch(r"Z/(\d+)|Z\[sqrt\((-?\d+)\)\]", s):
        try:
            k = int(m[1] or m[2])
        except ValueError as exc:  # past Python's digit limit
            raise ParseError(f"ring spec {spec!r}: {exc}") from None
        ring = IntegersMod(k) if m[1] else QuadraticOrder(k)
    else:
        raise ParseError(f"unrecognised ring spec {spec!r}")
    _RING_CACHE[s] = ring
    return ring


# ---------------------------------------------------------------------------
# Pell machinery


def fundamental_unit(d: int) -> tuple[int, int]:
    """Least unit greater than 1 of the order Z[sqrt(d)], for squarefree d > 1.

    Walks the continued-fraction convergents h/k of sqrt(d); h^2 - d*k^2 =
    +-den for den the next complete quotient's denominator, so where den
    returns to 1 is the fundamental solution, which for the non-maximal order
    Z[sqrt(d)] is exactly the fundamental unit.  TooLarge past FUNDAMENTAL_UNIT_DIGITS digits.
    """
    if d <= 1 or not _is_squarefree(d):
        raise InvalidParameter(f"need squarefree d > 1, got {d}")
    a0 = math.isqrt(d)
    m_, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        m_ = den * a - m_
        den = (d - m_ * m_) // den
        if den == 1:
            return (h, k)
        a = (a0 + m_) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if h >= _UNIT_CAP:
            raise TooLarge(f"the fundamental unit of Z[sqrt({d})] has more than FUNDAMENTAL_UNIT_DIGITS = {FUNDAMENTAL_UNIT_DIGITS} digits")


# ---------------------------------------------------------------------------
# unit groups as torsion-by-free abelian groups


class UnitGroupStruct(AbelianCarrier):
    """R^x presented as C_d1 x ... x C_dk x Z^r, as FgAbelian holds an
    abelian group: cyclic torsion factors, each with its generator, then a
    free basis.  The di need not divide one another.

    Doubles as a cocycle carrier: it exposes op/inverse/power, canonical
    decomposition into exponents, and the ring's element formats; roots and
    element orders come from AbelianCarrier.  For Q^x the free part is the
    lazy prime basis and decomposition keys free exponents by the primes
    themselves.  Two unit groups are equal when their rings are.
    """

    def __init__(self, ring: Ring, torsion, free_basis, basis_mode: str):
        """torsion lists the (order, generator) pair of each torsion factor."""
        self.ring = ring
        self.torsion_factors = tuple(d for d, _ in torsion)
        self._torsion_gens = tuple(g for _, g in torsion)
        self.free_basis = tuple(free_basis)
        self.basis_mode = basis_mode
        self._decomp_cache: dict[Any, tuple[tuple[int, ...], dict]] = {}
        self._torsion_log: dict | None = None

    # -- group carrier interface -----------------------------------------
    @property
    def identity(self):
        return self.ring.one

    def op(self, x, y):
        return self.ring.mul(x, y)

    def inverse(self, x):
        return self.ring.inv(x)

    def power(self, x, k: int):
        return self.ring.unit_pow(x, k)

    def contains(self, x) -> bool:
        """Whether x is a unit of the ring, given as any representative the
        ring accepts (an int over Z/m stands for its residue)."""
        try:
            return self.ring.is_unit(self.ring.ensure(x))
        except InvalidParameter:
            return False

    def torsion_factor_generator(self, idx: int):
        if not 0 <= idx < len(self.torsion_factors):
            raise InvalidParameter(f"no torsion factor {idx}")
        return self._torsion_gens[idx]

    def free_generator(self, key):
        """The basis element decompose keys by key: an index, or over Q^x a
        prime, so exactly the keys that decompose can give."""
        if self.basis_mode == LAZY_PRIME_BASIS:
            if isinstance(key, int) and key > 1 and _is_prime(key):
                return Fraction(key)
        elif 0 <= key < len(self.free_basis):
            return self.free_basis[key]
        raise InvalidParameter(f"no free factor {key}")

    @property
    def is_finite(self) -> bool:
        return not self.free_basis and self.basis_mode == COMPLETE

    def order(self) -> int:
        if not self.is_finite:
            raise InvalidParameter("unit group is infinite")
        return math.prod(self.torsion_factors)

    def elements(self) -> list:
        if not self.is_finite:
            raise InvalidParameter("unit group is infinite")
        return list(self.torsion_log())

    def generators(self) -> list:
        """The torsion generators, then the free basis (over Q^x the lazy
        prime basis lists none)."""
        return [*self._torsion_gens, *self.free_basis]

    def torsion_log(self) -> dict:
        """{g1^k1 ... gr^kr: (k1, .., kr)} over 0 <= ki < di for the torsion
        generators gi, in the lexicographic order of the exponents, built
        once; TooLarge when the torsion order is above TORSION_LOG_LIMIT."""
        if self._torsion_log is None:
            order = math.prod(self.torsion_factors)
            if order > TORSION_LOG_LIMIT:
                raise TooLarge(f"a torsion log of order {order} exceeds {TORSION_LOG_LIMIT}")
            table = {self.ring.one: ()}
            for d, g in zip(self.torsion_factors, self._torsion_gens):
                walked = {}
                for x, exps in table.items():
                    for k in range(d):
                        walked[x] = (*exps, k)
                        x = self.ring.mul(x, g)
                table = walked
            self._torsion_log = table
        return self._torsion_log

    # -- decomposition -----------------------------------------------------
    def decompose(self, x) -> tuple[tuple[int, ...], dict]:
        """Canonical exponents of x: (torsion exponents, free exponents).

        Torsion exponents are reduced to [0, order); free exponents are keyed
        by basis index (or by prime for Q^x).  The ring's unit_exponents
        computes them, once per x.  Raises NotAUnit for non-units.
        """
        if x in self._decomp_cache:
            return self._decomp_cache[x]
        if not self.ring.is_unit(x):
            raise NotAUnit(f"{x!r} is not a unit in {self.ring.spec}")
        result = self.ring.unit_exponents(self, x)
        self._decomp_cache[x] = result
        return result

    def torsion_exponents(self, x) -> tuple[int, ...]:
        """decompose(x)[0] alone, as the ring reads it: over Q^x and a real
        quadratic order it is the sign bit, found without the free
        exponents; raises NotAUnit for non-units like decompose."""
        return self.ring.unit_torsion_exponents(self, x)

    def compose(self, torsion_exps, free_exps) -> Elem:
        out = self.ring.one
        for g, e in zip(self._torsion_gens, torsion_exps):
            out = self.ring.mul(out, self.power(g, e))
        for key, e in free_exps.items():
            out = self.ring.mul(out, self.power(self.free_generator(key), e))
        return out

    def sample(self, rng):
        return self.ring.random_unit(rng)

    def to_json(self):
        return {"type": "units", "ring": self.ring.spec}

    def elem_to_json(self, x):
        return self.ring.elem_to_json(x)

    def elem_from_json(self, data) -> Elem:
        return self.ring.elem_from_json(data)

    def format_elem(self, x) -> str:
        return self.ring.format_elem(x)

    def __eq__(self, other):
        return isinstance(other, UnitGroupStruct) and self.ring == other.ring

    def __hash__(self):
        return hash(self.ring)

    def __repr__(self):
        return f"UnitGroupStruct({self.ring.spec}, torsion={math.prod(self.torsion_factors)}, rank={len(self.free_basis)})"


# ---------------------------------------------------------------------------
# module-level operation surface


def is_unit(ring: Ring, x) -> bool:
    return ring.is_unit(x)


def divides(ring: Ring, a, b) -> bool:
    return ring.divides(a, b)


def unit_group(ring: Ring) -> UnitGroupStruct:
    return ring.unit_group()


def unit_decompose(units: UnitGroupStruct, x) -> tuple[int, dict]:
    """Exponents of x over (the torsion generator, the free basis): (t, {key:
    e}).  One exponent t names the torsion part only when there is at most
    one torsion factor, so more raise InvalidParameter."""
    if len(units.torsion_factors) > 1:
        raise InvalidParameter(
            f"({units.ring.spec})^x has {len(units.torsion_factors)} torsion factors; unit_decompose gives one exponent"
        )
    torsion, free = units.decompose(x)
    return (torsion[0] if torsion else 0, free)


def is_square_unit(units: UnitGroupStruct, x) -> bool:
    return units.nth_root(x, 2) is not None


def _divides_or_zero(ring: Ring, a, b) -> bool:
    # inside predicates we use the convention 0 | b iff b = 0
    if a == ring.zero:
        return b == ring.zero
    return ring.divides(a, b)


def eval_psi(ring: Ring, s: int, lam, alpha, beta, delta, a) -> bool:
    """Divisibility predicate over a real quadratic order.

    With B = (R^x)^k the torsion-free power subgroup and lam a fixed
    non-torsion unit, this decides:

        alpha, beta, delta in B,  alpha != 1,  delta != 1,
        alpha*lam^i - 1 | delta - 1   for i = 1..s,
        1 + (beta - 1)*alpha | a.

    Membership in B is a precondition (NotInSubgroupB); the two inequations
    are conjuncts and yield False.
    """
    if ring.is_finite or not ring.unit_group().free_basis:
        raise InvalidParameter(f"eval_psi needs a real quadratic order, got {ring.spec}")
    if s < 1:
        raise InvalidParameter(f"need s >= 1, got {s}")
    units = ring.unit_group()
    lam_t, lam_free = units.decompose(lam)
    if not any(lam_free.values()):
        raise InvalidParameter(f"{ring.format_elem(lam)} is a torsion unit")
    k = math.lcm(*units.torsion_factors)  # the exponent of the torsion
    for name, x in (("alpha", alpha), ("beta", beta), ("delta", delta)):
        try:
            t, free = units.decompose(x)
        except NotAUnit as exc:
            raise NotInSubgroupB(f"{name} = {ring.format_elem(x)} is not a unit") from exc
        if any(t) or any(e % k for e in free.values()):
            raise NotInSubgroupB(
                f"{name} = {ring.format_elem(x)} is not in the torsion-free power subgroup"
            )
    if alpha == ring.one or delta == ring.one:
        return False
    delta_minus_1 = ring.sub(delta, ring.one)
    lam_pow = ring.one
    for _ in range(s):
        lam_pow = ring.mul(lam_pow, lam)
        lhs = ring.sub(ring.mul(alpha, lam_pow), ring.one)
        if not _divides_or_zero(ring, lhs, delta_minus_1):
            return False
    gate = ring.add(ring.one, ring.mul(ring.sub(beta, ring.one), alpha))
    return _divides_or_zero(ring, gate, a)
