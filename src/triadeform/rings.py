"""Exact arithmetic over the supported coefficient rings.

Five rings are available: the integers, the rationals, residue rings Z/m,
real or imaginary quadratic orders Z[sqrt(d)] (exactly that order, never the
maximal one), and the Gaussian integers.  Elements are plain Python values:
``int`` for Z and Z/m, ``Fraction`` for Q, and ``(a, b)`` integer pairs for
the quadratic rings, so everything stays hashable and exactly comparable.

The unit-group machinery treats R^x as a torsion-by-free abelian group with a
single cyclic torsion factor and decides membership, decomposition, square
testing and k-th roots by exact computation (continued fractions for the
fundamental unit, discrete logs for residue rings, prime factorisation for
Q^x).  Divisibility in the quadratic orders is decided by solving the 2x2
integer linear system directly rather than by norm heuristics.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Iterator

from .abgroups import AbelianCarrier
from .errors import (
    DivisionByZeroDivisor,
    InvalidParameter,
    NotAUnit,
    NotInSubgroupB,
    ParseError,
    TooLarge,
)

Elem = Any  # int | Fraction | tuple[int, int], depending on the ring

COMPLETE = "complete"
LAZY_PRIME_BASIS = "lazy-prime-basis"


def _factorint(n: int) -> dict[int, int]:
    from sympy import factorint

    return {int(p): int(e) for p, e in factorint(n).items()}


def _json_int(value) -> int:
    """An integer field of an element document: a JSON integer, or the
    decimal string elem_to_json writes.  Floats, booleans and other strings
    raise ParseError instead of being truncated by int()."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ParseError(f"expected an integer or a decimal string, got {value!r}")


def _is_squarefree(d: int) -> bool:
    if d in (0,):
        return False
    return all(e == 1 for e in _factorint(abs(d)).values())


class Ring:
    """Base class: exact ring arithmetic over plain hashable payloads."""

    kind: str
    spec: str
    # Comparands equal to zero and one that are cheap to test against: plain
    # ints over Q, where Fraction == int skips the numbers.Rational check
    # that Fraction == Fraction pays.  Use them only as the right-hand side
    # of == or !=, never as a stored value: they need not be ring elements.
    zero_cmp: Any
    one_cmp: Any

    # -- ring operations -------------------------------------------------
    @property
    def zero(self) -> Elem:
        raise NotImplementedError

    @property
    def one(self) -> Elem:
        raise NotImplementedError

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
        if k < 0:
            x, k = self.inv(x), -k
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    def divides(self, a: Elem, b: Elem) -> bool:
        """Whether a | b, i.e. b = a*c for some ring element c."""
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
    def unit_group(self) -> "UnitGroupStruct":
        raise NotImplementedError

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

    zero = zero_cmp = 0
    one = one_cmp = 1

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

    def unit_group(self):
        return UnitGroupStruct(self, 2, -1, (), COMPLETE)

    def parse_elem(self, text):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ParseError(f"bad integer literal {text!r}") from exc

    def format_elem(self, x):
        return str(x)

    def elem_to_json(self, x):
        return str(x)

    def elem_from_json(self, data):
        return _json_int(data)

    def random_elem(self, rng):
        return rng.randint(-40, 40)

    def random_unit(self, rng):
        return rng.choice((1, -1))


def _fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime ints num and den > 0, made by setting
    its two slots.  Fraction's private slots are read and written in this
    module only."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


class RationalField(Ring):
    kind = "Rationals"
    spec = "Q"

    zero = Fraction(0)
    one = Fraction(1)
    zero_cmp = 0
    one_cmp = 1

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
        return Fraction(n)

    def ensure(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise InvalidParameter(f"{x!r} is not a rational element")

    def is_unit(self, x):
        return x != 0

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

    def unit_group(self):
        return UnitGroupStruct(self, 2, Fraction(-1), (), LAZY_PRIME_BASIS)

    def parse_elem(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def format_elem(self, x):
        return str(x)

    def elem_to_json(self, x):
        return {"num": str(x.numerator), "den": str(x.denominator)}

    def elem_from_json(self, data):
        return Fraction(_json_int(data["num"]), _json_int(data["den"]))

    def random_elem(self, rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def random_unit(self, rng):
        num = rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 7, 9))
        den = rng.choice((1, 2, 3, 5, 7))
        return Fraction(num, den)


class IntegersMod(Ring):
    kind = "IntegersMod"

    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameter(f"modulus must be at least 2, got {m}")
        self.m = m
        self.spec = f"Z/{m}"
        self._unit_struct: UnitGroupStruct | None = None
        self._dlog: dict[int, int] | None = None
        self._units: list[int] | None = None

    zero = zero_cmp = 0
    one = one_cmp = 1

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

    def unit_group(self):
        if self._unit_struct is None:
            m = self.m
            factors = _trial_factor(m)
            # (Z/m)^x is cyclic exactly for m = 2, 4, p^k and 2 p^k with p odd
            odd = [p for p in factors if p != 2]
            if not (m in (2, 4) or (len(odd) == 1 and factors.get(2, 0) <= 1)):
                # A single torsion generator cannot describe a non-cyclic
                # unit group; refuse rather than return something wrong.
                raise InvalidParameter(
                    f"({self.spec})^x is not cyclic; no single-generator description exists"
                )
            order = _totient(factors)
            # the least unit g with g^(order/q) != 1 for every prime q | order
            # (Cohen, GTM 138, Alg. 1.4.4), i.e. the least unit of full order
            cofactors = [order // q for q in _trial_factor(order)]
            gen = next(
                g
                for g in range(1, m)
                if math.gcd(g, m) == 1 and all(pow(g, c, m) != 1 for c in cofactors)
            )
            self._unit_struct = UnitGroupStruct(self, order, gen, (), COMPLETE)
        return self._unit_struct

    def discrete_log(self, x: int) -> int:
        if self._dlog is None:
            struct = self.unit_group()
            table, acc = {}, 1
            for k in range(struct.torsion_order):
                table[acc] = k
                acc = self.mul(acc, struct.torsion_generator)
            self._dlog = table
        try:
            return self._dlog[x % self.m]
        except KeyError as exc:
            raise NotAUnit(f"{x} is not a unit in {self.spec}") from exc

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


# The largest divisor _trial_factor tries: it factors every n below its
# square, 10^12, in at most half a million steps, and raises TooLarge for
# larger n that it cannot finish, where the steps would grow as sqrt(n).
TRIAL_DIVISION_LIMIT = 10**6


def _trial_factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division, in about sqrt(n)
    steps; unlike _factorint it does not import sympy."""
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


def _totient(factors: dict[int, int]) -> int:
    """Euler's phi of the number whose prime factorisation is factors."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


_QUAD_TERM = re.compile(
    r"^\s*(?P<a>[+-]?\d+)?\s*(?P<rest>(?P<sign>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?(?P<sym>sqrt\(\s*(?P<d>-?\d+)\s*\)|i))?\s*$"
)


class QuadraticOrder(Ring):
    """The order Z[sqrt(d)] for squarefree d not in {0, 1}; elements (a, b)."""

    kind = "QuadraticOrder"

    def __init__(self, d: int):
        if d in (0, 1) or not _is_squarefree(d):
            raise InvalidParameter(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d
        self.spec = f"Z[sqrt({d})]"
        self._unit_struct: UnitGroupStruct | None = None

    zero = zero_cmp = (0, 0)
    one = one_cmp = (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, e = y
        return (a * c + self.d * b * e, a * e + b * c)

    def coerce(self, n):
        return (int(n), 0)

    def ensure(self, x):
        if isinstance(x, int):
            return (x, 0)
        if isinstance(x, tuple) and len(x) == 2 and all(isinstance(v, int) for v in x):
            return x
        raise InvalidParameter(f"{x!r} is not an element of {self.spec}")

    def conj(self, x):
        return (x[0], -x[1])

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

    def unit_group(self):
        if self._unit_struct is None:
            if self.d > 0:
                eps = fundamental_unit(self.d)
                self._unit_struct = UnitGroupStruct(self, 2, (-1, 0), (eps,), COMPLETE)
            elif self.d == -1:
                self._unit_struct = UnitGroupStruct(self, 4, (0, 1), (), COMPLETE)
            else:
                self._unit_struct = UnitGroupStruct(self, 2, (-1, 0), (), COMPLETE)
        return self._unit_struct

    def parse_elem(self, text):
        return _parse_quadratic(self, text, f"sqrt({self.d})")

    def format_elem(self, x):
        return _format_quadratic(x, f"sqrt({self.d})")

    def elem_to_json(self, x):
        return {"a": str(x[0]), "b": str(x[1]), "d": self.d}

    def elem_from_json(self, data):
        if "d" in data and _json_int(data["d"]) != self.d:
            raise InvalidParameter(f"element with d={data['d']} used in {self.spec}")
        return (_json_int(data["a"]), _json_int(data["b"]))

    def random_elem(self, rng):
        return (rng.randint(-15, 15), rng.randint(-15, 15))

    def random_unit(self, rng):
        struct = self.unit_group()
        sign = rng.choice((1, -1))
        if struct.free_basis:
            u = self.unit_pow(struct.free_basis[0], rng.randint(-5, 5))
        else:
            u = self.unit_pow(struct.torsion_generator, rng.randrange(struct.torsion_order))
            return u if sign == 1 or struct.torsion_order != 4 else self.neg(u)
        return u if sign == 1 else self.neg(u)


class GaussianIntegers(QuadraticOrder):
    kind = "GaussianIntegers"

    def __init__(self):
        super().__init__(-1)
        self.spec = "Z[i]"

    def parse_elem(self, text):
        return _parse_quadratic(self, text, "i")

    def format_elem(self, x):
        return _format_quadratic(x, "i")

    def elem_to_json(self, x):
        return {"a": str(x[0]), "b": str(x[1]), "d": -1}


def _format_quadratic(x: tuple[int, int], symbol: str) -> str:
    a, b = x
    if b == 0:
        return str(a)
    return f"{a}{b:+d}*{symbol}"


def _parse_quadratic(ring: QuadraticOrder, text: str, symbol: str) -> tuple[int, int]:
    s = text.replace(" ", "")
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
    return (a, b)


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
    elif m := re.fullmatch(r"Z/(\d+)", s):
        ring = IntegersMod(int(m.group(1)))
    elif m := re.fullmatch(r"Z\[sqrt\((-?\d+)\)\]", s):
        ring = QuadraticOrder(int(m.group(1)))
    else:
        raise ParseError(f"unrecognised ring spec {spec!r}")
    _RING_CACHE[s] = ring
    return ring


# ---------------------------------------------------------------------------
# Pell machinery


def fundamental_unit(d: int) -> tuple[int, int]:
    """Least unit greater than 1 of the order Z[sqrt(d)], for squarefree d > 1.

    Walks the continued-fraction convergents of sqrt(d); the first convergent
    (h, k) with h^2 - d*k^2 = +-1 is the fundamental solution, which for the
    non-maximal order Z[sqrt(d)] is exactly the fundamental unit.
    """
    if d <= 1 or not _is_squarefree(d):
        raise InvalidParameter(f"need squarefree d > 1, got {d}")
    a0 = math.isqrt(d)
    m_, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if h * h - d * k * k in (1, -1):
            return (h, k)
        m_ = den * a - m_
        den = (d - m_ * m_) // den
        a = (a0 + m_) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


# ---------------------------------------------------------------------------
# unit groups as torsion-by-free abelian groups


class UnitGroupStruct(AbelianCarrier):
    """R^x presented as <g> x Z^r with a single cyclic torsion factor <g>.

    Doubles as a cocycle carrier: it exposes op/inverse/power, canonical
    decomposition into exponents, and the ring's element formats; roots and
    element orders come from AbelianCarrier.  For Q^x the free part is the
    lazy prime basis and decomposition keys free exponents by the primes
    themselves.  Two unit groups are equal when their rings are.
    """

    def __init__(self, ring: Ring, torsion_order: int, torsion_generator, free_basis, basis_mode: str):
        self.ring = ring
        self.torsion_order = torsion_order
        self.torsion_generator = torsion_generator
        self.free_basis = tuple(free_basis)
        self.basis_mode = basis_mode
        self._decomp_cache: dict[Any, tuple[tuple[int, ...], dict]] = {}

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
        return self.ring.is_unit(x)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return (self.torsion_order,) if self.torsion_order > 1 else ()

    def torsion_factor_generator(self, idx: int):
        if idx != 0 or self.torsion_order <= 1:
            raise InvalidParameter(f"no torsion factor {idx}")
        return self.torsion_generator

    def free_generator(self, key):
        if self.basis_mode == LAZY_PRIME_BASIS:
            return Fraction(key)
        return self.free_basis[key]

    @property
    def is_finite(self) -> bool:
        return not self.free_basis and self.basis_mode == COMPLETE

    def order(self) -> int:
        if not self.is_finite:
            raise InvalidParameter("unit group is infinite")
        return self.torsion_order

    def elements(self) -> list:
        if not self.is_finite:
            raise InvalidParameter("unit group is infinite")
        out, acc = [], self.ring.one
        for _ in range(self.torsion_order):
            out.append(acc)
            acc = self.ring.mul(acc, self.torsion_generator)
        return out

    # -- decomposition -----------------------------------------------------
    def decompose(self, x) -> tuple[tuple[int, ...], dict]:
        """Canonical exponents of x: (torsion exponents, free exponents).

        Torsion exponents are reduced to [0, order); free exponents are keyed
        by basis index (or by prime for Q^x).  Raises NotAUnit for non-units.
        """
        if x in self._decomp_cache:
            return self._decomp_cache[x]
        if not self.ring.is_unit(x):
            raise NotAUnit(f"{x!r} is not a unit in {self.ring.spec}")
        result = self._decompose_fresh(x)
        self._decomp_cache[x] = result
        return result

    def torsion_exponents(self, x) -> tuple[int, ...]:
        """decompose(x)[0] alone.  Over Q^x it is the sign bit, found without
        factoring x; raises NotAUnit for non-units like decompose."""
        if self.basis_mode != LAZY_PRIME_BASIS:
            return self.decompose(x)[0]
        if not self.ring.is_unit(x):
            raise NotAUnit(f"{x!r} is not a unit in {self.ring.spec}")
        t = 0 if x > 0 else 1
        return (t,) if self.torsion_factors else ()

    def _decompose_fresh(self, x):
        ring = self.ring
        if self.basis_mode == LAZY_PRIME_BASIS:
            frac = Fraction(x)
            t = 0 if frac > 0 else 1
            free: dict[Any, int] = {}
            for p, e in _factorint(abs(frac.numerator)).items():
                free[p] = free.get(p, 0) + e
            for p, e in _factorint(frac.denominator).items():
                free[p] = free.get(p, 0) - e
            return ((t,) if self.torsion_factors else (), {p: e for p, e in sorted(free.items()) if e})
        if isinstance(ring, IntegersMod):
            t = ring.discrete_log(x)
            return ((t,) if self.torsion_factors else (), {})
        if isinstance(ring, QuadraticOrder) and ring.d > 0:
            return self._decompose_real_quadratic(x)
        # finite torsion only: match powers of the generator
        acc = ring.one
        for k in range(self.torsion_order):
            if acc == x:
                return ((k,) if self.torsion_factors else (), {})
            acc = ring.mul(acc, self.torsion_generator)
        raise NotAUnit(f"{x!r} is not a unit in {ring.spec}")

    def _decompose_real_quadratic(self, x):
        """(t, e) with x = (-1)^t eps^e, by binary descent on e: O(log |e|)
        products and exact comparisons with 1 in the ring, no floats."""
        ring = self.ring
        if not (isinstance(ring, QuadraticOrder) and ring.d > 0):
            raise InvalidParameter(f"{ring.spec} is not a real quadratic order")
        one = ring.one

        def at_least_one(q):
            return q == one or ring._greater_than_one(q)

        t = 0
        if ring.sign_real(x) < 0:
            x = ring.neg(x)
            t = 1
        # x = eps^e with eps > 1; for e < 0 descend on x^-1 = eps^-e instead
        sign = 1
        if not at_least_one(x):
            x, sign = ring.inv(x), -1
        # eps^(-2^j) for every j with x * eps^(-2^j) >= 1
        inv_powers = []
        p_inv = ring.inv(self.free_basis[0])
        while at_least_one(ring.mul(x, p_inv)):
            inv_powers.append(p_inv)
            p_inv = ring.mul(p_inv, p_inv)
        # peel the binary digits of e off from the top down
        e = 0
        for j in range(len(inv_powers) - 1, -1, -1):
            q = ring.mul(x, inv_powers[j])
            if at_least_one(q):
                x, e = q, e + (1 << j)
        if x != one:
            raise RuntimeError(f"{ring.spec}: unit not a power of the fundamental unit, residue {x!r}")
        e *= sign
        return ((t,), {0: e} if e else {})

    def compose(self, torsion_exps, free_exps) -> Elem:
        out = self.ring.one
        if self.torsion_factors and torsion_exps:
            out = self.ring.mul(out, self.power(self.torsion_generator, torsion_exps[0]))
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
        return f"UnitGroupStruct({self.ring.spec}, torsion={self.torsion_order}, rank={len(self.free_basis)})"


# ---------------------------------------------------------------------------
# module-level operation surface


def is_unit(ring: Ring, x) -> bool:
    return ring.is_unit(x)


def divides(ring: Ring, a, b) -> bool:
    return ring.divides(a, b)


def unit_group(ring: Ring) -> UnitGroupStruct:
    return ring.unit_group()


def unit_decompose(units: UnitGroupStruct, x) -> tuple[int, dict]:
    """Exponents of x over (torsion_generator, free basis): (t, {key: e})."""
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
    if not (isinstance(ring, QuadraticOrder) and ring.d > 0):
        raise InvalidParameter(f"eval_psi needs a real quadratic order, got {ring.spec}")
    if s < 1:
        raise InvalidParameter(f"need s >= 1, got {s}")
    units = ring.unit_group()
    lam_t, lam_free = units.decompose(lam)
    if not any(lam_free.values()):
        raise InvalidParameter(f"{ring.format_elem(lam)} is a torsion unit")
    k = units.torsion_order
    for name, x in (("alpha", alpha), ("beta", beta), ("delta", delta)):
        try:
            t, free = units.decompose(x)
        except NotAUnit as exc:
            raise NotInSubgroupB(f"{name} = {ring.format_elem(x)} is not a unit") from exc
        if (t and t[0] % k) or any(e % k for e in free.values()):
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
