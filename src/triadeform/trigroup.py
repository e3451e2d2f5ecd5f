"""Triangular matrix groups and their abelian deformations.

Two pictures of the same object.  TriMatrix / TriMatrixGroup is the concrete
group of invertible upper triangular matrices over an exact ring.  A
DeformedGroup replaces the diagonal torus (R^x)^n by a central extension of
(R^x)^{n-1} by R^x built from a tuple of symmetric 2-cocycles f_1..f_{n-1};
elements are kept in the normal form (xbar, z, U) with xbar the torus part,
z the central unit and U a strict upper triangular matrix.  With all
cocycles trivial the two pictures are isomorphic and the bridge maps below
realise the isomorphism explicitly.

Index convention: generators and entry keys are 1-based, matching t_ij and
d_k notation; i < j always for strict upper entries.

Both pictures share one protocol, TriangularGroup: identity, op, inverse,
commutator, the generators t_ij(b), d_k(a) and diag(z) as transvection,
diagonal_gen and central, order, elements, sample, generating_set, the
JSON forms of elements, is_untwisted and the coordinate questions on
(xbar, z, U); only this module reads the fields of an element.

Validation happens at the API boundary: the named generators, DeformedGroup
.element, elem_from_json and the public TriMatrix(ring, rows) constructor
check their arguments, and upper_normalise checks entry indices and coerces
values.  The internal products (op, inverse and the upper_* helpers) trust
their normalised operands and only drop zeros; in the matrix picture
products, inverses, the named generators, enumeration, sampling and the
bridge build through the trusted TriMatrix._trusted.
DeformedGroup.twist assumes normalised cocycles, f(1, x) = f(x, 1) = 1;
the constructor checks this on every unit when R^x is finite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

from .cocycles import CarryCocycle, SymCocycle2, _at, _elem, _field, is_coboundary, verify_cocycle
from .config import DEFAULT_SEED
from .errors import (
    DomainMismatch,
    InvalidParameter,
    NotAUnit,
    ParseError,
    TooLarge,
)
from .rings import Ring

ENUMERATION_LIMIT = 10_000


# ---------------------------------------------------------------------------
# strict upper triangular arithmetic on sparse entry maps


def upper_normalise(ring: Ring, n: int, entries) -> tuple:
    """Sorted entry tuple with zeros dropped; keys are 1-based (i, j), i < j."""
    table = {}
    for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
        if not (1 <= i < j <= n):
            raise InvalidParameter(f"entry ({i}, {j}) is not strictly upper in size {n}")
        v = ring.ensure(v)
        if v != ring.zero_cmp:
            table[(i, j)] = ring.add(table[(i, j)], v) if (i, j) in table else v
            if table[(i, j)] == ring.zero_cmp:
                del table[(i, j)]
    return tuple(sorted(table.items()))


def _entries(ring: Ring, table: dict) -> tuple:
    """Normal form of an accumulated entry map: zeros dropped, sorted by key.

    Keys come from normalised operands, so no index check is needed here.
    """
    zero = ring.zero_cmp
    return tuple(sorted(item for item in table.items() if item[1] != zero))


def _add_product(ring: Ring, out: dict, u1: tuple, u2: tuple) -> None:
    """Add the entries of U1 U2 into the entry map out."""
    rows: dict = {}
    for (k, j), b in u2:
        rows.setdefault(k, []).append((j, b))
    add, mul = ring.add, ring.mul
    for (i, k), a in u1:
        for j, b in rows.get(k, ()):
            prod = mul(a, b)
            key = (i, j)
            out[key] = add(out[key], prod) if key in out else prod


def upper_product(ring: Ring, n: int, u1: tuple, u2: tuple) -> tuple:
    """Pure matrix product U1 U2 of two normalised strict parts."""
    out: dict = {}
    _add_product(ring, out, u1, u2)
    return _entries(ring, out)


def upper_mul(ring: Ring, n: int, u1: tuple, u2: tuple) -> tuple:
    """Strict part of (I + U1)(I + U2) = I + U1 + U2 + U1 U2, for normalised U1, U2."""
    if not u1:
        return u2
    if not u2:
        return u1
    add = ring.add
    out = dict(u1)
    for key, v in u2:
        out[key] = add(out[key], v) if key in out else v
    _add_product(ring, out, u1, u2)
    return _entries(ring, out)


def upper_inv(ring: Ring, n: int, u: tuple) -> tuple:
    """Strict part of (I + U)^-1 via the finite Neumann series."""
    acc: dict = {}
    power = u
    sign = -1
    while power:
        for key, v in power:
            term = v if sign > 0 else ring.neg(v)
            acc[key] = ring.add(acc[key], term) if key in acc else term
        power = upper_product(ring, n, power, u)
        sign = -sign
    return _entries(ring, acc)


def upper_conjugate(ring: Ring, n: int, u: tuple, xbar: tuple) -> tuple:
    """Entrywise scaling x_i^-1 u_ij x_j with x_n = 1, for a normalised U.

    Units keep nonzero entries nonzero, so the result needs no normalising.
    """
    one, mul = ring.one_cmp, ring.mul
    inverses: dict = {}
    out = []
    for (i, j), v in u:
        x = xbar[i - 1]
        if x != one:
            if i not in inverses:
                inverses[i] = ring.inv(x)
            v = mul(inverses[i], v)
        if j < n and xbar[j - 1] != one:
            v = mul(v, xbar[j - 1])
        out.append(((i, j), v))
    return tuple(out)


# ---------------------------------------------------------------------------
# the matrix picture


class TriMatrix:
    """Invertible upper triangular matrix over an exact ring."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: Ring, rows):
        self.ring = ring
        rows = tuple(tuple(ring.ensure(v) for v in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InvalidParameter("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != ring.zero:
                    raise InvalidParameter("matrix must be upper triangular")
            if not ring.is_unit(rows[i][i]):
                raise NotAUnit(f"diagonal entry {ring.format_elem(rows[i][i])} is not a unit")
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, ring: Ring, rows: tuple) -> "TriMatrix":
        """Wrap a square tuple of tuple rows of ring elements, zero below the
        diagonal and units on it, without checking any of that."""
        m = object.__new__(cls)
        m.ring = ring
        m.n = len(rows)
        m.rows = rows
        return m

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        r = self.ring
        if (other.ring is not r and other.ring != r) or self.n != other.n:
            raise DomainMismatch("matrix shapes or rings differ")
        add, mul, zero = r.add, r.mul, r.zero
        a, b = self.rows, other.rows
        n = self.n
        rows = []
        for i in range(n):
            ai = a[i]
            row = [zero] * i
            for j in range(i, n):
                acc = mul(ai[i], b[i][j])
                for k in range(i + 1, j + 1):
                    acc = add(acc, mul(ai[k], b[k][j]))
                row.append(acc)
            rows.append(tuple(row))
        return TriMatrix._trusted(r, tuple(rows))

    def inv(self) -> "TriMatrix":
        r, n = self.ring, self.n
        add, mul, zero = r.add, r.mul, r.zero
        a = self.rows
        diag_inv = [r.inv(a[i][i]) for i in range(n)]
        out = [[zero] * n for _ in range(n)]
        for j in range(n):
            out[j][j] = diag_inv[j]
            for i in range(j - 1, -1, -1):
                ai = a[i]
                acc = mul(ai[i + 1], out[i + 1][j])
                for k in range(i + 2, j + 1):
                    acc = add(acc, mul(ai[k], out[k][j]))
                out[i][j] = r.neg(mul(diag_inv[i], acc))
        return TriMatrix._trusted(r, tuple(map(tuple, out)))

    def to_json(self):
        return [[self.ring.elem_to_json(v) for v in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, TriMatrix)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format_elem(v) for v in row) for row in self.rows
        )
        return f"TriMatrix[{body}]"


class TriangularGroup:
    """What T_n(R) and T_n(R, f) share.

    A subclass sets ring, n, identity and is_untwisted, and supplies op,
    inverse, transvection, diagonal_gen, central, sample, elem_to_json,
    _elem_from_json and _elements, the enumeration behind elements().

    Each answers, in its own format, the coordinate questions on the normal
    form (xbar, z, U) of g = diag(z xbar_1, .., z xbar_{n-1}, z) (I + U):
    torus_is_trivial (xbar = 1), is_unipotent (xbar = 1, z = 1), strict_part
    (U) and torus_part (xbar).
    """

    ring: Ring
    n: int

    @property
    def is_finite(self) -> bool:
        return self.ring.is_finite

    def order(self) -> int:
        if not self.ring.is_finite:
            raise TooLarge("infinite ring")
        units = self.ring.unit_count()
        return units**self.n * self.ring.size() ** (self.n * (self.n - 1) // 2)

    def elements(self) -> Iterator:
        """Every element; TooLarge for an infinite ring or above ENUMERATION_LIMIT."""
        if self.order() > ENUMERATION_LIMIT:
            raise TooLarge(f"group order {self.order()} exceeds {ENUMERATION_LIMIT}")
        yield from self._elements()

    def commutator(self, a, b):
        return self.op(self.op(self.inverse(a), self.inverse(b)), self.op(a, b))

    def generating_set(self) -> list:
        """t_ij(1) for i < j, then d_k(u) for each k and each unit u != 1."""
        if not self.ring.is_finite:
            raise TooLarge("generating sets are enumerated for finite rings only")
        r, n = self.ring, self.n
        gens = [self.transvection(i, j, r.one) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return gens + [self.diagonal_gen(k, u) for k in range(1, n + 1) for u in r.units() if u != r.one]

    def elem_from_json(self, data):
        return self._elem_from_json(data, "")

    def _unit(self, alpha):
        """alpha as a ring element; NotAUnit unless it is a unit."""
        alpha = self.ring.ensure(alpha)
        if not self.ring.is_unit(alpha):
            raise NotAUnit(f"{self.ring.format_elem(alpha)} is not a unit")
        return alpha

    def _unit_at(self, data, path: str):
        """The ring element decoded from data at path; NotAUnit naming the
        path unless it is a unit."""
        v = _elem(self.ring, data, path)
        if not self.ring.is_unit(v):
            raise NotAUnit(f"field {path!r} must be a unit, got {self.ring.format_elem(v)}")
        return v


class TriMatrixGroup(TriangularGroup):
    """T_n(R) as invertible upper triangular matrices."""

    is_untwisted = True

    def __init__(self, ring: Ring, n: int):
        if n < 1:
            raise InvalidParameter("matrix size must be positive")
        self.ring = ring
        self.n = n
        self.identity = self._diagonal((ring.one,) * n)

    def op(self, a: TriMatrix, b: TriMatrix) -> TriMatrix:
        return a.mul(b)

    def inverse(self, a: TriMatrix) -> TriMatrix:
        return a.inv()

    def _diagonal(self, entries: tuple) -> TriMatrix:
        """diag(entries) for n unit entries of the ring."""
        zero, n = self.ring.zero, self.n
        rows = tuple((zero,) * i + (v,) + (zero,) * (n - i - 1) for i, v in enumerate(entries))
        return TriMatrix._trusted(self.ring, rows)

    def transvection(self, i: int, j: int, beta) -> TriMatrix:
        if not (1 <= i < j <= self.n):
            raise InvalidParameter(f"transvection needs 1 <= i < j <= n, got ({i}, {j})")
        rows = [list(row) for row in self.identity.rows]
        rows[i - 1][j - 1] = self.ring.ensure(beta)
        return TriMatrix._trusted(self.ring, tuple(map(tuple, rows)))

    def diagonal_gen(self, k: int, alpha) -> TriMatrix:
        if not 1 <= k <= self.n:
            raise InvalidParameter(f"diagonal index {k} out of range")
        alpha = self._unit(alpha)
        return self._diagonal(tuple(alpha if a == k else self.ring.one for a in range(1, self.n + 1)))

    def central(self, alpha) -> TriMatrix:
        return self._diagonal((self._unit(alpha),) * self.n)

    def torus_is_trivial(self, m: TriMatrix) -> bool:
        rows = m.rows
        first = rows[0][0]
        for i in range(1, self.n):
            if rows[i][i] != first:
                return False
        return True

    def is_unipotent(self, m: TriMatrix) -> bool:
        one = self.ring.one_cmp
        for i, row in enumerate(m.rows):
            if row[i] != one:
                return False
        return True

    def strict_part(self, m: TriMatrix) -> tuple:
        """Strict entries of D^-1 M, i.e. the U with M = D (I + U); a unit
        times a nonzero entry is nonzero, so U is zero where M is."""
        r, zero, out = self.ring, self.ring.zero_cmp, []
        for i, row in enumerate(m.rows[:-1]):
            y_inv = r.inv(row[i])
            out += [((i + 1, j + 1), r.mul(y_inv, row[j])) for j in range(i + 1, self.n) if row[j] != zero]
        return tuple(out)

    def torus_part(self, m: TriMatrix) -> tuple:
        """y_i y_n^-1 for the diagonal y of M."""
        r, rows = self.ring, m.rows
        yn_inv = r.inv(rows[-1][-1])
        return tuple(r.mul(rows[i][i], yn_inv) for i in range(self.n - 1))

    def _coordinates(self, m: TriMatrix) -> "DeformedElem":
        """diag(y) (I + U) -> (y_i y_n^-1, y_n, U)."""
        if m.ring != self.ring or m.n != self.n:
            raise DomainMismatch("matrix does not live over the group's ring and size")
        return DeformedElem(self.torus_part(m), m.rows[-1][-1], self.strict_part(m))

    def _from_coordinates(self, g: "DeformedElem") -> TriMatrix:
        """(xbar, z, U) -> diag(z xbar_1, .., z xbar_{n-1}, z) (I + U)."""
        r, n, table = self.ring, self.n, dict(g.upper)
        y = [r.mul(g.z, x) for x in g.xbar] + [g.z]
        rows = (
            (r.zero,) * i + (y[i],) + tuple(r.mul(y[i], table.get((i + 1, j + 1), r.zero)) for j in range(i + 1, n))
            for i in range(n)
        )
        return TriMatrix._trusted(r, tuple(rows))

    def _elements(self) -> Iterator[TriMatrix]:
        r, n = self.ring, self.n
        units = list(r.units())
        ring_elems = list(r.elements())
        # fill lists the strict entries row by row; row i's start at starts[i]
        starts = [i * n - i * (i + 1) // 2 for i in range(n + 1)]
        lead = [(r.zero,) * i for i in range(n)]
        for diag in itertools.product(units, repeat=n):
            for fill in itertools.product(ring_elems, repeat=starts[n]):
                rows = tuple(lead[i] + (diag[i],) + fill[starts[i] : starts[i + 1]] for i in range(n))
                yield TriMatrix._trusted(r, rows)

    def sample(self, rng: random.Random) -> TriMatrix:
        r, n = self.ring, self.n
        rows = []
        for i in range(n):
            row = [r.zero] * i + [r.random_unit(rng)]
            row.extend(r.random_elem(rng) for _ in range(i + 1, n))
            rows.append(tuple(row))
        return TriMatrix._trusted(r, tuple(rows))

    def elem_to_json(self, a: TriMatrix):
        return a.to_json()

    def _elem_from_json(self, data, path: str) -> TriMatrix:
        """The n rows of n ring elements at path; ParseError naming the path
        of a matrix of another size or of a malformed entry, such as [0][1],
        and NotAUnit naming a diagonal entry that is not a unit."""
        r, n = self.ring, self.n
        n_rows = isinstance(data, list) and len(data) == n
        if not (n_rows and all(isinstance(row, list) and len(row) == n for row in data)):
            raise ParseError(f"field {path!r} must be {n} rows of {n} entries, got {data!r}")
        at = lambda i, j: f"{path}[{i}][{j}]"
        rows = [[self._unit_at(v, at(i, j)) if i == j else _elem(r, v, at(i, j)) for j, v in enumerate(row)]
                for i, row in enumerate(data)]
        return TriMatrix(r, rows)

    def __eq__(self, other):
        return isinstance(other, TriMatrixGroup) and self.ring == other.ring and self.n == other.n

    def __hash__(self):
        return hash(("trimatrixgroup", self.ring, self.n))

    def __repr__(self):
        return f"TriMatrixGroup({self.ring.spec!r}, n={self.n})"


# ---------------------------------------------------------------------------
# the deformed picture


@dataclass(frozen=True)
class DeformedElem:
    """Normal form (xbar, z, U): torus part, central unit, strict upper part."""

    xbar: tuple
    z: Any
    upper: tuple


@dataclass
class RelationReport:
    """Outcome of one presentation relation family."""

    family: str
    checked: int
    ok: bool
    witness: tuple | None = None

    def to_json(self):
        return {
            "family": self.family,
            "checked": self.checked,
            "ok": self.ok,
            "witness": None if self.witness is None else [repr(w) for w in self.witness],
        }


class DeformedGroup(TriangularGroup):
    """T_n(R, f) for a tuple of cocycles f = (f_1, .., f_{n-1}) on R^x.

    cocycles=None means the untwisted group; this avoids requiring a cyclic
    unit group, so untwisted groups exist over every supported ring.
    """

    def __init__(self, ring: Ring, n: int, cocycles=None):
        if n < 3:
            raise InvalidParameter("deformations are defined for n >= 3")
        self.ring = ring
        self.n = n
        self._ones = (ring.one,) * (n - 1)
        self._ones_cmp = (ring.one_cmp,) * (n - 1)
        self.identity = DeformedElem(self._ones, ring.one, ())
        self._factors: tuple = ()
        if cocycles is None:
            self.cocycles = None
        else:
            cocycles = tuple(cocycles)
            if len(cocycles) != n - 1:
                raise InvalidParameter(f"need {n - 1} cocycles, got {len(cocycles)}")
            units = ring.unit_group()
            for f in cocycles:
                if not isinstance(f, SymCocycle2):
                    raise InvalidParameter("cocycle entries must be SymCocycle2 instances")
                if f.domain != units or f.codomain != units:
                    raise DomainMismatch("cocycles must map R^x pairs into R^x")
                report = verify_cocycle(f, trials=32, exhaustive_limit=16)
                if not report.ok:
                    raise InvalidParameter(
                        f"cocycle fails the {report.failure[0]} law at {report.failure[1:]}"
                    )
                if units.is_finite:
                    _check_normalised(f, units)
            self.cocycles = cocycles
            self._factors = tuple(
                (i, f)
                for i, f in enumerate(cocycles)
                if not (isinstance(f, CarryCocycle) and not f.targets)
            )

    # -- cocycle plumbing ---------------------------------------------------

    @property
    def is_untwisted(self) -> bool:
        return not self._factors

    def twist(self, x1: tuple, x2: tuple):
        """prod_i f_i(x1[i], x2[i]), the central correction in torus products.

        Trivial factors were dropped in __init__, and a factor with an
        identity coordinate is skipped: cocycles are normalised, so
        f(1, x) = f(x, 1) = 1.
        """
        r = self.ring
        one = r.one_cmp
        out = r.one
        for i, f in self._factors:
            a, b = x1[i], x2[i]
            if a != one and b != one:
                c = f(a, b)
                out = c if out == one else r.mul(out, c)
        return out

    def big_f(self, alpha, beta):
        """F(a, b) = prod_i f_i(a, b) with both slots equal across factors."""
        alpha, beta = self.ring.ensure(alpha), self.ring.ensure(beta)
        return self.twist((alpha,) * (self.n - 1), (beta,) * (self.n - 1))

    # -- element constructors ------------------------------------------------

    def element(self, xbar, z, upper) -> DeformedElem:
        xbar = tuple(self.ring.ensure(v) for v in xbar)
        if len(xbar) != self.n - 1:
            raise InvalidParameter(f"xbar must have {self.n - 1} coordinates")
        for v in xbar:
            if not self.ring.is_unit(v):
                raise NotAUnit(f"torus coordinate {self.ring.format_elem(v)} is not a unit")
        z = self.ring.ensure(z)
        if not self.ring.is_unit(z):
            raise NotAUnit(f"central part {self.ring.format_elem(z)} is not a unit")
        return DeformedElem(xbar, z, upper_normalise(self.ring, self.n, upper))

    def transvection(self, i: int, j: int, beta) -> DeformedElem:
        if not (1 <= i < j <= self.n):
            raise InvalidParameter(f"transvection needs 1 <= i < j <= n, got ({i}, {j})")
        beta = self.ring.ensure(beta)
        upper = () if beta == self.ring.zero_cmp else (((i, j), beta),)
        return DeformedElem(self._ones, self.ring.one, upper)

    def diagonal_gen(self, k: int, alpha) -> DeformedElem:
        """d_k(a).  For k = n the central part carries the cocycle correction
        prod_i f_i(a, a^-1)^-1, which keeps conjugation formulas uniform."""
        alpha = self._unit(alpha)
        if not 1 <= k <= self.n:
            raise InvalidParameter(f"diagonal index {k} out of range")
        r = self.ring
        if k < self.n:
            xbar = tuple(alpha if m == k else r.one for m in range(1, self.n))
            return DeformedElem(xbar, r.one, ())
        alpha_inv = r.inv(alpha)
        xbar = (alpha_inv,) * (self.n - 1)
        z = r.mul(alpha, r.inv(self.big_f(alpha, alpha_inv)))
        return DeformedElem(xbar, z, ())

    def central(self, alpha) -> DeformedElem:
        return DeformedElem(self._ones, self._unit(alpha), ())

    def torus_is_trivial(self, g: DeformedElem) -> bool:
        return g.xbar == self._ones_cmp

    def is_unipotent(self, g: DeformedElem) -> bool:
        return g.xbar == self._ones_cmp and g.z == self.ring.one_cmp

    def strict_part(self, g: DeformedElem) -> tuple:
        return g.upper

    def torus_part(self, g: DeformedElem) -> tuple:
        return g.xbar

    # -- group operations ----------------------------------------------------

    def op(self, g1: DeformedElem, g2: DeformedElem) -> DeformedElem:
        r = self.ring
        one = r.one_cmp
        x1, x2 = g1.xbar, g2.xbar
        z = g2.z if g1.z == one else g1.z if g2.z == one else r.mul(g1.z, g2.z)
        u1 = g1.upper
        if x2 == self._ones_cmp:
            # no twist (normalised cocycles) and no conjugation
            xbar = x1
        else:
            xbar = x2 if x1 == self._ones_cmp else tuple(r.mul(a, b) for a, b in zip(x1, x2))
            t = self.twist(x1, x2)
            if t != one:
                z = r.mul(z, t)
            u1 = upper_conjugate(r, self.n, u1, x2)
        return DeformedElem(xbar, z, upper_mul(r, self.n, u1, g2.upper))

    def inverse(self, g: DeformedElem) -> DeformedElem:
        r = self.ring
        one = r.one_cmp
        z, xbar_inv = g.z, g.xbar
        upper = upper_inv(r, self.n, g.upper)
        if g.xbar != self._ones_cmp:
            xbar_inv = tuple(v if v == one else r.inv(v) for v in g.xbar)
            t = self.twist(g.xbar, xbar_inv)
            if t != one:
                z = r.mul(z, t)
            upper = upper_conjugate(r, self.n, upper, xbar_inv)
        if z != one:
            z = r.inv(z)
        return DeformedElem(xbar_inv, z, upper)

    def power(self, g: DeformedElem, k: int) -> DeformedElem:
        """g^k by square-and-multiply."""
        if k < 0:
            g, k = self.inverse(g), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.op(acc, g)
            k >>= 1
            if k:
                g = self.op(g, g)
        return acc

    # -- size and enumeration -------------------------------------------------

    def _elements(self) -> Iterator[DeformedElem]:
        r = self.ring
        units = list(r.units())
        ring_elems = list(r.elements())
        slots = [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]
        for xbar in itertools.product(units, repeat=self.n - 1):
            for z in units:
                for fill in itertools.product(ring_elems, repeat=len(slots)):
                    upper = upper_normalise(r, self.n, list(zip(slots, fill)))
                    yield DeformedElem(xbar, z, upper)

    def sample(self, rng: random.Random) -> DeformedElem:
        r = self.ring
        xbar = tuple(r.random_unit(rng) for _ in range(self.n - 1))
        z = r.random_unit(rng)
        slots = [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]
        upper = [(key, r.random_elem(rng)) for key in slots]
        return DeformedElem(xbar, z, upper_normalise(r, self.n, upper))

    def element_order(self, g: DeformedElem) -> int:
        if not self.is_finite:
            raise TooLarge("element orders are computed in finite groups only")
        acc, k = g, 1
        bound = self.order() + 1
        while acc != self.identity:
            acc = self.op(acc, g)
            k += 1
            if k > bound:
                raise InvalidParameter("element order exceeded the group order")
        return k

    def generating_set(self) -> list[DeformedElem]:
        """The shared generators, then diag(u) for each unit u != 1."""
        r = self.ring
        return super().generating_set() + [self.central(u) for u in r.units() if u != r.one]

    # -- serialisation ---------------------------------------------------------

    def elem_to_json(self, g: DeformedElem):
        return {
            "xbar": [self.ring.elem_to_json(v) for v in g.xbar],
            "z": self.ring.elem_to_json(g.z),
            "upper": {f"{i},{j}": self.ring.elem_to_json(v) for (i, j), v in g.upper},
        }

    def _elem_from_json(self, data, path: str) -> DeformedElem:
        """The element document {"xbar", "z", "upper"?} at path; ParseError
        naming the path of a missing or malformed field, such as xbar[0], and
        NotAUnit naming a torus or central coordinate that is not a unit."""
        upper = []
        at = _at(path, "upper")
        for key, v in _field(data, "upper", path, dict, {}).items():
            try:
                i, j = (int(part) for part in key.split(","))
            except ValueError:
                raise ParseError(f"field {_at(at, key)!r}: key must be 'i,j'") from None
            upper.append(((i, j), _elem(self.ring, v, _at(at, key))))
        at = _at(path, "xbar")
        xbar = [self._unit_at(v, f"{at}[{k}]") for k, v in enumerate(_field(data, "xbar", path, list))]
        return self.element(xbar, self._unit_at(_field(data, "z", path, object), _at(path, "z")), upper)

    def __repr__(self):
        kind = "untwisted" if self.is_untwisted else "twisted"
        return f"DeformedGroup({self.ring.spec!r}, n={self.n}, {kind})"


def _check_normalised(f: SymCocycle2, units) -> None:
    """f(1, x) = f(x, 1) = 1 on every x of the finite unit group."""
    one = units.identity
    for x in units.elements():
        if f(one, x) != one or f(x, one) != one:
            raise InvalidParameter(f"cocycle is not normalised at {x!r}")


# ---------------------------------------------------------------------------
# bridges between the pictures (untwisted only)


def _matrix_group(group: DeformedGroup) -> TriMatrixGroup:
    if not group.is_untwisted:
        raise InvalidParameter("the matrix bridge is defined for untwisted groups")
    return TriMatrixGroup(group.ring, group.n)


def matrix_to_deformed(group: DeformedGroup, m: TriMatrix) -> DeformedElem:
    """diag(y) (I + U) -> (y_i y_n^-1, y_n, U); a homomorphism when untwisted."""
    return _matrix_group(group)._coordinates(m)


def deformed_to_matrix(group: DeformedGroup, g: DeformedElem) -> TriMatrix:
    return _matrix_group(group)._from_coordinates(g)


# ---------------------------------------------------------------------------
# the deformed diagonal relation


def fn_identity_check(group: DeformedGroup, alpha, beta) -> tuple[bool, DeformedElem, DeformedElem]:
    """d_n(a) d_n(b) d_n(ab)^-1 against the central element F(a, b)^-1.

    Holds for every genuine cocycle tuple; returns both sides for reporting.
    """
    r = group.ring
    alpha, beta = r.ensure(alpha), r.ensure(beta)
    lhs = group.op(
        group.op(group.diagonal_gen(group.n, alpha), group.diagonal_gen(group.n, beta)),
        group.inverse(group.diagonal_gen(group.n, r.mul(alpha, beta))),
    )
    rhs = group.central(r.inv(group.big_f(alpha, beta)))
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
# presentation checking


def _scalar_pool(ring: Ring, rng: random.Random, count: int) -> list:
    if ring.is_finite and ring.size() <= 8:
        return list(ring.elements())
    pool = [ring.zero, ring.one, ring.neg(ring.one)]
    while len(pool) < count:
        pool.append(ring.random_elem(rng))
    return pool


def _unit_pool(ring: Ring, rng: random.Random, count: int) -> list:
    units = ring.units() if ring.is_finite else None
    if units is not None and len(units) <= 8:
        return list(units)
    pool = [ring.one, ring.neg(ring.one)]
    while len(pool) < count:
        pool.append(ring.random_unit(rng))
    return pool


def _first_failure(family: str, cases) -> RelationReport:
    """Run a family's (witness, lhs, rhs) cases in order and stop at the
    first with lhs != rhs; checked counts the cases run."""
    checked = 0
    for witness, lhs, rhs in cases:
        checked += 1
        if lhs != rhs:
            return RelationReport(family, checked, False, witness)
    return RelationReport(family, checked, True)


def check_presentation(group, trials: int = 40, rng: random.Random | None = None) -> list[RelationReport]:
    """Check the five defining relation families on a triangular group.

    Works on TriMatrixGroup and DeformedGroup alike.  Conjugation relations
    use the true group inverse of d_k(a); in twisted groups d_n(a^-1) differs
    from d_n(a)^-1 by a central factor, so the substitution form would fail
    for reasons that have nothing to do with the relation itself.
    """
    rng = rng or random.Random(DEFAULT_SEED)
    ring, n = group.ring, group.n
    scalars = _scalar_pool(ring, rng, max(3, trials // 8))
    units = _unit_pool(ring, rng, max(2, trials // 10))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    product = itertools.product
    # t_ij(scalars[p]) is built once, as t[i, j][p]
    t = {(i, j): [group.transvection(i, j, beta) for beta in scalars] for i, j in pairs}
    indexed = list(enumerate(scalars))
    head = indexed[:4]

    additivity = (
        ((i, j, beta, gamma), group.op(t[i, j][b], t[i, j][c]), group.transvection(i, j, ring.add(beta, gamma)))
        for (i, j), (b, beta), (c, gamma) in product(pairs, indexed, indexed)
    )
    disjoint = (
        ((i, j, k, l, beta, gamma), group.commutator(t[i, j][b], t[k, l][c]), group.identity)
        for (i, j), (k, l) in product(pairs, repeat=2)
        if j != k and l != i
        for (b, beta), (c, gamma) in product(head, repeat=2)
    )
    overlap = (
        (
            (i, j, l, beta, gamma),
            group.commutator(t[i, j][b], t[j, l][c]),
            group.transvection(i, l, ring.mul(beta, gamma)),
        )
        for i, j, l in itertools.combinations(range(1, n + 1), 3)
        for (b, beta), (c, gamma) in product(head, repeat=2)
    )

    # d_k(a) is built once per (k, a) and shared by the diagonal families;
    # the pool's d_k(units[p]) is read by position, as d_pool[k][p], so only
    # the products a1 a2 are looked up by value
    diag: dict = {}

    def d(k, a):
        out = diag.get((k, a))
        if out is None:
            out = diag[(k, a)] = group.diagonal_gen(k, a)
        return out

    d_pool = {k: [d(k, a) for a in units] for k in range(1, n + 1)}
    twisted = not group.is_untwisted

    def d_product(k, a1, a2):
        # d_k(a)d_k(b) = d_k(ab) diag(f_k(a,b)); the k = n twist is the
        # product correction F(a,b)^-1 instead
        if not twisted:
            return d(k, ring.mul(a1, a2))
        corr = group.cocycles[k - 1](a1, a2) if k < n else ring.inv(group.big_f(a1, a2))
        return group.op(d(k, ring.mul(a1, a2)), group.central(corr))

    diagonal = itertools.chain(
        (
            (("multiplicativity", k, a1, a2), group.op(d_pool[k][p1], d_pool[k][p2]), d_product(k, a1, a2))
            for k in range(1, n + 1)
            for (p1, a1), (p2, a2) in product(enumerate(units), repeat=2)
        ),
        (
            (
                ("commutation", k, l, a1, a2),
                group.op(d_pool[k][p1], d_pool[l][p2]),
                group.op(d_pool[l][p2], d_pool[k][p1]),
            )
            for k, l in itertools.combinations(range(1, n + 1), 2)
            for (p1, a1), (p2, a2) in product(enumerate(units[:4]), repeat=2)
        ),
    )

    def scaled(k, alpha, i, j, beta):
        # d_k(a)^-1 t_ij(b) d_k(a) = t_ij(a_i^-1 b a_j), a_m = a at m = k, else 1
        if i == k:
            beta = ring.mul(ring.inv(alpha), beta)
        return ring.mul(beta, alpha) if j == k else beta

    d_inv = {k: [group.inverse(x) for x in d_pool[k]] for k in d_pool}
    conjugation = (
        (
            (k, alpha, i, j, beta),
            group.op(group.op(d_inv[k][p], t[i, j][b]), d_pool[k][p]),
            group.transvection(i, j, scaled(k, alpha, i, j, beta)),
        )
        for k in range(1, n + 1)
        for p, alpha in enumerate(units)
        for (i, j), (b, beta) in product(pairs, head)
    )
    return [
        _first_failure("transvection-additivity", additivity),
        _first_failure("disjoint-commutation", disjoint),
        _first_failure("overlap-commutation", overlap),
        _first_failure("diagonal-subgroup", diagonal),
        _first_failure("diagonal-conjugation", conjugation),
    ]


# ---------------------------------------------------------------------------
# splitting twisted groups


class SplitIso:
    """Isomorphism T_n(R, f) -> T_n(R) from coboundary witnesses.

    forward sends (xbar, z, U) to diag(z', z' xbar, ..) (I + U) with
    z' = z * prod_i psi_i(xbar_i)^-1; the witnesses make this multiplicative.
    """

    def __init__(self, group: DeformedGroup, witnesses: tuple):
        self.group = group
        self.witnesses = witnesses
        self.target = TriMatrixGroup(group.ring, group.n)

    def _scale_z(self, g: DeformedElem, invert: bool) -> DeformedElem:
        """g with z times prod_i psi_i(xbar_i), or times its inverse."""
        r, z = self.group.ring, g.z
        for psi, x in zip(self.witnesses, g.xbar):
            z = r.mul(z, r.inv(psi(x)) if invert else psi(x))
        return DeformedElem(g.xbar, z, g.upper)

    def forward(self, g: DeformedElem) -> TriMatrix:
        return self.target._from_coordinates(self._scale_z(g, True))

    def backward(self, m: TriMatrix) -> DeformedElem:
        return self._scale_z(self.target._coordinates(m), False)


def split_isomorphism(group: DeformedGroup) -> SplitIso | None:
    """Explicit isomorphism onto the matrix group, or None if some factor
    cocycle is not a coboundary (no such torus-compatible splitting exists).
    """
    if group.cocycles is None:
        return SplitIso(group, tuple())
    witnesses = []
    for f in group.cocycles:
        if hasattr(f, "psi"):
            witnesses.append(f.psi)
            continue
        psi = is_coboundary(f)
        if psi is None:
            return None
        witnesses.append(psi)
    return SplitIso(group, tuple(witnesses))
