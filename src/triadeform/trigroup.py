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

A DeformedElem holds xbar, z, the cells of U (its n(n-1)/2 strict upper
slots, row-major, each zero slot holding the ring's own zero) and its
support, the sorted tuple of nonzero slots.  Products walk one plan per n
(_plan) from the support only, so a transvection costs one slot, and sort
nothing.  Every ring gives 0 and 1 as its own zero and one, so a slot is
zero exactly when it holds ring.zero (over Z/6, t_12(2) t_23(3) leaves it at
(1, 3)), equal elements have one support, and 0 and 1 are tested by identity.

Validation happens at the API boundary: the named generators, DeformedGroup
.element (which checks entry indices, coerces values and sums repeated
entries), elem_from_json and the public TriMatrix(ring, rows) constructor
check their arguments.  The internal products (op, inverse and their slot
helpers) trust their operands; in the matrix picture products, inverses,
the named generators, enumeration, sampling and the bridge build through
the trusted TriMatrix._trusted.
DeformedGroup.twist assumes normalised cocycles, f(1, x) = f(x, 1) = 1.
The constructor takes a cocycle by construction (a carry, the trivial ones
included, a coboundary of a total psi, or a product or transport of such)
as it is, and checks any other: the cocycle laws, and normalisation on
every unit when R^x is finite.
DeformedGroup.op keeps one entry for the last pair of torus tuples it saw
(their product, twist and x2^-1), because a conjugation d^-1 t d meets the
same pair again and again; the entry is matched by identity, which compares
no ring elements, and holds its key tuples, so no other tuple can take
their ids while it is kept.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterator

from .abgroups import power_by_squaring
from .cocycles import SymCocycle2, _at, _elem, _field, check_cocycle, is_coboundary
from .config import DEFAULT_SEED
from .errors import DomainMismatch, InvalidParameter, NotAUnit, ParseError, TooLarge
from .rings import Ring

ENUMERATION_LIMIT = 10_000
# The largest n a group is built for: a product of dense elements costs about
# n^3 / 6 ring operations (over Z/5, 0.03 s at n = 100 and 1.7 s at n = 400),
# while the slot plan is quadratic and builds in 3 ms at n = 100.
DIMENSION_LIMIT = 100


# ---------------------------------------------------------------------------
# strict upper triangular entries: the slot plan


@functools.lru_cache(maxsize=None)
def _plan(n: int) -> tuple[tuple, dict, tuple]:
    """The strict upper slots of size n, row-major: keys[s] = (i, j), index
    its inverse, and feeds[s] = (ts, shift) for s = (i, k): ts are the slots
    (k, k+1) .. (k, n) of row k, and u_s v_t adds to (UV)_d at d = t + shift,
    as (i, j) lies a fixed number of slots after (k, j) for every j."""
    keys = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    index = {key: s for s, key in enumerate(keys)}
    # the slot of (i, i+1), the first of row i; row n is empty
    start = [index.get((i, i + 1), len(keys)) - i for i in range(n + 1)]
    return keys, index, tuple((range(start[k] + k, start[k] + n), start[i] - start[k]) for i, k in keys)


def _check_dimension(n: int) -> None:
    """TooLarge naming DIMENSION_LIMIT when n exceeds it, before any work."""
    if n > DIMENSION_LIMIT:
        raise TooLarge(f"n = {n} exceeds DIMENSION_LIMIT = {DIMENSION_LIMIT}")


def _dense(ring: Ring, values) -> tuple[tuple, tuple]:
    """Cells and support of the strict part with these slot values."""
    zero, cells = ring.zero, tuple(values)
    return cells, tuple([s for s, v in enumerate(cells) if v is not zero])


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
        # the rows alone: equal matrices have equal rows, and __eq__ tells
        # the rare same-rows pair over two rings apart
        return hash(self.rows)

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
        """The paper's generators: t_{i,i+1}(1) for i < n, then d_k(u) for
        each k and each generator u of R^x, read off the ring's unit_group()
        without listing the units."""
        if not self.ring.is_finite:
            raise TooLarge("generating sets are enumerated for finite rings only")
        r, n = self.ring, self.n
        gens = [self.transvection(i, i + 1, r.one) for i in range(1, n)]
        return gens + [self.diagonal_gen(k, u) for k in range(1, n + 1) for u in r.unit_group().generators()]

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
        _check_dimension(n)
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
        one = self.ring.one
        for i, row in enumerate(m.rows):
            if row[i] != one:
                return False
        return True

    def strict_part(self, m: TriMatrix) -> tuple:
        """Strict entries of D^-1 M, i.e. the U with M = D (I + U); a unit
        times a nonzero entry is nonzero, so U is zero where M is."""
        r, zero, out = self.ring, self.ring.zero, []
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
        """diag(y) (I + U) -> (y_i y_n^-1, y_n, U); a unit times a nonzero
        entry is nonzero, so U is zero where M is."""
        if m.ring != self.ring or m.n != self.n:
            raise DomainMismatch("matrix does not live over the group's ring and size")
        r, rows, keys = self.ring, m.rows, _plan(self.n)[0]
        y_inv = [r.inv(row[i]) for i, row in enumerate(rows[:-1])]
        values = [r.mul(y_inv[i - 1], rows[i - 1][j - 1]) for i, j in keys]
        return DeformedElem(self.torus_part(m), rows[-1][-1], *_dense(r, values), keys)

    def _from_coordinates(self, g: "DeformedElem") -> TriMatrix:
        """(xbar, z, U) -> diag(z xbar_1, .., z xbar_{n-1}, z) (I + U)."""
        r, zero = self.ring, self.ring.zero
        y = [r.mul(g._z, x) for x in g._xbar] + [g._z]
        rows = [[zero] * i + [y[i]] for i in range(self.n)]
        for (i, _), v in zip(g._keys, g._cells):  # row-major: each row's cells in turn
            rows[i - 1].append(zero if v is zero else r.mul(y[i - 1], v))
        return TriMatrix._trusted(r, tuple(map(tuple, rows)))

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
        InvalidParameter naming a nonzero entry below the diagonal, and
        NotAUnit naming a diagonal entry that is not a unit."""
        r, n = self.ring, self.n
        n_rows = isinstance(data, list) and len(data) == n
        if not (n_rows and all(isinstance(row, list) and len(row) == n for row in data)):
            raise ParseError(f"field {path!r} must be {n} rows of {n} entries, got {data!r}")
        at = lambda i, j: f"{path}[{i}][{j}]"
        rows = tuple(tuple(self._unit_at(v, at(i, j)) if i == j else _elem(r, v, at(i, j)) for j, v in enumerate(row))
                     for i, row in enumerate(data))
        for i, j in itertools.combinations(range(n), 2):
            if rows[j][i] != r.zero:
                raise InvalidParameter(f"field {at(j, i)!r} is below the diagonal and must be 0, got {r.format_elem(rows[j][i])}")
        return TriMatrix._trusted(r, rows)

    def __eq__(self, other):
        return isinstance(other, TriMatrixGroup) and self.ring == other.ring and self.n == other.n

    def __hash__(self):
        return hash(("trimatrixgroup", self.ring, self.n))

    def __repr__(self):
        return f"TriMatrixGroup({self.ring.spec!r}, n={self.n})"


# ---------------------------------------------------------------------------
# the deformed picture


class DeformedElem:
    """Normal form (xbar, z, U): torus part, central unit, strict upper part.
    xbar, z and upper (the sorted ((i, j), v) pairs of nonzero entries) are
    read-only views of the slots laid out in the module docstring."""

    __slots__ = ("_xbar", "_z", "_cells", "_support", "_keys")

    def __init__(self, xbar: tuple, z, cells: tuple, support: tuple, keys: tuple):
        self._xbar, self._z, self._cells, self._support, self._keys = xbar, z, cells, support, keys

    xbar = property(operator.attrgetter("_xbar"))
    z = property(operator.attrgetter("_z"))

    @property
    def upper(self) -> tuple:
        return tuple([(self._keys[s], self._cells[s]) for s in self._support])

    def __eq__(self, other):
        if other.__class__ is not DeformedElem:
            return NotImplemented
        a, b = self, other  # zero slots share one zero, so most cells compare by identity
        return a._support == b._support and a._cells == b._cells and (a._z is b._z or a._z == b._z) and a._xbar == b._xbar

    def __hash__(self):
        return hash((self._xbar, self._z, self._cells))

    def __repr__(self):
        return f"DeformedElem(xbar={self._xbar!r}, z={self._z!r}, upper={self.upper!r})"


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

    cocycles=None means the untwisted group.  Each cocycle must be a
    SymCocycle2 on (R^x, R^x), the ring's unit_group() with its torsion
    factors, that cocycles.check_cocycle accepts, so a carry is not read
    while the group is built.
    """

    def __init__(self, ring: Ring, n: int, cocycles=None):
        if n < 3:
            raise InvalidParameter("deformations are defined for n >= 3")
        _check_dimension(n)
        self.ring = ring
        self.n = n
        self._ones = (ring.one,) * (n - 1)
        self._keys, self._index, self._feeds = _plan(n)
        self._zeros = (ring.zero,) * len(self._keys)
        self.identity = DeformedElem(self._ones, ring.one, self._zeros, (), self._keys)
        # op's last torus pair: (x1, x2, xbar, twist, x2^-1 or None)
        self._torus: tuple = (None,) * 5
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
                check_cocycle(f)
            self.cocycles = cocycles
            self._factors = tuple((i, f) for i, f in enumerate(cocycles) if not f.is_trivial)

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
        one = out = r.one
        for i, f in self._factors:
            a, b = x1[i], x2[i]
            if a is not one and b is not one:
                c = f(a, b)
                out = c if out is one else r.mul(out, c)
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
        if all(map(operator.is_, xbar, self._ones)):
            xbar = self._ones  # so op's identity test finds a trivial torus
        for v in xbar:
            if not self.ring.is_unit(v):
                raise NotAUnit(f"torus coordinate {self.ring.format_elem(v)} is not a unit")
        z = self.ring.ensure(z)
        if not self.ring.is_unit(z):
            raise NotAUnit(f"central part {self.ring.format_elem(z)} is not a unit")
        r, cells, zero = self.ring, list(self._zeros), self.ring.zero
        for (i, j), v in upper.items() if isinstance(upper, dict) else upper:
            s = self._index.get((i, j))
            if s is None:
                raise InvalidParameter(f"entry ({i}, {j}) is not strictly upper in size {self.n}")
            cells[s] = r.ensure(v) if cells[s] is zero else r.add(cells[s], r.ensure(v))
        return DeformedElem(xbar, z, *_dense(r, cells), self._keys)

    def transvection(self, i: int, j: int, beta) -> DeformedElem:
        if not (1 <= i < j <= self.n):
            raise InvalidParameter(f"transvection needs 1 <= i < j <= n, got ({i}, {j})")
        beta = self.ring.ensure(beta)
        if beta is self.ring.zero:
            return self.identity
        s = self._index[i, j]
        return DeformedElem(self._ones, self.ring.one, self._zeros[:s] + (beta,) + self._zeros[s + 1 :], (s,), self._keys)

    def diagonal_gen(self, k: int, alpha) -> DeformedElem:
        """d_k(a).  For k = n the central part carries the cocycle correction
        prod_i f_i(a, a^-1)^-1, which keeps conjugation formulas uniform."""
        alpha = self._unit(alpha)
        if not 1 <= k <= self.n:
            raise InvalidParameter(f"diagonal index {k} out of range")
        r = self.ring
        if alpha is r.one:
            return self.identity
        if k < self.n:
            return DeformedElem(tuple(alpha if m == k else r.one for m in range(1, self.n)), r.one, self._zeros, (), self._keys)
        alpha_inv = r.inv(alpha)
        z = r.mul(alpha, r.inv(self.big_f(alpha, alpha_inv)))
        return DeformedElem((alpha_inv,) * (self.n - 1), z, self._zeros, (), self._keys)

    def central(self, alpha) -> DeformedElem:
        return DeformedElem(self._ones, self._unit(alpha), self._zeros, (), self._keys)

    def torus_is_trivial(self, g: DeformedElem) -> bool:
        return g._xbar == self._ones

    def is_unipotent(self, g: DeformedElem) -> bool:
        return g._xbar == self._ones and g._z == self.ring.one

    def strict_part(self, g: DeformedElem) -> tuple:
        return g.upper

    def torus_part(self, g: DeformedElem) -> tuple:
        return g._xbar

    # -- group operations ----------------------------------------------------

    def _conjugate(self, cells: tuple, support: tuple, x: tuple, x_inv: tuple) -> tuple:
        """Cells of D^-1 U D, D = diag(x, 1), x_inv = x^-1: (i, j) scales by the unit x_i^-1 x_j."""
        one, mul, keys = self.ring.one, self.ring.mul, self._keys
        x, out = (*x, one), list(cells)
        for s in support:
            i, j = keys[s]
            v = out[s] if x[i - 1] is one else mul(x_inv[i - 1], out[s])
            out[s] = v if x[j - 1] is one else mul(v, x[j - 1])
        return tuple(out)

    def _product(self, out: list, c1: tuple, s1, c2, s2: tuple) -> tuple[tuple, tuple]:
        """Cells and support of out + U2 + U1 U2, U1 in c1 nonzero at s1 (walked
        in order), U2 in c2 at s2; a zero sum or product is the ring's own zero."""
        r = self.ring
        add, mul, zero, feeds = r.add, r.mul, r.zero, self._feeds
        for s in s2:
            out[s] = c2[s] if out[s] is zero else add(out[s], c2[s])
        for s in s1:
            a = c1[s]
            ts, shift = feeds[s]
            for t in ts:
                b = c2[t]
                if b is not zero:
                    d = t + shift
                    v = out[d]
                    out[d] = mul(a, b) if v is zero else add(v, mul(a, b))
        return tuple(out), tuple([s for s, v in enumerate(out) if v is not zero])

    def op(self, g1: DeformedElem, g2: DeformedElem) -> DeformedElem:
        r, one, ones = self.ring, self.ring.one, self._ones
        x1, x2, z1, z2 = g1._xbar, g2._xbar, g1._z, g2._z
        z = z2 if z1 is one else z1 if z2 is one else r.mul(z1, z2)
        c1, s1, c2, s2 = g1._cells, g1._support, g2._cells, g2._support
        if x2 is ones:
            # no twist (normalised cocycles) and no conjugation
            xbar = x1
        else:
            entry = self._torus
            if entry[0] is x1 and entry[1] is x2:
                _, _, xbar, t, x2_inv = entry
            else:
                xbar = x2 if x1 is ones else tuple(map(r.mul, x1, x2))
                t = self.twist(x1, x2)
                x2_inv = None
            if t is not one:
                z = r.mul(z, t)
            if s1:
                if x2_inv is None:
                    x2_inv = tuple(v if v is one else r.inv(v) for v in x2)
                c1 = self._conjugate(c1, s1, x2, x2_inv)
            self._torus = (x1, x2, xbar, t, x2_inv)
        if s1 and s2:
            # (I + U1)(I + U2) = I + U1 + U2 + U1 U2
            return DeformedElem(xbar, z, *self._product(list(c1), c1, s1, c2, s2), self._keys)
        return DeformedElem(xbar, z, c1 if s1 else c2, s1 or s2, self._keys)

    def inverse(self, g: DeformedElem) -> DeformedElem:
        r, one = self.ring, self.ring.one
        z, xbar_inv, cells, support = g._z, g._xbar, g._cells, g._support
        if support:
            # (I + U)^-1 = I + V with V = -U - U V; row i of V reads the rows
            # below it only, so the support is walked backwards
            minus = [v if v is r.zero else r.neg(v) for v in cells]
            out = list(minus)
            cells, support = self._product(out, minus, reversed(support), out, ())
        if xbar_inv is not self._ones:
            xbar_inv = tuple(v if v is one else r.inv(v) for v in g._xbar)
            t = self.twist(g._xbar, xbar_inv)
            if t is not one:
                z = r.mul(z, t)
            if support:
                cells = self._conjugate(cells, support, xbar_inv, g._xbar)
        if z is not one:
            z = r.inv(z)
        return DeformedElem(xbar_inv, z, cells, support, self._keys)

    def power(self, g: DeformedElem, k: int) -> DeformedElem:
        """g^k by square-and-multiply."""
        return power_by_squaring(self.op, self.identity, self.inverse, g, k)

    # -- size and enumeration -------------------------------------------------

    def _elements(self) -> Iterator[DeformedElem]:
        r = self.ring
        units, ring_elems = list(r.units()), list(r.elements())
        for xbar in itertools.product(units, repeat=self.n - 1):
            for z in units:
                for fill in itertools.product(ring_elems, repeat=len(self._zeros)):
                    yield DeformedElem(xbar, z, *_dense(r, fill), self._keys)

    def sample(self, rng: random.Random) -> DeformedElem:
        r = self.ring
        xbar = tuple(r.random_unit(rng) for _ in range(self.n - 1))
        z = r.random_unit(rng)
        return DeformedElem(xbar, z, *_dense(r, [r.random_elem(rng) for _ in self._zeros]), self._keys)

    def generating_set(self) -> list[DeformedElem]:
        """The shared generators, then diag(u) for the same units u."""
        return super().generating_set() + [self.central(u) for u in self.ring.unit_group().generators()]

    # -- serialisation ---------------------------------------------------------

    def elem_to_json(self, g: DeformedElem):
        return {
            "xbar": [self.ring.elem_to_json(v) for v in g._xbar],
            "z": self.ring.elem_to_json(g._z),
            "upper": {f"{i},{j}": self.ring.elem_to_json(v) for (i, j), v in g.upper},
        }

    def _elem_from_json(self, data, path: str) -> DeformedElem:
        """The element document {"xbar", "z", "upper"?} at path; ParseError
        naming the path of a missing or malformed field, such as xbar[0],
        InvalidParameter naming an xbar of another length or an upper key off
        the strict upper triangle, and NotAUnit naming a torus or central
        coordinate that is not a unit."""
        upper = []
        at = _at(path, "upper")
        for key, v in _field(data, "upper", path, dict, {}).items():
            try:
                i, j = (int(part) for part in key.split(","))
            except ValueError:
                raise ParseError(f"field {_at(at, key)!r}: key must be 'i,j'") from None
            if not 1 <= i < j <= self.n:
                raise InvalidParameter(f"field {_at(at, key)!r}: key must have 1 <= i < j <= {self.n}")
            upper.append(((i, j), _elem(self.ring, v, _at(at, key))))
        at = _at(path, "xbar")
        raw = _field(data, "xbar", path, list)
        if len(raw) != self.n - 1:
            raise InvalidParameter(f"field {at!r} must have {self.n - 1} coordinates, got {len(raw)}")
        xbar = [self._unit_at(v, f"{at}[{k}]") for k, v in enumerate(raw)]
        return self.element(xbar, self._unit_at(_field(data, "z", path, object), _at(path, "z")), upper)

    def __repr__(self):
        kind = "untwisted" if self.is_untwisted else "twisted"
        return f"DeformedGroup({self.ring.spec!r}, n={self.n}, {kind})"


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
    if ring.is_finite and ring.unit_count() <= 8:
        return ring.units()
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
    # the commutator families read t_ij(scalars[p])^-1, p < 4, as t_inv[i, j][p]
    t_inv = {key: [group.inverse(x) for x in row[:4]] for key, row in t.items()}

    additivity = (
        ((i, j, beta, gamma), group.op(t[i, j][b], t[i, j][c]), group.transvection(i, j, ring.add(beta, gamma)))
        for (i, j), (b, beta), (c, gamma) in product(pairs, indexed, indexed)
    )
    commutator = lambda a, a_inv, b, b_inv: group.op(group.op(a_inv, b_inv), group.op(a, b))
    disjoint = (
        ((i, j, k, l, beta, gamma), commutator(t[i, j][b], t_inv[i, j][b], t[k, l][c], t_inv[k, l][c]), group.identity)
        for (i, j), (k, l) in product(pairs, repeat=2)
        if j != k and l != i
        for (b, beta), (c, gamma) in product(head, repeat=2)
    )
    overlap = (
        (
            (i, j, l, beta, gamma),
            commutator(t[i, j][b], t_inv[i, j][b], t[j, l][c], t_inv[j, l][c]),
            group.transvection(i, l, ring.mul(beta, gamma)),
        )
        for i, j, l in itertools.combinations(range(1, n + 1), 3)
        for (b, beta), (c, gamma) in product(head, repeat=2)
    )

    # d_k(a) is built once per (k, a) and shared by the diagonal families;
    # the pool's d_k(units[p]) is read by position, as d_pool[k][p], so only
    # the products a1 a2 are looked up by value
    d = functools.cache(group.diagonal_gen)
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
        r, z = self.group.ring, g._z
        for psi, x in zip(self.witnesses, g._xbar):
            z = r.mul(z, r.inv(psi(x)) if invert else psi(x))
        return DeformedElem(g._xbar, z, g._cells, g._support, g._keys)

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
        psi = f.psi if hasattr(f, "psi") else is_coboundary(f)
        if psi is None:
            return None
        witnesses.append(psi)
    return SplitIso(group, tuple(witnesses))
