"""Finitely generated abelian groups in invariant-factor form.

An FgAbelian is Z/d1 x ... x Z/dk x Z^r with d1 | d2 | ... | dk; elements are
exponent tuples with torsion coordinates reduced to [0, di).  Homomorphisms
are integer matrices acting on those coordinates, with well-definedness
checked against the torsion relations.  Ext groups of such pairs are
assembled from the cyclic building blocks and renormalised through the Smith
form, and purity of an embedded subgroup is decided by exact integer kernel
computations rather than enumeration so it also covers infinite groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidParameter, NotBijective, ParseError
from . import snf


def power_by_squaring(op, identity, inverse, x, k: int):
    """x^k under the associative op, by square-and-multiply: inverse(x)
    once when k < 0, then one product per bit of |k| below its top bit and
    one per set bit."""
    if k < 0:
        x, k = inverse(x), -k
    acc = identity
    while k:
        if k & 1:
            acc = op(acc, x)
        k >>= 1
        if k:
            x = op(x, x)
    return acc


class AbelianCarrier:
    """An abelian group that a cocycle can live on: the carrier protocol.

    A carrier provides identity, op, inverse, power, contains, sample,
    is_finite, order and elements; its cyclic decomposition through
    torsion_factors, torsion_factor_generator, free_generator, decompose,
    torsion_exponents and compose; the JSON forms to_json, elem_to_json and
    elem_from_json, format_elem for text; and value equality.  Roots and
    element orders follow from the decomposition alone, once for every
    carrier, here.
    """

    def nth_root(self, x, n: int):
        """Some y with y^n = x, the least torsion exponents canonical, or None."""
        if n <= 0:
            raise InvalidParameter(f"root index must be positive, got {n}")
        torsion, free = self.decompose(x)
        root_free = {}
        for key, e in free.items():
            if e % n:
                return None
            root_free[key] = e // n
        root_torsion = []
        for t, m in zip(torsion, self.torsion_factors):
            g = math.gcd(n, m)
            if t % g:
                return None
            # the least s with n*s = t (mod m)
            root_torsion.append((t // g) * pow(n // g, -1, m // g) % (m // g))
        return self.compose(root_torsion, root_free)

    def element_order(self, x) -> int | None:
        """Order of x, or None when infinite."""
        torsion, free = self.decompose(x)
        if free:
            return None
        return math.lcm(*(d // math.gcd(t, d) for t, d in zip(torsion, self.torsion_factors)))


class FgAbelian(AbelianCarrier):
    """Z/d1 x ... x Z/dk x Z^r with the di forming a divisibility chain."""

    def __init__(self, invariant_factors=(), free_rank: int = 0):
        factors = tuple(int(d) for d in invariant_factors)
        if any(d < 2 for d in factors):
            raise InvalidParameter(f"invariant factors must be >= 2, got {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise InvalidParameter(f"invariant factors must form a chain, got {factors}")
        if free_rank < 0:
            raise InvalidParameter(f"free rank must be nonnegative, got {free_rank}")
        self.invariant_factors = factors
        self.free_rank = int(free_rank)
        self.k = len(factors)
        self.n = self.k + self.free_rank

    @classmethod
    def from_cyclic_orders(cls, orders, free_rank: int = 0) -> "FgAbelian":
        """Canonicalise an arbitrary product of cyclic groups."""
        orders = [int(d) for d in orders if int(d) != 1]
        if any(d < 1 for d in orders):
            raise InvalidParameter(f"cyclic orders must be positive, got {orders}")
        if not orders:
            return cls((), free_rank)
        diag = [[orders[i] if i == j else 0 for j in range(len(orders))] for i in range(len(orders))]
        return cls(snf.invariant_factors(diag), free_rank)

    # -- carrier interface -------------------------------------------------
    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.n

    def reduce(self, vec) -> tuple[int, ...]:
        if len(vec) != self.n:
            raise InvalidParameter(f"expected {self.n} coordinates, got {len(vec)}")
        torsion = [v % d for v, d in zip(vec, self.invariant_factors)]
        if not self.free_rank:
            return tuple(torsion)
        return tuple(torsion + [int(v) for v in vec[self.k :]])

    def op(self, x, y) -> tuple[int, ...]:
        if len(x) != self.n or len(y) != self.n:
            raise InvalidParameter(f"expected {self.n} coordinates, got {len(x)} and {len(y)}")
        if not self.free_rank:
            return tuple([(a + b) % d for a, b, d in zip(x, y, self.invariant_factors)])
        return self.reduce([a + b for a, b in zip(x, y)])

    def inverse(self, x) -> tuple[int, ...]:
        return self.reduce([-a for a in x])

    def power(self, x, k: int) -> tuple[int, ...]:
        return self.reduce([k * a for a in x])

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.n
            and all(isinstance(a, int) for a in x)
            and self.reduce(x) == x
        )

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return self.invariant_factors

    def torsion_factor_generator(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.k:
            raise InvalidParameter(f"no torsion factor {idx}")
        return tuple(1 if i == idx else 0 for i in range(self.n))

    def free_generator(self, key: int) -> tuple[int, ...]:
        if not 0 <= key < self.free_rank:
            raise InvalidParameter(f"no free factor {key}")
        return tuple(1 if i == self.k + key else 0 for i in range(self.n))

    def decompose(self, x) -> tuple[tuple[int, ...], dict]:
        x = self.reduce(x)
        if not self.free_rank:
            return (x, {})
        return (x[: self.k], {i: e for i, e in enumerate(x[self.k :]) if e})

    def torsion_exponents(self, x) -> tuple[int, ...]:
        """decompose(x)[0] alone."""
        x = self.reduce(x)
        return x[: self.k] if self.free_rank else x

    def compose(self, torsion_exps, free_exps) -> tuple[int, ...]:
        vec = list(torsion_exps) + [0] * (self.k - len(torsion_exps)) + [0] * self.free_rank
        for key, e in free_exps.items():
            vec[self.k + key] = e
        return self.reduce(vec)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise InvalidParameter("group is infinite")
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def elements(self) -> Iterator[tuple[int, ...]]:
        if not self.is_finite:
            raise InvalidParameter("group is infinite")
        for combo in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield combo

    def generators(self) -> list[tuple[int, ...]]:
        return [self.torsion_factor_generator(i) for i in range(self.k)] + [
            self.free_generator(j) for j in range(self.free_rank)
        ]

    def relation_columns(self) -> list[list[int]]:
        """Columns spanning the relation lattice (di * ei for torsion factors)."""
        cols = []
        for i, d in enumerate(self.invariant_factors):
            col = [0] * self.n
            col[i] = d
            cols.append(col)
        return cols

    def sample(self, rng) -> tuple[int, ...]:
        vec = [rng.randrange(d) for d in self.invariant_factors]
        vec += [rng.randint(-6, 6) for _ in range(self.free_rank)]
        return self.reduce(vec)

    def to_json(self):
        return {"type": "fg", "invariant_factors": list(self.invariant_factors), "free_rank": self.free_rank}

    def elem_to_json(self, x):
        return list(x)

    def elem_from_json(self, data) -> tuple[int, ...]:
        """The list of integer coordinates data, reduced."""
        if not (isinstance(data, list) and all(type(v) is int for v in data)):
            raise ParseError(f"an element of {self!r} is a list of integers, got {data!r}")
        return self.reduce(data)

    def format_elem(self, x) -> str:
        return str(list(x))

    def __eq__(self, other):
        return (
            isinstance(other, FgAbelian)
            and self.invariant_factors == other.invariant_factors
            and self.free_rank == other.free_rank
        )

    def __hash__(self):
        return hash((self.invariant_factors, self.free_rank))

    def __repr__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "1"


class AbHom:
    """Homomorphism between FgAbelian groups, as an integer matrix on coordinates.

    Columns are images of the domain generators.  Construction checks the
    torsion relations: d_j times column j must vanish in the codomain.
    """

    def __init__(self, domain: FgAbelian, codomain: FgAbelian, matrix):
        self.domain = domain
        self.codomain = codomain
        self.matrix = [list(map(int, row)) for row in matrix]
        if len(self.matrix) != codomain.n or any(len(row) != domain.n for row in self.matrix):
            raise InvalidParameter(
                f"matrix must be {codomain.n}x{domain.n}, got "
                f"{len(self.matrix)}x{len(self.matrix[0]) if self.matrix else 0}"
            )
        for j, d in enumerate(domain.invariant_factors):
            for i in range(codomain.n):
                val = d * self.matrix[i][j]
                if i < codomain.k:
                    if val % codomain.invariant_factors[i]:
                        raise InvalidParameter(
                            f"column {j} violates the order-{d} relation at codomain row {i}"
                        )
                elif val:
                    raise InvalidParameter(
                        f"column {j} maps a torsion generator into the free part"
                    )

    @classmethod
    def identity(cls, group: FgAbelian) -> "AbHom":
        return cls(group, group, snf.identity_matrix(group.n))

    def apply(self, x) -> tuple[int, ...]:
        x = self.domain.reduce(x)
        return self.codomain.reduce(snf.mat_vec(self.matrix, list(x)))

    def compose(self, inner: "AbHom") -> "AbHom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise InvalidParameter("homomorphisms do not compose")
        return AbHom(inner.domain, self.codomain, snf.mat_mul(self.matrix, inner.matrix))

    def _smith_form(self):
        """(U, V, onto): U A V = D is the Smith form of the augmented matrix
        A = [matrix | codomain relations], and onto says whether D starts
        with codomain.n ones, that is whether self is surjective."""
        aug = [row[:] for row in self.matrix]
        for col in self.codomain.relation_columns():
            for i in range(self.codomain.n):
                aug[i].append(col[i])
        u, d, v = snf.smith_normal_form(aug)
        diag = snf.diagonal_of(d)
        return u, v, len(diag) >= self.codomain.n and all(x == 1 for x in diag[: self.codomain.n])

    def is_surjective(self) -> bool:
        return self._smith_form()[2]

    def is_bijective(self) -> bool:
        # a surjection between groups with identical invariants is bijective
        # (finitely generated abelian groups are Hopfian)
        return self.domain == self.codomain and self.is_surjective()

    def inverse(self) -> "AbHom":
        """The inverse, read off one Smith form: when self is bijective D
        starts with the n x n identity (n = codomain.n), so A V[:, :n] U = I
        and the first domain.n rows of V[:, :n] U send each codomain
        generator to its preimage."""
        u, v, onto = self._smith_form()
        if not (onto and self.domain == self.codomain):
            raise NotBijective("homomorphism is not an isomorphism")
        n = self.codomain.n
        return AbHom(self.codomain, self.domain, snf.mat_mul([row[:n] for row in v[: self.domain.n]], u))

    def kernel_is_trivial(self) -> bool:
        gens = _preimage_subgroup_generators(self, 0)
        return all(self.domain.reduce(g) == self.domain.identity for g in gens)

    def __repr__(self):
        return f"AbHom({self.domain!r} -> {self.codomain!r})"


def ext_group(b: FgAbelian, a: FgAbelian) -> FgAbelian:
    """Ext(B, A) assembled from the cyclic factor pairs.

    Ext(Z/m, Z/n) = Z/gcd(m, n); Ext(Z/m, Z) = Z/m; Ext(Z, -) = 0.  The
    resulting product is renormalised to invariant-factor form.
    """
    orders = []
    for m in b.invariant_factors:
        for n in a.invariant_factors:
            orders.append(math.gcd(m, n))
        orders.extend([m] * a.free_rank)
    return FgAbelian.from_cyclic_orders(orders)


def _preimage_subgroup_generators(hom: AbHom, n: int) -> list[tuple[int, ...]]:
    """Generators of {a in A : hom(a) lies in n*B} as a subgroup of A.

    Solves hom(a) = n*b modulo the codomain relations by an integer kernel
    computation over the stacked variables (a, b, relation multipliers).
    """
    a_grp, b_grp = hom.domain, hom.codomain
    rel_cols = b_grp.relation_columns()
    width = a_grp.n + b_grp.n + len(rel_cols)
    system = []
    for i in range(b_grp.n):
        row = [hom.matrix[i][j] for j in range(a_grp.n)]
        row += [-n if i == t else 0 for t in range(b_grp.n)]
        row += [-col[i] for col in rel_cols]
        system.append(row)
    if not system:
        return list(a_grp.generators())
    basis = snf.kernel_basis(system)
    if any(len(v) != width for v in basis):
        raise RuntimeError(f"kernel basis vectors must have {width} coordinates")
    return [a_grp.reduce(v[: a_grp.n]) for v in basis]


def is_pure_subgroup(embedding: AbHom, bound: int) -> bool:
    """Decide nA = nB intersect A for all 1 <= n <= bound.

    The embedding presents A as a subgroup of B.  For each n the preimage of
    n*B under the embedding is computed exactly; purity at n means every
    generator of that preimage already lies in n*A.
    """
    if bound < 1:
        raise InvalidParameter(f"bound must be positive, got {bound}")
    if not embedding.kernel_is_trivial():
        raise InvalidParameter("the homomorphism is not injective, so not an embedding")
    for n in range(1, bound + 1):
        for gen in _preimage_subgroup_generators(embedding, n):
            if embedding.domain.nth_root(gen, n) is None:
                return False
    return True
