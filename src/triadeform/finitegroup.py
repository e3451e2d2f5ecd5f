"""Generic finite group engine over int-indexed elements.

Wraps any concrete group (matrix, deformed, extension, abelian carrier)
behind integer indices so closure, conjugacy and series computations run on
ints.  Small groups get a full multiplication table; larger ones fall back
to a memoised product map, which keeps groups of a few thousand elements
workable without a quadratic table build.

A subgroup is a set of indices of its parent, never a group of its own:
the lower central series and nilpotency of a subgroup, and normal closures
inside it, run on the parent's table or memo, so they multiply no elements
once the table is built.  The commutator set and the products of at most m
commutators (commutator width) live here too, memoised per group.
"""

from __future__ import annotations

from .errors import InvalidParameter, TooLarge

TABLE_LIMIT = 600
SIZE_LIMIT = 20_000


class FiniteGroup:
    def __init__(self, elements, op, identity, inverse=None, generators=None):
        self._elems = list(elements)
        if len(self._elems) > SIZE_LIMIT:
            raise TooLarge(f"group of order {len(self._elems)} exceeds {SIZE_LIMIT}")
        self._index = {}
        for i, el in enumerate(self._elems):
            if el in self._index:
                raise InvalidParameter("duplicate element in group listing")
            self._index[el] = i
        if identity not in self._index:
            raise InvalidParameter("identity is not among the elements")
        self.order = len(self._elems)
        self.identity_index = self._index[identity]
        self._op = op
        self._inv = inverse
        self._table: list[list[int]] | None = None
        self._memo: dict[tuple[int, int], int] = {}
        self._inv_memo: dict[int, int] = {}
        self._class_memo: dict[int, frozenset[int]] = {}
        self._comms: frozenset[int] | None = None
        self._width_memo: dict[int, frozenset[int]] = {}
        self._gens = None if generators is None else [self.index(g) for g in generators]
        if self.order <= TABLE_LIMIT:
            self._table = [
                [self._index[op(a, b)] for b in self._elems] for a in self._elems
            ]

    # -- raw access -----------------------------------------------------------

    def elem(self, i: int):
        return self._elems[i]

    def index(self, el) -> int:
        try:
            return self._index[el]
        except KeyError:
            raise InvalidParameter(f"{el!r} is not an element of this group") from None

    @property
    def all_indices(self) -> range:
        return range(self.order)

    # -- arithmetic on indices --------------------------------------------------

    def op_idx(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        key = (i, j)
        out = self._memo.get(key)
        if out is None:
            out = self._index[self._op(self._elems[i], self._elems[j])]
            self._memo[key] = out
        return out

    def inv_idx(self, i: int) -> int:
        out = self._inv_memo.get(i)
        if out is not None:
            return out
        if self._inv is not None:
            out = self._index[self._inv(self._elems[i])]
        elif self._table is not None:
            out = self._table[i].index(self.identity_index)
        elif i == self.identity_index:
            out = i
        else:
            prev, acc = i, self.op_idx(i, i)
            while acc != self.identity_index:
                prev, acc = acc, self.op_idx(acc, i)
            out = prev
        self._inv_memo[i] = out
        return out

    def conj_idx(self, i: int, by: int) -> int:
        return self.op_idx(self.op_idx(self.inv_idx(by), i), by)

    def comm_idx(self, a: int, b: int) -> int:
        return self.op_idx(self.op_idx(self.inv_idx(a), self.inv_idx(b)), self.op_idx(a, b))

    # -- generators -------------------------------------------------------------

    @property
    def generator_indices(self) -> list[int]:
        """The generators supplied at construction, else greedy ones."""
        if self._gens is None:
            self._gens = self.subgroup_generators(self.all_indices)
        return self._gens

    def subgroup_generators(self, subset) -> list[int]:
        """Generators of the subgroup `subset`: scan it in index order and
        keep each element that the ones kept so far do not generate."""
        gens: list[int] = []
        known = frozenset({self.identity_index})
        for i in sorted(subset):
            if i not in known:
                gens.append(i)
                known = self.subgroup_closure(gens)
                if len(known) == len(subset):
                    break
        return gens

    # -- subgroup machinery -------------------------------------------------------

    def subgroup_closure(self, seed) -> frozenset[int]:
        """Indices of the subgroup generated by the seed indices."""
        seed = [s for s in seed]
        closed = {self.identity_index}
        frontier = []
        gens = []
        for s in seed:
            gens.append(s)
            gens.append(self.inv_idx(s))
        for g in gens:
            if g not in closed:
                closed.add(g)
                frontier.append(g)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.op_idx(x, g)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return frozenset(closed)

    def is_normal(self, subset) -> bool:
        subset = frozenset(subset)
        return all(
            self.conj_idx(x, g) in subset
            for x in subset
            for g in self.generator_indices
        )

    def normal_closure(self, seed, by=None) -> frozenset[int]:
        """Smallest subgroup containing the seed indices and normalised by
        the indices `by` (default: the group's generators)."""
        by = self.generator_indices if by is None else by
        working = list(dict.fromkeys(seed))
        while True:
            current = self.subgroup_closure(working)
            extra = []
            for w in working:
                for g in by:
                    c = self.conj_idx(w, g)
                    if c not in current:
                        extra.append(c)
            if not extra:
                return current
            working.extend(dict.fromkeys(extra))

    def center(self) -> frozenset[int]:
        gens = self.generator_indices
        return frozenset(
            x for x in self.all_indices if all(self.op_idx(x, g) == self.op_idx(g, x) for g in gens)
        )

    def derived_subgroup(self) -> frozenset[int]:
        seeds = [
            self.comm_idx(a, b)
            for a in self.generator_indices
            for b in self.generator_indices
        ]
        return self.normal_closure(seeds)

    def lower_central_series(self, subgroup=None) -> list[frozenset[int]]:
        """gamma_1 = H, gamma_{m+1} = <[gamma_m, H]>; stops when stable.

        H is the subgroup with the given indices, or the whole group."""
        if subgroup is None:
            series = [frozenset(self.all_indices)]
            gens = self.generator_indices
        else:
            series = [frozenset(subgroup)]
            gens = self.subgroup_generators(subgroup)
        trivial = frozenset({self.identity_index})
        gens_of_term = gens
        while True:
            seeds = [self.comm_idx(x, g) for x in gens_of_term for g in gens]
            nxt = self.normal_closure(seeds, by=gens) if seeds else trivial
            if nxt == series[-1]:
                return series
            series.append(nxt)
            if nxt == trivial:
                return series
            gens_of_term = self.subgroup_generators(nxt)

    def is_nilpotent(self, subgroup=None) -> tuple[bool, int | None]:
        """(True, class) when the series of the subgroup (default: the whole
        group) hits 1, else (False, None)."""
        series = self.lower_central_series(subgroup)
        if series[-1] == frozenset({self.identity_index}):
            return True, len(series) - 1
        return False, None

    # -- commutator width ------------------------------------------------------

    def commutator_set(self) -> frozenset[int]:
        """All commutators [a, b] = a^-1 a^b.  The set is a union of
        conjugacy classes ([a, b]^g = [a^g, b^g]), so it is the union of the
        classes of a^-1 c over a class representative a and c in Cl(a):
        O(|G| |gens|) products instead of |G|^2."""
        if self._comms is None:
            comms: set[int] = set()
            covered: set[int] = set()
            for a in self.all_indices:
                if a in covered:
                    continue
                cls = self.conjugacy_class(a)
                covered |= cls
                inv_a = self.inv_idx(a)
                for c in cls:
                    d = self.op_idx(inv_a, c)
                    if d not in comms:
                        comms |= self.conjugacy_class(d)
            self._comms = frozenset(comms)
        return self._comms

    def width_products(self, m: int) -> frozenset[int]:
        """Products of at most m commutators."""
        out = self._width_memo.get(m)
        if out is None:
            if m == 0:
                out = frozenset({self.identity_index})
            else:
                prev = self.width_products(m - 1)
                comms = self.commutator_set()
                out = prev | {self.op_idx(r, c) for r in prev for c in comms}
            self._width_memo[m] = out
        return out

    # -- conjugacy ---------------------------------------------------------------

    def conjugacy_class(self, i: int) -> frozenset[int]:
        cached = self._class_memo.get(i)
        if cached is not None:
            return cached
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for g in self.generator_indices:
                y = self.conj_idx(x, g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        out = frozenset(orbit)
        for x in out:
            self._class_memo[x] = out
        return out


def from_group(group, generators=None) -> FiniteGroup:
    """Index any object with elements()/op/inverse/identity as a FiniteGroup."""
    if generators is None and hasattr(group, "generating_set"):
        generators = group.generating_set()
    return FiniteGroup(
        group.elements(),
        group.op,
        group.identity,
        inverse=group.inverse,
        generators=generators,
    )
