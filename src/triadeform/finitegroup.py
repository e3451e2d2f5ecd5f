"""Generic finite group engine over int-indexed elements.

Wraps any concrete group (matrix, deformed, extension, abelian carrier)
behind integer indices so closure, conjugacy and series computations run on
ints.  Each product is computed when first asked for and kept in one memo
keyed by i * order + j: the structure questions read a few per cent of
the |G|^2 products, so no table is built.

A subgroup is a set of indices of its parent, never a group of its own:
the lower central series and nilpotency of a subgroup, and normal closures
inside it, share the parent's memo.  Subgroups grow by adjoining one
generator at a time, in the manner of Dimino's algorithm, multiplying only
the new elements.  A normal closure conjugates only the elements it
adjoined, at most log2 of its order, not every element it has collected.
The commutator set and the products of at most m commutators (commutator
width) live here too, memoised per group.

The center ends a centralizer chain G >= C(g_1) >= C_{C(g_1)}(g_2) >= ...
over the generators, each link the stabilizer of g_i under conjugation,
closed from Schreier generators up to its order |H| / |orbit|.  No
structure question builds the whole table: the T_3(Z/6) center, on the
paper's five generators, takes 797 products of 1728^2.
"""

from __future__ import annotations

from .errors import InvalidParameter, TooLarge

SIZE_LIMIT = 20_000


class FiniteGroup:
    def __init__(self, elements, op, identity, inverse, generators=None):
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
        self._memo: dict[int, int] = {}
        self._inv_memo: dict[int, int] = {}
        self._class_memo: dict[int, frozenset[int]] = {}
        self._comms: frozenset[int] | None = None
        self._width_memo: dict[int, frozenset[int]] = {}
        self._gens = None if generators is None else [self.index(g) for g in generators]

    # -- raw access -----------------------------------------------------------

    def elem(self, i: int):
        return self._elems[i]

    def indices_where(self, pred) -> frozenset[int]:
        """The indices of the elements x with pred(x)."""
        return frozenset([i for i, x in enumerate(self._elems) if pred(x)])

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
        key = i * self.order + j
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._index[self._op(self._elems[i], self._elems[j])]
        return out

    def inv_idx(self, i: int) -> int:
        out = self._inv_memo.get(i)
        if out is None:
            out = self._inv_memo[i] = self._index[self._inv(self._elems[i])]
        return out

    def memo_getters(self) -> tuple:
        """(product, inverse): the get of the product memo, keyed
        i * order + j, and of the inverse memo, keyed i.  None is a miss,
        for op_idx or inv_idx to compute and keep."""
        return self._memo.get, self._inv_memo.get

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
        closed, gens = {self.identity_index}, []
        for i in sorted(subset):
            if self._adjoin(closed, gens, i) and len(closed) == len(subset):
                break
        return gens

    # -- subgroup machinery -------------------------------------------------------

    def _adjoin(self, closed: set[int], gens: list[int], s: int) -> bool:
        """Grow the subgroup `closed` = H, generated by `gens`, to K = <H, s>
        in place; False, changing nothing, when s lies in H.  A search from
        s alone, multiplying each new element by every generator, finds
        all of K but H; no inverses are needed, and H is never multiplied.

        Proof sketch: what the search reaches is a union of cosets xH, and
        on K/H it is closed under the arcs xH -> xhsH (h in H) of the
        orbital digraph of HsH, once the vertex H is removed.  That digraph
        is strongly connected and vertex-transitive, so by Hamidoune's atom
        lemma (C. R. Acad. Sci. Paris 284, 1977) the one vertex H separates
        it only when its out-degree is 1: a directed cycle H, sH, s^2 H, ...,
        where the path from sH meets every other coset."""
        if s in closed:
            return False
        gens.append(s)
        op = self.op_idx
        closed.add(s)
        frontier = [s]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = op(x, g)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return True

    def subgroup_closure(self, seed) -> frozenset[int]:
        """Indices of the subgroup generated by the seed indices."""
        closed, gens = {self.identity_index}, []
        for s in seed:
            self._adjoin(closed, gens, s)
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
        the indices `by` (default: the group's generators).  A candidate
        outside the subgroup is adjoined and its conjugates queued, so only
        the adjoined generators, at most log2 of the order, are conjugated."""
        by = self.generator_indices if by is None else by
        closed, gens = {self.identity_index}, []
        queue = list(seed)
        while queue:
            s = queue.pop()
            if self._adjoin(closed, gens, s):
                queue.extend(self.conj_idx(s, g) for g in by)
        return frozenset(closed)

    def center(self) -> frozenset[int]:
        """Z(G) by a centralizer chain: starting from H = G, replace H by
        C_H(g) for each generator g in turn; the last H is Z(G).

        Proof sketch: Z(G) is the intersection of the C(g) over the
        generators, and C_H(g) is the stabilizer of g when H acts by
        conjugation.  With t_p taking g to each point p of its orbit, the
        stabilizer is generated by the Schreier generators t_p h t_q^-1,
        q = p^h, over the generators h of H, and has order |H| / |orbit|,
        so the closure stops at that order; an orbit of one point leaves H
        as it is (Holt, Eick and O'Brien, Handbook of Computational Group
        Theory, 2005, 4.1 and 4.6)."""
        e, op, conj = self.identity_index, self.op_idx, self.conj_idx
        gens, size, closed = self.generator_indices, self.order, self.all_indices
        for g in self.generator_indices:
            t, orbit = {g: e}, [g]
            for p in orbit:
                for h in gens:
                    q = conj(p, h)
                    if q not in t:
                        t[q] = op(t[p], h)
                        orbit.append(q)
            if len(orbit) == 1:
                continue
            size //= len(orbit)
            closed, kept = {e}, []
            for p, h in ((p, h) for p in orbit for h in gens):
                if len(closed) == size:
                    break
                y, tq = op(t[p], h), t[conj(p, h)]
                if y != tq:  # t_p h t_q^-1, trivial on the tree edges
                    self._adjoin(closed, kept, op(y, self.inv_idx(tq)))
            gens = kept
        return frozenset(closed)

    def derived_subgroup(self) -> frozenset[int]:
        # [b, a] = [a, b]^-1 and [a, a] = 1: one seed per unordered pair
        gens = self.generator_indices
        return self.normal_closure([self.comm_idx(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]])

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
        op = self.op_idx
        pairs = [(self.inv_idx(g), g) for g in self.generator_indices]
        orbit, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for g_inv, g in pairs:
                y = op(op(g_inv, x), g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        out = frozenset(orbit)
        for x in out:
            self._class_memo[x] = out
        return out


def from_group(group) -> FiniteGroup:
    """Index a group with elements()/op/inverse/identity/generating_set(),
    such as a finite triangular group, as a FiniteGroup."""
    return FiniteGroup(
        list(group.elements()),  # listed first, so the size bound fires before generators are sought
        group.op,
        group.identity,
        inverse=group.inverse,
        generators=group.generating_set(),
    )
