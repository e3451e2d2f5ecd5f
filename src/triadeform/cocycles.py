"""Symmetric 2-cocycles on abelian groups and the extensions they build.

A cocycle f: B x B -> A is represented by one of several backends (carry
tables on cyclic factors, explicit function tables, coboundaries of a map
psi, pointwise products, transports); check_cocycle alone decides whether
an input is one.  The central decision procedure, is_coboundary, works per
cyclic factor of B: the A-part of (g, 1)^m in the extension E(f) is the
obstruction attached to a torsion factor of order m, and f splits iff every
obstruction is an m-th power in A.  Free factors never obstruct.  The
witness returned is a genuine section-based splitting map, so the coboundary
identity holds exactly, not just up to cohomology.

Carriers for B and A follow the protocol of abgroups.AbelianCarrier: group
operations, the cyclic decomposition, element formats and value equality.
FgAbelian and the unit groups R^x (including the lazily factored Q^x)
implement it, so nothing here asks which carrier it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from .abgroups import AbHom, FgAbelian, power_by_squaring
from .errors import DomainMismatch, InvalidParameter, NotBijective, ParseError, TooLarge, UnsupportedCodomain
from .rings import parse_ring

# The largest |B| that a FunctionTable holds, that a transported cocycle
# writes as a table document, and up to which check_cocycle reads every
# element and pair of B (at most 65,536 reads, the size of such a table).
TABLE_LIMIT = 256


# ---------------------------------------------------------------------------
# extension arithmetic helpers (elements of E(f) are (b, a) pairs)


def ext_identity(f: "SymCocycle2"):
    return (f.domain.identity, f.codomain.identity)


def ext_mul(f: "SymCocycle2", x, y):
    b = f.domain.op(x[0], y[0])
    a = f.codomain.op(f.codomain.op(x[1], y[1]), f(x[0], y[0]))
    return (b, a)


def ext_inv(f: "SymCocycle2", x):
    b_inv = f.domain.inverse(x[0])
    a = f.codomain.inverse(f.codomain.op(x[1], f(x[0], b_inv)))
    return (b_inv, a)


def ext_pow(f: "SymCocycle2", x, k: int):
    """x^k in E(f), by square-and-multiply.

    Regrouping the product into squares relies on E(f) being associative,
    which holds exactly when f satisfies the cocycle identity: f must be a
    cocycle, which build_extension checks and this helper does not.
    """
    return power_by_squaring(partial(ext_mul, f), ext_identity(f), partial(ext_inv, f), x, k)


# ---------------------------------------------------------------------------
# psi maps (arbitrary normalised functions B -> A, not homomorphisms)


class PsiMap:
    """Function psi: B -> A with psi(1) = 1; used as coboundary data.
    inverse() is b -> psi(b)^-1, as a map of the same kind.  is_total says
    whether psi is defined on every element of B with values in A; the
    coboundary of such a psi is a cocycle by construction."""

    domain: Any
    codomain: Any

    def __call__(self, b):
        raise NotImplementedError

    @property
    def is_total(self) -> bool:
        return False

    def inverse(self) -> "PsiMap":
        raise NotImplementedError

    def to_json(self):
        raise InvalidParameter(f"{type(self).__name__} has no document form")


class DictPsi(PsiMap):
    def __init__(self, domain, codomain, table: dict):
        self.domain = domain
        self.codomain = codomain
        self.table = dict(table)
        if self.table.get(domain.identity, codomain.identity) != codomain.identity:
            raise InvalidParameter("psi must send the identity to the identity")
        self.table[domain.identity] = codomain.identity

    def __call__(self, b):
        try:
            return self.table[b]
        except KeyError:
            raise InvalidParameter(f"psi table has no entry for {self.domain.format_elem(b)}") from None

    @property
    def is_total(self) -> bool:
        """A finite B with every element a key, and every value in A."""
        b_grp = self.domain
        return (
            b_grp.is_finite
            and len(self.table) >= b_grp.order()
            and all(b in self.table for b in b_grp.elements())
            and all(map(self.codomain.contains, self.table.values()))
        )

    def inverse(self) -> "DictPsi":
        inv = self.codomain.inverse
        return DictPsi(self.domain, self.codomain, {b: inv(a) for b, a in self.table.items()})

    def to_json(self):
        return {
            "type": "table",
            "entries": [
                [self.domain.elem_to_json(b), self.codomain.elem_to_json(a)] for b, a in self.table.items()
            ],
        }


class MonomialPsi(PsiMap):
    """psi(b) = prod base^e over the canonical exponents of b.

    Bases are keyed per factor; unspecified factors contribute nothing.
    """

    def __init__(self, domain, codomain, torsion_bases: dict | None = None, free_bases: dict | None = None):
        self.domain = domain
        self.codomain = codomain
        self.torsion_bases = dict(torsion_bases or {})
        self.free_bases = dict(free_bases or {})
        for idx in self.torsion_bases:
            if not 0 <= idx < len(domain.torsion_factors):
                raise InvalidParameter(f"no torsion factor {idx} to take a base on")

    def __call__(self, b):
        if self.free_bases:
            torsion, free = self.domain.decompose(b)
        else:
            torsion, free = self.domain.torsion_exponents(b), {}
        out = self.codomain.identity
        for idx, base in self.torsion_bases.items():
            e = torsion[idx]
            if e:
                out = self.codomain.op(out, self.codomain.power(base, e))
        for key, e in free.items():
            if key in self.free_bases:
                out = self.codomain.op(out, self.codomain.power(self.free_bases[key], e))
        return out

    @property
    def is_total(self) -> bool:
        """Every b has canonical exponents and psi(b) multiplies powers of the
        bases, so psi is total when the bases lie in A."""
        return all(map(self.codomain.contains, [*self.torsion_bases.values(), *self.free_bases.values()]))

    def inverse(self) -> "MonomialPsi":
        inv = self.codomain.inverse
        torsion = {idx: inv(a) for idx, a in self.torsion_bases.items()}
        return MonomialPsi(self.domain, self.codomain, torsion, {key: inv(a) for key, a in self.free_bases.items()})

    def to_json(self):
        return {
            "type": "monomial",
            "torsion_bases": {str(idx): self.codomain.elem_to_json(a) for idx, a in self.torsion_bases.items()},
            "free_bases": {str(key): self.codomain.elem_to_json(a) for key, a in self.free_bases.items()},
        }


class SplitSectionPsi(PsiMap):
    """Witness produced by is_coboundary.

    For each torsion factor <g_i> of order m_i, roots[i] is a y_i with
    y_i^{m_i} equal to the inverse of the factor obstruction, so
    (g_i, y_i) has order m_i in E(f).  The section sending b with canonical
    exponents (t, e) to prod (g_i, y_i)^{t_i} * prod (h_j, 1)^{e_j} is then a
    homomorphism B -> E(f), and psi(b) is its A-part.
    """

    def __init__(self, cocycle: "SymCocycle2", roots: dict[int, Any]):
        self.cocycle = cocycle
        self.domain = cocycle.domain
        self.codomain = cocycle.codomain
        self.roots = dict(roots)
        self._cache: dict[Any, Any] = {}

    def __call__(self, b):
        if b in self._cache:
            return self._cache[b]
        torsion, free = self.domain.decompose(b)
        acc = ext_identity(self.cocycle)
        for idx in range(len(self.domain.torsion_factors)):
            e = torsion[idx] if idx < len(torsion) else 0
            if e:
                gen = (self.domain.torsion_factor_generator(idx), self.roots[idx])
                acc = ext_mul(self.cocycle, acc, ext_pow(self.cocycle, gen, e))
        for fkey, e in free.items():
            gen = (self.domain.free_generator(fkey), self.codomain.identity)
            acc = ext_mul(self.cocycle, acc, ext_pow(self.cocycle, gen, e))
        if acc[0] != b:
            raise InvalidParameter(f"section failed to reconstruct its argument {b!r}")
        self._cache[b] = acc[1]
        return acc[1]

    @property
    def is_total(self) -> bool:
        """is_coboundary gives a root in A to every torsion factor, so each
        value is the A-part of a product in E(f) of pairs whose A-parts are
        roots and values of f: an element of A when f is a cocycle by
        construction."""
        return self.cocycle.is_cocycle_by_construction

    def inverse(self) -> "SplitSectionPsi":
        """The section of f^-1 through the inverted roots: the walk on B is
        the same in E(f^-1), and A is abelian, so each A-part is inverted."""
        inv = self.codomain.inverse
        return SplitSectionPsi(cocycle_inverse(self.cocycle), {idx: inv(y) for idx, y in self.roots.items()})


# ---------------------------------------------------------------------------
# cocycle backends


class SymCocycle2:
    """Symmetric normalised 2-cocycle B x B -> A.

    is_cocycle_by_construction says whether the backend is a symmetric
    normalised cocycle because of how it was built, so that check_cocycle
    need not verify it; every backend in this module declares it in its own
    class body.  A carry with canonical targets is a product of the standard
    factor sets of cyclic extensions; the coboundary of a total normalised
    psi is one because B and A are abelian; pointwise products of cocycles,
    and their transports along homomorphisms, are cocycles (Brown, Cohomology
    of Groups, GTM 87, IV.3).  A table comes from data and is not trusted.
    """

    domain: Any
    codomain: Any
    backend: str

    def __call__(self, x, y):
        raise NotImplementedError

    @property
    def is_cocycle_by_construction(self) -> bool:
        return False

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "backend": self.backend_json(),
        }

    def backend_json(self):
        raise NotImplementedError

    def factor_obstruction(self, idx: int):
        """A-part of (g, 1)^m in E(f) for the idx-th torsion factor <g> of order m:
        the product of f(g^i, g) for 0 < i < m."""
        b_grp, a_grp = self.domain, self.codomain
        g = b_grp.torsion_factor_generator(idx)
        c = a_grp.identity
        x = g
        for _ in range(b_grp.torsion_factors[idx] - 1):
            c = a_grp.op(c, self(x, g))
            x = b_grp.op(x, g)
        return c


class CarryCocycle(SymCocycle2):
    """Per-factor carry cocycle.

    On a torsion factor of order m with pinned generator g and target c,
    f(g^i, g^j) = c^floor((i + j) / m) with i, j canonical in [0, m), so the
    carry is 0 or 1.  Free factors never carry.  Targets are keyed by torsion
    factor index and must be elements of A, stored in A's canonical form;
    the empty target map is the trivial cocycle.  The obstruction of a
    factor is its target: f(g^i, g) carries only at i = m - 1, and only on
    that factor.
    """

    backend = "carry"

    def __init__(self, domain, codomain, targets: dict[int, Any] | None = None):
        self.domain = domain
        self.codomain = codomain
        self.targets = {}
        factors = domain.torsion_factors
        for idx, c in (targets or {}).items():
            if not 0 <= idx < len(factors):
                raise InvalidParameter(f"no torsion factor {idx} to carry into")
            if not codomain.contains(c):
                raise InvalidParameter(f"target {c!r} of torsion factor {idx} is not an element of {codomain!r}")
            c = codomain.op(codomain.identity, c)
            if c != codomain.identity:
                self.targets[idx] = c

    @classmethod
    def _trusted(cls, domain, codomain, targets: dict) -> "CarryCocycle":
        """A carry on targets keyed by torsion factor indices of B that are
        already canonical elements of A, without checking any of that;
        identity targets are dropped."""
        f = object.__new__(cls)
        f.domain = domain
        f.codomain = codomain
        one = codomain.identity
        f.targets = {idx: c for idx, c in targets.items() if c != one}
        return f

    @property
    def is_cocycle_by_construction(self) -> bool:
        return True

    def __call__(self, x, y):
        if not self.targets:
            return self.codomain.identity
        tx = self.domain.torsion_exponents(x)
        ty = self.domain.torsion_exponents(y)
        factors = self.domain.torsion_factors
        out = self.codomain.identity
        for idx, c in self.targets.items():
            if tx[idx] + ty[idx] >= factors[idx]:
                out = self.codomain.op(out, c)
        return out

    def factor_obstruction(self, idx: int):
        return self.targets.get(idx, self.codomain.identity)

    def backend_json(self):
        return {
            "type": "carry",
            "targets": {str(i): self.codomain.elem_to_json(c) for i, c in self.targets.items()},
        }


def trivial_cocycle(domain, codomain) -> CarryCocycle:
    return CarryCocycle(domain, codomain, {})


class FunctionTable(SymCocycle2):
    """Explicit table over a finite domain of order at most TABLE_LIMIT."""

    backend = "table"

    def __init__(self, domain, codomain, table: dict):
        if not domain.is_finite or domain.order() > TABLE_LIMIT:
            raise TooLarge(f"function tables require |B| <= {TABLE_LIMIT}")
        self.domain = domain
        self.codomain = codomain
        self.table = dict(table)

    @property
    def is_cocycle_by_construction(self) -> bool:
        return False

    @classmethod
    def from_callable(cls, domain, codomain, fn) -> "FunctionTable":
        elems = list(domain.elements())
        return cls(domain, codomain, {(x, y): fn(x, y) for x in elems for y in elems})

    def __call__(self, x, y):
        return self.table[(x, y)]

    def backend_json(self):
        return {
            "type": "table",
            "entries": [
                [self.domain.elem_to_json(x), self.domain.elem_to_json(y), self.codomain.elem_to_json(a)]
                for (x, y), a in self.table.items()
            ],
        }


class CoboundaryOf(SymCocycle2):
    """f(x, y) = psi(xy) * psi(x)^-1 * psi(y)^-1 for a normalised psi."""

    backend = "coboundary"

    def __init__(self, domain, codomain, psi: PsiMap):
        self.domain = domain
        self.codomain = codomain
        self.psi = psi
        if psi(domain.identity) != codomain.identity:
            raise InvalidParameter("psi must be normalised: psi(1) = 1")

    @property
    def is_cocycle_by_construction(self) -> bool:
        """When psi is a total map B -> A: a psi that lacks an entry raises
        where it meets it, so verification must meet it first."""
        psi = self.psi
        return psi.domain == self.domain and psi.codomain == self.codomain and psi.is_total

    def __call__(self, x, y):
        a = self.psi(self.domain.op(x, y))
        a = self.codomain.op(a, self.codomain.inverse(self.psi(x)))
        return self.codomain.op(a, self.codomain.inverse(self.psi(y)))

    def backend_json(self):
        return {"type": "coboundary", "psi": self.psi.to_json()}


class ProductCocycle(SymCocycle2):
    backend = "product"

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise InvalidParameter("product of no cocycles")
        self.parts = parts
        self.domain = parts[0].domain
        self.codomain = parts[0].codomain
        for p in parts[1:]:
            if p.domain != self.domain or p.codomain != self.codomain:
                raise DomainMismatch("product factors live on different groups")

    @property
    def is_cocycle_by_construction(self) -> bool:
        return all(p.is_cocycle_by_construction for p in self.parts)

    def __call__(self, x, y):
        out = self.codomain.identity
        for p in self.parts:
            out = self.codomain.op(out, p(x, y))
        return out

    def backend_json(self):
        return {"type": "product", "parts": [p.backend_json() for p in self.parts]}


class TransportedCocycle(SymCocycle2):
    """Image of a cocycle under homomorphisms of its groups.

    Convention (fixed here once and for all): given g on (B, A), psi: A -> A'
    and eta_inv: B' -> B, the transported cocycle on (B', A') is
    g'(x, y) = psi(g(eta_inv(x), eta_inv(y))).  psi and eta_inv are AbHoms,
    so homomorphisms, and g' is a cocycle by construction when g is.  eta_inv
    is applied once per element met and psi once per value of g met.
    """

    backend = "transported"

    def __init__(self, base: SymCocycle2, psi: AbHom, eta_inv: AbHom):
        if not (isinstance(psi, AbHom) and isinstance(eta_inv, AbHom)):
            raise InvalidParameter("a transport takes AbHom maps psi and eta_inv")
        if eta_inv.codomain != base.domain or psi.domain != base.codomain:
            raise DomainMismatch("isomorphisms do not match the cocycle's groups")
        self.base = base
        self.psi = psi
        self.eta_inv = eta_inv
        self.domain = eta_inv.domain
        self.codomain = psi.codomain
        self._preimage: dict = {}
        self._image: dict = {}

    def __call__(self, x, y):
        pre, image = self._preimage, self._image
        if x not in pre:
            pre[x] = self.eta_inv.apply(x)
        if y not in pre:
            pre[y] = self.eta_inv.apply(y)
        a = self.base(pre[x], pre[y])
        if a not in image:
            image[a] = self.psi.apply(a)
        return image[a]

    @property
    def is_cocycle_by_construction(self) -> bool:
        return self.base.is_cocycle_by_construction

    def backend_json(self):
        """The table document FunctionTable.from_callable writes of g'."""
        b_grp = self.domain
        if not (b_grp.is_finite and b_grp.order() <= TABLE_LIMIT):
            raise InvalidParameter(
                f"a transported cocycle has a table form only over a finite domain of at most {TABLE_LIMIT} elements"
            )
        return FunctionTable.from_callable(b_grp, self.codomain, self).backend_json()


# ---------------------------------------------------------------------------
# JSON documents


def carrier_from_json(data, path: str = ""):
    """Carrier from its JSON object; path names that object in error messages."""
    kind = _field(data, "type", path, str)
    if kind == "fg":
        factors = _int_list(_field(data, "invariant_factors", path, list), _at(path, "invariant_factors"))
        return FgAbelian(tuple(factors), _field(data, "free_rank", path, int, 0))
    if kind == "units":
        return parse_ring(_field(data, "ring", path, str)).unit_group()
    raise ParseError(f"field {_at(path, 'type')!r}: unsupported carrier type {kind!r}")


def cocycle_from_json(data, path: str = "") -> SymCocycle2:
    """Cocycle from its JSON document {"domain", "codomain", "backend"}.

    A malformed document raises ParseError naming the path of the bad field,
    such as 'backend.targets.0'; path prefixes the document's own place, for
    a document nested in another.
    """
    domain = carrier_from_json(_field(data, "domain", path, dict), _at(path, "domain"))
    codomain = carrier_from_json(_field(data, "codomain", path, dict), _at(path, "codomain"))
    return _backend_from_json(domain, codomain, _field(data, "backend", path, dict), _at(path, "backend"))


def _backend_from_json(domain, codomain, backend, path: str) -> SymCocycle2:
    kind = _field(backend, "type", path, str)
    if kind == "carry":
        targets = _field(backend, "targets", path, dict, {})
        at = _at(path, "targets")
        return CarryCocycle(
            domain, codomain, {_factor_index(domain, i, at): _elem(codomain, c, _at(at, i)) for i, c in targets.items()}
        )
    if kind == "table":
        table = {}
        at = _at(path, "entries")
        for k, entry in enumerate(_field(backend, "entries", path, list)):
            where = f"{at}[{k}]"
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ParseError(f"field {where!r} must be a list [x, y, value], got {entry!r}")
            x, y, a = entry
            table[_elem(domain, x, where), _elem(domain, y, where)] = _elem(codomain, a, where)
        f = FunctionTable(domain, codomain, table)  # refuses a large or infinite domain before it is listed
        elems = list(domain.elements())
        missing = next(((x, y) for x in elems for y in elems if (x, y) not in table), None)
        if missing is not None:
            x, y = map(domain.format_elem, missing)
            raise ParseError(f"field {at!r} has no entry for x = {x}, y = {y}; a table lists every pair")
        return f
    if kind == "coboundary":
        psi = _psi_from_json(domain, codomain, _field(backend, "psi", path, dict), _at(path, "psi"))
        return CoboundaryOf(domain, codomain, psi)
    if kind == "product":
        parts = enumerate(_field(backend, "parts", path, list))
        at = _at(path, "parts")
        return _built(at, ProductCocycle, [_backend_from_json(domain, codomain, b, f"{at}[{k}]") for k, b in parts])
    raise ParseError(f"field {_at(path, 'type')!r}: unsupported backend type {kind!r}")


def _psi_from_json(domain, codomain, data, path: str) -> PsiMap:
    kind = _field(data, "type", path, str)
    if kind == "monomial":
        bases = []
        for name, key in (("torsion_bases", partial(_factor_index, domain)), ("free_bases", _index)):
            at = _at(path, name)
            raw = _field(data, name, path, dict, {})
            bases.append({key(i, at): _elem(codomain, a, _at(at, i)) for i, a in raw.items()})
        return MonomialPsi(domain, codomain, *bases)
    if kind == "table":
        table = {}
        at = _at(path, "entries")
        for k, entry in enumerate(_field(data, "entries", path, list)):
            where = f"{at}[{k}]"
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError(f"field {where!r} must be a list [x, value], got {entry!r}")
            table[_elem(domain, entry[0], where)] = _elem(codomain, entry[1], where)
        psi = _built(at, DictPsi, domain, codomain, table)
        # over an infinite domain a missing entry shows only when psi meets it
        if domain.is_finite:
            missing = next((b for b in domain.elements() if b not in psi.table), None)
            if missing is not None:
                raise ParseError(
                    f"field {at!r} has no entry for {domain.format_elem(missing)}; a table lists every element"
                )
        return psi
    raise ParseError(f"field {_at(path, 'type')!r}: unsupported psi type {kind!r}")


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "a JSON object"}
_REQUIRED = object()


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _field(data, key: str, path: str, kind: type, default=_REQUIRED):
    """data[key], checked to be of the JSON kind, for the JSON object data at
    path; ParseError naming the path of what is missing or malformed."""
    if not isinstance(data, dict):
        raise ParseError(f"field {path!r} must be a JSON object" if path else "the document must be a JSON object")
    if key not in data:
        if default is not _REQUIRED:
            return default
        raise ParseError(f"field {_at(path, key)!r} is missing")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field {_at(path, key)!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _int_list(value, path: str) -> list:
    """value, checked to be a list of integers; ParseError naming path otherwise."""
    if not (isinstance(value, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ParseError(f"field {path!r} must be a list of integers, got {value!r}")
    return value


def _index(key: str, path: str) -> int:
    """A JSON object key naming a factor index or prime, as an int."""
    try:
        return int(key)
    except ValueError as exc:
        raise ParseError(f"field {_at(path, key)!r}: key must be an integer") from exc


def _factor_index(domain, key: str, path: str) -> int:
    """_index(key, path), checked to number a torsion factor of domain."""
    idx = _index(key, path)
    _built(_at(path, key), domain.torsion_factor_generator, idx)
    return idx


def _built(path: str, build, *args):
    """build(*args), refusing the data at path with a ParseError naming it."""
    try:
        return build(*args)
    except InvalidParameter as exc:
        raise ParseError(f"field {path!r}: {exc}") from exc


def _elem(carrier, data, path: str):
    """An element of carrier (a carrier group, or a ring) decoded from data,
    with decoding failures named by path."""
    try:
        return carrier.elem_from_json(data)
    except (InvalidParameter, ParseError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"field {path!r} is not an element of {carrier!r}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# verification


@dataclass
class CocycleReport:
    ok: bool
    checked: int
    exhaustive: bool
    failure: tuple | None = None  # (law, witness elements...)

    def to_json(self):
        return {
            "ok": self.ok,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
            "failure": None if self.failure is None else [repr(w) for w in self.failure],
        }


def verify_cocycle(f: SymCocycle2, trials: int = 200, rng=None, exhaustive_limit: int = 64) -> CocycleReport:
    """Check normalisation, symmetry and the cocycle identity.

    When the domain B is finite with at most exhaustive_limit elements,
    every element, pair and triple is checked, in that order, and the
    report's checked count and failure witness are the definition's.  The
    walk runs on integers: B is listed once and numbered by position, B's
    products and the values of f are held in flat tables at i * |B| + j,
    each slot filled when first read, A-values are numbered by equality as
    they appear, and A's product is computed once per ordered pair of
    numbers.  f is first asked for each pair where the definition first
    reads it, so a table that raises, raises at the same pair.

    Otherwise `trials` sampled triples are checked, drawn from rng.
    """
    b_grp, a_grp = f.domain, f.codomain
    if b_grp.is_finite and b_grp.order() <= exhaustive_limit:
        return _table_report(f)
    import random

    b_op, a_op, e, one = b_grp.op, a_grp.op, b_grp.identity, a_grp.identity
    rng = rng or random.Random(0)
    for checked in range(1, trials + 1):
        x, y, z = b_grp.sample(rng), b_grp.sample(rng), b_grp.sample(rng)
        if f(e, x) != one or f(x, e) != one:
            return CocycleReport(False, checked, False, ("normalisation", x))
        if f(x, y) != f(y, x):
            return CocycleReport(False, checked, False, ("symmetry", x, y))
        if a_op(f(b_op(x, y), z), f(x, y)) != a_op(f(x, b_op(y, z)), f(y, z)):
            return CocycleReport(False, checked, False, ("cocycle", x, y, z))
    return CocycleReport(True, max(trials, 0), False)


def _table_report(f: SymCocycle2, triples: bool = True) -> CocycleReport:
    """verify_cocycle's exhaustive branch (its docstring describes the walk);
    without triples, the walk stops after the elements and pairs.

    prod[i * |B| + j] numbers elems[i] * elems[j] in elems, fv[i * |B| + j]
    numbers f(elems[i], elems[j]) in vals, and A's identity is number 0.
    """
    b_grp, a_grp = f.domain, f.codomain
    b_op, a_op = b_grp.op, a_grp.op
    elems = list(b_grp.elements())
    index = {x: i for i, x in enumerate(elems)}
    nb = len(elems)
    prod: list = [None] * (nb * nb)
    fv: list = [None] * (nb * nb)
    ids = {a_grp.identity: 0}
    vals = [a_grp.identity]

    def number(a) -> int:
        n = ids.get(a)
        if n is None:
            n = ids[a] = len(vals)
            vals.append(a)
        return n

    def at(k: int) -> int:
        n = fv[k]
        if n is None:
            n = fv[k] = number(f(elems[k // nb], elems[k % nb]))
        return n

    def times(k: int) -> int:
        n = prod[k]
        if n is None:
            n = prod[k] = index[b_op(elems[k // nb], elems[k % nb])]
        return n

    checked = 0
    e = index[b_grp.identity]
    for i in range(nb):
        checked += 1
        if at(e * nb + i) or at(i * nb + e):
            return CocycleReport(False, checked, True, ("normalisation", elems[i]))
    for i in range(nb):
        for j in range(nb):
            checked += 1
            if at(i * nb + j) != at(j * nb + i):
                return CocycleReport(False, checked, True, ("symmetry", elems[i], elems[j]))
    if not triples:
        return CocycleReport(True, checked, False)
    # the symmetry checks read every pair, so each value of f is numbered
    # below nv now, and p * nv + q keys the pair (p, q) of values
    nv = len(vals)
    sums: dict = {}
    for i in range(nb):
        row_i = i * nb
        for j in range(nb):
            row_ij = times(row_i + j) * nb
            f_ij = fv[row_i + j]
            row_j = j * nb
            for k in range(nb):
                checked += 1
                p = fv[row_ij + k]
                lhs = sums.get(p * nv + f_ij)
                if lhs is None:
                    lhs = sums[p * nv + f_ij] = number(a_op(vals[p], vals[f_ij]))
                jk = prod[row_j + k]
                if jk is None:
                    jk = times(row_j + k)
                p, q = fv[row_i + jk], fv[row_j + k]
                rhs = sums.get(p * nv + q)
                if rhs is None:
                    rhs = sums[p * nv + q] = number(a_op(vals[p], vals[q]))
                if lhs != rhs:
                    return CocycleReport(False, checked, True, ("cocycle", elems[i], elems[j], elems[k]))
    return CocycleReport(True, checked, True)


def check_cocycle(f: SymCocycle2) -> None:
    """InvalidParameter "cocycle fails the {law} law at {witness}" unless f is
    a cocycle by construction or passes verify_cocycle's 64 seeded trials and,
    over a finite B of at most TABLE_LIMIT elements, every element and pair."""
    if f.is_cocycle_by_construction:
        return
    report = verify_cocycle(f, trials=64, exhaustive_limit=16)
    if report.ok and not report.exhaustive and f.domain.is_finite and f.domain.order() <= TABLE_LIMIT:
        report = _table_report(f, triples=False)
    if not report.ok:
        raise InvalidParameter(f"cocycle fails the {report.failure[0]} law at {report.failure[1:]}")


# ---------------------------------------------------------------------------
# the coboundary decision


def is_coboundary(f: SymCocycle2) -> SplitSectionPsi | None:
    """Splitting map psi with f(x,y) = psi(xy) psi(x)^-1 psi(y)^-1, or None.

    Decides per torsion factor: the factor obstruction must be an m-th power
    in A (Ext(B, A) is the product of the per-factor classes A / A^m, and
    restriction to the factors is faithful).  Free factors always split.
    """
    a_grp = f.codomain
    if not hasattr(a_grp, "nth_root"):
        raise UnsupportedCodomain(f"{a_grp!r} does not support root extraction")
    roots: dict[int, Any] = {}
    for idx in range(len(f.domain.torsion_factors)):
        c = f.factor_obstruction(idx)
        m = f.domain.torsion_factors[idx]
        y = a_grp.nth_root(a_grp.inverse(c), m)
        if y is None:
            return None
        roots[idx] = y
    return SplitSectionPsi(f, roots)


def coboundary_defect(f: SymCocycle2, psi: PsiMap, x, y):
    """f(x,y) * (delta psi)(x,y)^-1; identity everywhere iff psi witnesses f."""
    a_grp = f.codomain
    delta = a_grp.op(
        psi(f.domain.op(x, y)),
        a_grp.inverse(a_grp.op(psi(x), psi(y))),
    )
    return a_grp.op(f(x, y), a_grp.inverse(delta))


def is_cot(f: SymCocycle2) -> bool:
    """Whether f is a coboundary on the torsion of its domain (CoT).

    For symmetric f this is is_coboundary's verdict: that decision asks only
    about the torsion factors (free factors split, Ext(Z^r, A) = 0), and
    their obstructions are products of the same values of f whether or not
    f is first restricted to the torsion.  A domain without torsion has
    nothing to obstruct, whatever the codomain.
    """
    if not f.domain.torsion_factors:
        return True
    return is_coboundary(f) is not None


# ---------------------------------------------------------------------------
# algebra on cocycles


def cocycle_product(f: SymCocycle2, g: SymCocycle2) -> SymCocycle2:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DomainMismatch("cocycles live on different groups")
    if isinstance(f, CarryCocycle) and isinstance(g, CarryCocycle):
        targets = dict(f.targets)
        for idx, c in g.targets.items():
            targets[idx] = f.codomain.op(targets[idx], c) if idx in targets else c
        return CarryCocycle._trusted(f.domain, f.codomain, targets)
    return ProductCocycle([f, g])


def cocycle_inverse(f: SymCocycle2) -> SymCocycle2:
    """The pointwise inverse of f, in f's own backend.  A transport's psi is
    a homomorphism, so a transport inverts through its base."""
    a_grp = f.codomain
    if isinstance(f, CarryCocycle):
        return CarryCocycle._trusted(f.domain, a_grp, {i: a_grp.inverse(c) for i, c in f.targets.items()})
    if isinstance(f, FunctionTable):
        return FunctionTable(f.domain, a_grp, {k: a_grp.inverse(v) for k, v in f.table.items()})
    if isinstance(f, CoboundaryOf):
        return CoboundaryOf(f.domain, a_grp, f.psi.inverse())
    if isinstance(f, ProductCocycle):
        return ProductCocycle([cocycle_inverse(p) for p in f.parts])
    if isinstance(f, TransportedCocycle):
        return TransportedCocycle(cocycle_inverse(f.base), f.psi, f.eta_inv)
    raise InvalidParameter(f"cannot invert backend {f.backend!r} structurally")


def transport_cocycle(g: SymCocycle2, psi: AbHom, eta: AbHom) -> SymCocycle2:
    """Transport g along isos psi: A -> A' and eta: B -> B', as the
    TransportedCocycle g'(x, y) = psi(g(eta^-1(x), eta^-1(y))), a product
    part by part; g' is a cocycle by construction when g is one."""
    if not isinstance(g.domain, FgAbelian) or not isinstance(g.codomain, FgAbelian):
        raise InvalidParameter("transport is defined for FgAbelian carriers")
    if not psi.is_bijective() or not eta.is_bijective():
        raise NotBijective("transport requires isomorphisms on both sides")
    return _transport(g, psi, eta.inverse())


def _transport(g: SymCocycle2, psi: AbHom, eta_inv: AbHom) -> SymCocycle2:
    if isinstance(g, ProductCocycle):
        return ProductCocycle([_transport(p, psi, eta_inv) for p in g.parts])
    return TransportedCocycle(g, psi, eta_inv)


# ---------------------------------------------------------------------------
# the extension group E(f)


class ExtensionGroup:
    """E(f): pairs (b, a) with (b1,a1)(b2,a2) = (b1 b2, a1 a2 f(b1,b2)).

    Abelian exactly because f is symmetric.
    """

    def __init__(self, cocycle: SymCocycle2):
        self.cocycle = cocycle
        self.base = cocycle.domain
        self.fiber = cocycle.codomain

    @property
    def identity(self):
        return ext_identity(self.cocycle)

    def op(self, x, y):
        return ext_mul(self.cocycle, x, y)

    def inverse(self, x):
        return ext_inv(self.cocycle, x)

    def power(self, x, k: int):
        return ext_pow(self.cocycle, x, k)

    @property
    def is_finite(self) -> bool:
        return self.base.is_finite and self.fiber.is_finite

    def order(self) -> int:
        return self.base.order() * self.fiber.order()

    def elements(self):
        for b in self.base.elements():
            for a in self.fiber.elements():
                yield (b, a)

    def element_order(self, x) -> int | None:
        """Order of x = (b, a), or None when infinite.

        With k the order of b, x^k = (1, a') and the order is k * ord(a'),
        both read off the carriers' decompositions.
        """
        k = self.base.element_order(x[0])
        if k is None:
            return None
        n = self.fiber.element_order(self.power(x, k)[1])
        if n is None:
            return None
        if self.power(x, k * n) != self.identity:
            raise InvalidParameter("x^order is not the identity; cocycle is not a cocycle")
        return k * n


def build_extension(f: SymCocycle2) -> ExtensionGroup:
    """E(f), for f that check_cocycle accepts."""
    check_cocycle(f)
    return ExtensionGroup(f)
