"""First-order logic over the group language: AST, parser, evaluators and
the formula library used by the structural checks.

Terms are built from variables, constants, 1, products and inverses;
commutators, conjugation and left-normed commutators are parser/builder
sugar that expands to the core operations immediately, so two routes to the
same formula produce identical trees (which is what the semantic-oracle
pattern matcher relies on).

Compiled once, evaluated in two modes.  A formula's first evaluation
compiles it, for every model, to closures over a DAG of hash-consed terms
(_Code, kept on the formula), so each distinct subterm costs one product per
binding of the innermost binder it reads.  eval_formula()/eval_with_stats()
expand every quantifier over the whole carrier and count each atomic check
against a budget.  semantic_eval() answers the blocks of like quantifiers
recognised at compile time (normal-closure nilpotency, commutator width;
binders in any order) with subgroup computations, and ranges relativised
quantifiers over their registered sets only.  Equality of the two modes on
small models is a tested invariant, checked against evaluators restated in
the tests.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from typing import Iterable

from .config import DEFAULT_BUDGET
from .errors import (
    BudgetExceeded,
    CombinatorialBlowup,
    InvalidParameter,
    ParseError,
    UnboundVariable,
    UnregisteredDefinableSet,
)
from .finitegroup import FiniteGroup, from_group


# ---------------------------------------------------------------------------
# terms


class _Syntax:
    """Structural equality and hashing for terms and formulas, by loops over
    explicit stacks, so that long spines and deep nesting need no recursion."""

    def __eq__(self, other):
        todo = [(self, other)]
        pop, push = todo.pop, todo.append
        while todo:
            a, b = pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Syntax):
                for name in a.__match_args__:
                    push((getattr(a, name), getattr(b, name)))
            elif a != b:
                return False
        return True

    def __hash__(self):
        seen, todo = [], [self]
        pop, push = todo.pop, todo.append
        while todo:
            a = pop()
            if isinstance(a, _Syntax):
                seen.append(type(a))
                for name in a.__match_args__:
                    push(getattr(a, name))
            else:
                seen.append(a)
        return hash(tuple(seen))


@dataclass(frozen=True, eq=False)
class Term(_Syntax):
    pass


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False)
class One(Term):
    pass


@dataclass(frozen=True, eq=False)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Inv(Term):
    arg: Term


def conj(t: Term, by: Term) -> Term:
    """t^by = by^-1 * t * by, expanded."""
    return Mul(Mul(Inv(by), t), by)


def comm(a: Term, b: Term) -> Term:
    """[a, b] = a^-1 b^-1 a b, expanded."""
    return Mul(Mul(Mul(Inv(a), Inv(b)), a), b)


def left_normed(terms: list[Term]) -> Term:
    """[t1, t2, ..., tk] = [[t1, t2], ..., tk], expanded."""
    if not terms:
        raise InvalidParameter("left-normed commutator of nothing")
    acc = terms[0]
    for t in terms[1:]:
        acc = comm(acc, t)
    return acc


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True, eq=False)
class Formula(_Syntax):
    _code = None  # the compiled form, kept by _run(); not a field

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_code"}


@dataclass(frozen=True, eq=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, eq=False)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, eq=False)
class InSet(Formula):
    set_name: str
    arg: Term


def and_fold(parts: list[Formula]) -> Formula:
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def _left_spine(phi: Formula, klass) -> list[Formula]:
    """[p0, ..., pk] for klass(...klass(p0, p1)..., pk), found by a loop."""
    parts = []
    while isinstance(phi, klass):
        parts.append(phi.right)
        phi = phi.left
    return [phi] + parts[::-1]


def free_variables(phi: Formula) -> set[str]:
    out: set[str] = set()
    todo = [(phi, frozenset())]
    while todo:  # a loop, so long spines need no recursion
        phi, bound = todo.pop()
        if isinstance(phi, Var):
            out |= {phi.name} - bound
        elif isinstance(phi, (Forall, Exists)):
            todo.append((phi.body, bound | {phi.var}))
        elif isinstance(phi, (Term, Formula)):
            todo += [(getattr(phi, f.name), bound) for f in fields(phi) if f.name != "set_name"]
        else:
            raise TypeError(f"not a formula: {phi!r}")
    return out


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<invop>\^-1)|(?P<sym>[()\[\],.=*!&|@^])|"
    r"(?P<one>1)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup  # the one alternative that matched
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the documented grammar.

    Precedence, loosest first: -> (right), |, &, !; quantifiers extend as
    far right as possible.  Rebinding a variable that is already bound is a
    parse error.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.bound: list[str] = []

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {value or kind}, found {tok[1] or 'end of input'}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1] or 'end of input'}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi = self.formula()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return phi

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[1] == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek()[1] == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[1] == "!":
            self.take()
            return Not(self.unary())
        if tok[0] == "ident" and tok[1] in ("A", "E"):
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        kind_tok = self.take("ident")
        var_tok = self.take()
        if var_tok[0] != "ident" or var_tok[1] in ("A", "E"):
            raise ParseError("expected a variable after the quantifier", var_tok[2])
        name = var_tok[1]
        if name in self.bound:
            raise ParseError(f"variable {name!r} shadows an enclosing binding", var_tok[2])
        dot = self.peek()
        if dot[1] != ".":
            raise ParseError("expected '.' after quantified variable", dot[2])
        self.take()
        self.bound.append(name)
        body = self.formula()
        self.bound.pop()
        return Forall(name, body) if kind_tok[1] == "A" else Exists(name, body)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok[1] == "@":
            self.take()
            name = self.take("ident")[1]
            self.take(value="(")
            arg = self.term()
            self.take(value=")")
            return InSet(name, arg)
        if tok[1] == "(":
            # could be a parenthesised formula or a parenthesised term
            save = self.i
            try:
                left = self.term()
                self.take(value="=")
                return Eq(left, self.term())
            except ParseError:
                self.i = save
            self.take(value="(")
            phi = self.formula()
            self.take(value=")")
            return phi
        left = self.term()
        self.take(value="=")
        return Eq(left, self.term())

    def term(self) -> Term:
        left = self.factor()
        while self.peek()[1] == "*":
            self.take()
            left = Mul(left, self.factor())
        return left

    def factor(self) -> Term:
        t = self.primary()
        while True:
            tok = self.peek()
            if tok[0] == "invop":
                self.take()
                t = Inv(t)
            elif tok[1] == "^":
                self.take()
                t = conj(t, self.primary())
            else:
                return t

    def primary(self) -> Term:
        tok = self.peek()
        if tok[0] == "one":
            self.take()
            return One()
        if tok[0] == "ident":
            if tok[1] in ("A", "E"):
                raise ParseError(f"{tok[1]!r} is reserved for quantifiers", tok[2])
            self.take()
            return Var(tok[1])
        if tok[1] == "(":
            self.take()
            t = self.term()
            self.take(value=")")
            return t
        if tok[1] == "[":
            self.take()
            parts = [self.term()]
            while self.peek()[1] == ",":
                self.take()
                parts.append(self.term())
            self.take(value="]")
            if len(parts) < 2:
                raise ParseError("left-normed commutator needs at least two entries", tok[2])
            return left_normed(parts)
        raise ParseError(f"expected a term, found {tok[1] or 'end of input'}", tok[2])


def parse_formula(text: str) -> Formula:
    """The formula in text; ParseError on bad syntax, and on nesting deeper
    than the recursive descent can follow."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("formula nests too deeply", parser.peek()[2]) from None


# ---------------------------------------------------------------------------
# pretty printer (canonical core syntax; inverse of the parser on its output)


def _term_text(t: Term, parent: str = "") -> str:
    if isinstance(t, One):
        return "1"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Inv):
        return f"{_term_text(t.arg, 'inv')}^-1"
    if isinstance(t, Mul):
        first, *rest = _left_spine(t, Mul)
        body = "*".join([_term_text(first, "mul-left")] + [_term_text(p, "mul-right") for p in rest])
        return f"({body})" if parent in ("inv", "mul-right") else body
    raise TypeError(f"not a term: {t!r}")


def _formula_text(phi: Formula, parent: str = "") -> str:
    if isinstance(phi, Eq):
        return f"{_term_text(phi.left)} = {_term_text(phi.right)}"
    if isinstance(phi, InSet):
        return f"@{phi.set_name}({_term_text(phi.arg)})"
    if isinstance(phi, Not):
        return f"!{_formula_text(phi.arg, 'not')}"
    if isinstance(phi, (And, Or)):
        op, side, wrap = ("&", "and", ("not", "and-right")) if isinstance(phi, And) else (
            "|", "or", ("not", "and-left", "and-right", "or-right"))
        first, *rest = _left_spine(phi, type(phi))
        body = f" {op} ".join([_formula_text(first, f"{side}-left")] + [_formula_text(p, f"{side}-right") for p in rest])
        return f"({body})" if parent in wrap else body
    if isinstance(phi, Implies):
        body = f"{_formula_text(phi.left, 'imp-left')} -> {_formula_text(phi.right, 'imp-right')}"
        return f"({body})" if parent not in ("", "imp-right", "quant") else body
    if isinstance(phi, (Forall, Exists)):
        q = "A" if isinstance(phi, Forall) else "E"
        body = f"{q} {phi.var}. {_formula_text(phi.body, 'quant')}"
        return f"({body})" if parent not in ("", "quant", "imp-right") else body
    raise TypeError(f"not a formula: {phi!r}")


def format_formula(phi: Formula) -> str:
    return _formula_text(phi)


# ---------------------------------------------------------------------------
# models


class Model:
    """Finite group carrier plus named constants and definable sets."""

    def __init__(self, fg: FiniteGroup, source=None):
        self.fg = fg
        self.source = source
        self.constants: dict[str, int] = {}
        self.definable_sets: dict[str, frozenset[int]] = {}
        self._ncl_class_cache: dict[frozenset[int], int | None] = {}

    def register_constant(self, name: str, el):
        self.constants[name] = self.fg.index(el)

    def register_set(self, name: str, members: Iterable[int]):
        self.definable_sets[name] = frozenset(members)

    # -- oracles -------------------------------------------------------------

    def ncl_nilpotency_class(self, seed: frozenset[int]) -> int | None:
        """Nilpotency class of the normal closure of the seed, or None."""
        cached = self._ncl_class_cache.get(seed)
        if cached is not None or seed in self._ncl_class_cache:
            return cached
        nilp, cls = self.fg.is_nilpotent(self.fg.normal_closure(sorted(seed)))
        out = cls if nilp else None
        self._ncl_class_cache[seed] = out
        return out


def model_from_group(group) -> Model:
    return Model(from_group(group), source=group)


# ---------------------------------------------------------------------------
# evaluation: each formula compiled once, to closures over a term DAG


def _definable_set(model: Model, name: str) -> frozenset[int]:
    members = model.definable_sets.get(name)
    if members is None:
        raise UnregisteredDefinableSet(f"no set registered under {name!r}")
    return members


class _Env(dict):
    """The free names of one evaluation: the assignment over the constants."""

    def __missing__(self, name: str):
        raise UnboundVariable(f"variable {name!r} is not assigned and names no constant")


def _memoised(level: int, compute):
    """compute(S), run at most once per binding of the binder at depth
    level: the memo (stamp, value) holds while that binding's stamp does."""
    memo = (0, 0)

    def value(S) -> int:
        nonlocal memo
        m, s = memo, S.stamps[level]
        if m[0] != s:
            m = memo = (s, compute(S))
        return m[1]

    return value


class _State:
    """One evaluation: the model, its free names, the value and binding
    stamp of the binder at each depth, and the atoms spent."""

    __slots__ = ("model", "env", "op", "inv", "one", "vals", "stamps", "atoms", "limit", "semantic")

    def __init__(self, model: Model, env: dict[str, int], code: _Code, limit: float, semantic: bool):
        fg = model.fg
        self.model, self.env, self.limit, self.semantic = model, _Env({**model.constants, **env}), limit, semantic
        self.op, self.inv, self.one = fg.op_idx, fg.inv_idx, fg.identity_index
        self.vals = [0] * len(code.atoms_at)
        self.stamps = [code.tick()] * len(code.atoms_at)  # depth 0 (free names) holds for the call
        self.atoms = 0


class _Code:
    """A formula compiled for every model: closures over a term DAG.

    A term compiles to a node (closure, level), level being the depth of the
    innermost binder it reads (0: free names only).  Nodes are hash-consed
    on (operation, child nodes), a bound variable keyed by its binder's
    depth, so each distinct subterm is one node, computed when first needed
    and at most once per binding of that binder.  A scope (bound name ->
    depth, id -> node) reuses the node of a term object it has compiled, as
    builders and the parser share subterm objects.  atoms_at[d] counts the
    atoms under d quantifiers (the upfront bound is sum(atoms_at[d] * N**d)).
    """

    SPINE_STEP = 100  # the prefixes of a Mul spine evaluated by recursion, at most

    def __init__(self, phi: Formula):
        self.tick = itertools.count(1).__next__  # binding stamps, never reused
        self.nodes: dict[tuple, tuple] = {}
        self.atoms_at = [0]
        self.root = self.formula(phi, ({}, {}), 0)

    def node(self, key: tuple) -> tuple:
        found = self.nodes.get(key)
        if found is None:
            if key[0] == "one":
                found = (lambda S: S.one), 0
            elif key[0] == "var":
                found = (lambda S, d=key[1]: S.vals[d]), key[1]
            elif key[0] == "free":
                found = (lambda S, name=key[1]: S.env[name]), 0
            elif key[0] is Inv:
                a, level = key[1]
                found = _memoised(level, lambda S: S.inv(a(S))), level
            else:
                (a, la), (b, lb) = key[1:]
                found = _memoised(max(la, lb), lambda S: S.op(a(S), b(S))), max(la, lb)
            self.nodes[key] = found
        return found

    def var(self, name: str, scope) -> tuple:
        depth = scope[0].get(name)
        return self.node(("free", name) if depth is None else ("var", depth))

    def term(self, t: Term, scope) -> tuple:
        found = scope[1].get(id(t))
        if found is None:
            if isinstance(t, Var):
                found = self.var(t.name, scope)
            elif isinstance(t, One):
                found = self.node(("one",))
            elif isinstance(t, Mul):
                found = self.spine(t, scope)
            elif isinstance(t, Inv):
                found = self.node((Inv, self.term(t.arg, scope)))
            else:
                raise TypeError(f"not a term: {t!r}")
            scope[1][id(t)] = found
        return found

    def spine(self, t: Mul, scope) -> tuple:
        """A Mul left spine, compiled by a loop into one node per prefix
        product, as a recursive fold would.  A prefix evaluates the one below
        it first, so a long spine computes every SPINE_STEP-th prefix in
        order, and evaluation recurses no deeper than that either."""
        first, *rest = _left_spine(t, Mul)
        nodes = [self.term(first, scope)]
        for right in rest:
            nodes.append(self.node((Mul, nodes[-1], self.term(right, scope))))
        if len(nodes) <= self.SPINE_STEP:
            return nodes[-1]
        steps = [f for f, _ in nodes[self.SPINE_STEP :: self.SPINE_STEP]] + [nodes[-1][0]]
        return (lambda S: [step(S) for step in steps][-1]), nodes[-1][1]

    def formula(self, phi: Formula, scope, depth: int):
        if isinstance(phi, (Eq, InSet)):
            self.atoms_at[depth] += 1
            if isinstance(phi, Eq):
                left, right = self.term(phi.left, scope)[0], self.term(phi.right, scope)[0]
                check = lambda S: left(S) == right(S)
            else:
                name, arg = phi.set_name, self.term(phi.arg, scope)[0]
                check = lambda S: _definable_set(S.model, name).__contains__(arg(S))  # the set, then the term

            def atom(S) -> bool:
                S.atoms += 1
                if S.atoms > S.limit:
                    raise BudgetExceeded(S.limit)
                return check(S)

            return atom
        if isinstance(phi, Not):
            arg = self.formula(phi.arg, scope, depth)
            return lambda S: not arg(S)
        if isinstance(phi, Implies):
            left, right = self.formula(phi.left, scope, depth), self.formula(phi.right, scope, depth)
            return lambda S: (not left(S)) or right(S)
        if isinstance(phi, (And, Or)):
            parts = [self.formula(p, scope, depth) for p in _left_spine(phi, type(phi))]
            stop = isinstance(phi, Or)  # the part value that decides the spine

            def spine(S) -> bool:
                for part in parts:
                    if part(S) is stop:
                        return stop
                return not stop

            return spine
        if isinstance(phi, (Forall, Exists)):
            return self.quantifier(phi, scope, depth + 1)
        raise TypeError(f"not a formula: {phi!r}")

    def quantifier(self, phi: Formula, scope, d: int):
        """Naive mode ranges over the carrier.  Semantic mode asks the oracle
        recognised here, else ranges a relativised quantifier
        (A v. @S(v) -> psi, E v. @S(v) & psi) over S alone."""
        want = isinstance(phi, Exists)  # the body value that decides the block
        oracle = self.oracle(phi, scope)
        inner = ({**scope[0], phi.var: d}, {})
        self.atoms_at += [0] * (d + 1 - len(self.atoms_at))
        body, guard, rest = phi.body, None, None
        if isinstance(body, And if want else Implies) and isinstance(body.left, InSet) and body.left.arg == Var(phi.var):
            guard, test, rest = body.left.set_name, self.formula(body.left, inner, d), self.formula(body.right, inner, d)
            body = (lambda S: test(S) and rest(S)) if want else (lambda S: (not test(S)) or rest(S))
        else:
            body = self.formula(body, inner, d)
        tick = self.tick

        def block(S) -> bool:
            domain, run = S.model.fg.all_indices, body
            if S.semantic:
                if oracle is not None:
                    return oracle(S)
                if guard is not None:
                    domain, run = sorted(_definable_set(S.model, guard)), rest
            vals, stamps = S.vals, S.stamps
            for i in domain:
                vals[d], stamps[d] = i, tick()
                if run(S) is want:
                    return want
            return not want

        return block

    def oracle(self, phi: Formula, scope):
        """A closure answering the block at phi from the group, or None.

        c+1 universal binders over formula_ncl_multi(gs, c), 1 <= |gs| <= 5:
        the normal closure of the gs is nilpotent of class <= c.  2m
        existential binders over formula_phi_Gprime(m): x is a product of m
        commutators.  Both are matched up to renaming and binder order.
        """
        names, body = _peel(phi, type(phi))
        if isinstance(phi, Forall):
            c, conjuncts = len(names) - 1, len(_left_spine(body, And))
            m = next((m for m in range(1, 6) if m ** (c + 1) == conjuncts), None)
            if c < 1 or m is None:
                return None
            gs = [f"g{k}" for k in range(1, m + 1)]
            pmap = _match_block(formula_ncl_multi(gs, c), phi)
            if pmap is None:
                return None
            seeds = [self.var(pmap[g], scope)[0] for g in gs]

            def ncl(S) -> bool:
                cls = S.model.ncl_nilpotency_class(frozenset(g(S) for g in seeds))
                return cls is not None and cls <= c

            return ncl
        pmap = None if len(names) % 2 else _match_block(formula_phi_Gprime(len(names) // 2), phi)
        if pmap is None:
            return None
        x, m = self.var(pmap["x"], scope)[0], len(names) // 2
        return lambda S: x(S) in S.model.fg.width_products(m)


def _run(model: Model, phi: Formula, assignment: dict | None, limit: float, semantic: bool) -> tuple[bool, int]:
    """Evaluate phi through its compiled form, built on first use and kept
    on phi; returns the value and the atoms spent."""
    env = {name: el if isinstance(el, int) else model.fg.index(el) for name, el in (assignment or {}).items()}
    code = phi._code
    if code is None:
        code = _Code(phi)
        object.__setattr__(phi, "_code", code)
    carrier = max(model.fg.order, 1)
    if sum(k * carrier**d for d, k in enumerate(code.atoms_at)) > limit:
        raise BudgetExceeded(limit)
    state = _State(model, env, code, limit, semantic)
    return code.root(state), state.atoms


def eval_formula(model: Model, phi: Formula, assignment: dict | None = None, budget: int = DEFAULT_BUDGET) -> bool:
    return eval_with_stats(model, phi, assignment, budget)[0]


def eval_with_stats(model: Model, phi: Formula, assignment: dict | None = None, budget: int = DEFAULT_BUDGET):
    return _run(model, phi, assignment, budget, False)


def semantic_eval(model: Model, phi: Formula, assignment: dict | None = None) -> bool:
    return _run(model, phi, assignment, math.inf, True)[0]


# ---------------------------------------------------------------------------
# alpha-matching of formula shapes


def _alpha_match(pattern, subject, pmap: dict[str, str]) -> bool:
    """Match two terms or formulas up to the injective renaming pmap of the
    pattern's variable names, bound and free, extending pmap as it goes."""
    if type(pattern) is not type(subject):
        return False
    if isinstance(pattern, Var):
        if pattern.name in pmap:
            return pmap[pattern.name] == subject.name
        if subject.name in pmap.values():
            return False
        pmap[pattern.name] = subject.name
        return True
    if isinstance(pattern, (Forall, Exists)):
        if pattern.var in pmap or subject.var in pmap.values():
            return False
        pmap[pattern.var] = subject.var
        return _alpha_match(pattern.body, subject.body, pmap)
    if isinstance(pattern, (And, Or, Implies)):
        ps, ss = _left_spine(pattern, type(pattern)), _left_spine(subject, type(pattern))
        return len(ps) == len(ss) and all(_alpha_match(p, s, pmap) for p, s in zip(ps, ss))
    if not isinstance(pattern, (Term, Formula)):
        return pattern == subject  # a set name
    return all(_alpha_match(getattr(pattern, f.name), getattr(subject, f.name), pmap) for f in fields(pattern))


def alpha_equivalent(pattern: Formula, subject: Formula) -> dict[str, str] | None:
    pmap: dict[str, str] = {}
    return pmap if _alpha_match(pattern, subject, pmap) else None


# ---------------------------------------------------------------------------
# formula library


def _phi_c_over(names: list[str], c: int) -> Formula:
    letters = [t for n in names for t in (Var(n), Inv(Var(n)))]
    if len(letters) ** c > 4096:
        raise CombinatorialBlowup(f"{len(letters)}^{c} conjuncts exceed the budget")
    words = itertools.product(letters, repeat=c)
    return and_fold([Eq(left_normed(list(tup)) if c > 1 else tup[0], One()) for tup in words])


def formula_phi_c(n_vars: int, c: int) -> Formula:
    """All left-normed commutators of length c in x1..xn and inverses vanish."""
    names = [f"x{k}" for k in range(1, n_vars + 1)]
    return _phi_c_over(names, c)


def formula_phi_eq_c(n_vars: int, c: int) -> Formula:
    """Nilpotency class exactly c: length c+1 commutators die, length c do not."""
    names = [f"x{k}" for k in range(1, n_vars + 1)]
    return formula_max_nilpotent_membership(names[0], names[1:], c)


def formula_max_nilpotent_membership(g_var: str, gen_vars: list[str], c: int) -> Formula:
    """g belongs to the maximal class-c overgroup of <gen_vars>: adjoining it keeps class c."""
    return And(
        _phi_c_over([g_var] + list(gen_vars), c + 1),
        Not(_phi_c_over([g_var] + list(gen_vars), c)),
    )


def formula_ncl(c: int, var: str = "x") -> Formula:
    """Every length-(c+1) left-normed commutator of conjugates of var is 1."""
    return formula_ncl_multi([var], c)


def formula_ncl_multi(var_names: list[str], c: int) -> Formula:
    """Joint version over several elements: all mixed conjugate commutators die."""
    ys = [f"y{k}" for k in range(1, c + 2)]
    picks = itertools.product(var_names, repeat=c + 1)
    phi: Formula = and_fold([Eq(left_normed([conj(Var(p), Var(y)) for p, y in zip(ps, ys)]), One()) for ps in picks])
    for y in reversed(ys):
        phi = Forall(y, phi)
    return phi


def formula_fitt_ck(c: int, k: int) -> Formula:
    return Forall("g", Implies(formula_ncl(c + k, "g"), formula_ncl(c, "g")))


def formula_phi_c_star(c: int) -> Formula:
    gs = [f"g{k}" for k in range(1, c + 1)]
    antecedent = and_fold([formula_ncl(c, g) for g in gs])
    phi: Formula = Implies(antecedent, formula_ncl_multi(gs, c))
    for g in reversed(gs):
        phi = Forall(g, phi)
    return phi


def formula_phi_Gprime(m: int, var: str = "x") -> Formula:
    """var is a product of at most m commutators (padding with trivial ones)."""
    xs = [f"x{k}" for k in range(1, m + 1)]
    ys = [f"y{k}" for k in range(1, m + 1)]
    product = comm(Var(xs[0]), Var(ys[0]))
    for a, b in zip(xs[1:], ys[1:]):
        product = Mul(product, comm(Var(a), Var(b)))
    phi: Formula = Eq(Var(var), product)
    for name in reversed(xs + ys):
        phi = Exists(name, phi)
    return phi


def formula_phi_Gu_pm(var: str = "x", fitt_set: str = "Fitt", derived_set: str = "Gprime") -> Formula:
    x = Var(var)
    in_derived = InSet(derived_set, x)
    return And(InSet(fitt_set, x), Or(in_derived, And(Not(in_derived), InSet(derived_set, Mul(x, x)))))


def formula_phi_D(d_names: list[str], var: str = "x") -> Formula:
    """Centralizer of the named diagonal constants."""
    return and_fold([Eq(comm(Var(var), Var(d)), One()) for d in d_names])


def formula_phi_iN(t_name: str, z_set: str = "Z") -> Formula:
    """Conjugates of the named transvection are it or its inverse modulo the central set."""
    t = Var(t_name)
    t_y, z = conj(t, Var("y")), Var("z")
    return Forall("y", Exists("z", And(InSet(z_set, z), Or(Eq(t_y, Mul(t, z)), Eq(t_y, Mul(Inv(t), z))))))


# ---------------------------------------------------------------------------
# oracle blocks


def _peel(phi: Formula, klass) -> tuple[list[str], Formula]:
    names = []
    while isinstance(phi, klass):
        names.append(phi.var)
        phi = phi.body
    return names, phi


def _match_block(pattern: Formula, subject: Formula) -> dict[str, str] | None:
    """Alpha-match two blocks of like quantifiers, in any binder order.

    The bodies must match up to renaming, and the renaming must send the
    pattern's bound names onto the subject's as a set; like quantifiers
    commute, so the blocks are then equivalent.  Returns the renaming.
    """
    p_names, p_body = _peel(pattern, type(pattern))
    s_names, s_body = _peel(subject, type(pattern))
    pmap: dict[str, str] = {}
    if len(p_names) != len(s_names) or not _alpha_match(p_body, s_body, pmap):
        return None
    return pmap if {pmap.get(v) for v in p_names} == set(s_names) else None


def defining_set(model: Model, phi: Formula, var: str, semantic: bool = False, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Indices of carrier elements satisfying phi with var bound to them."""
    if semantic:
        return frozenset(i for i in model.fg.all_indices if semantic_eval(model, phi, {var: i}))
    return frozenset(i for i in model.fg.all_indices if eval_formula(model, phi, {var: i}, budget))
