"""First-order logic over the group language: AST, parser, printer,
evaluators and the formula library used by the structural checks.

Terms are built from variables, constants, 1, products and inverses;
commutators, conjugation and left-normed commutators are sugar that expands
to the core operations at once.  Nodes are slotted, immutable records,
hash-consed when built, so a formula is one DAG of distinct subterms: equal
formulas are one object, and equality, alpha-matching and free names visit
each distinct node once.

The parser's "formula nests too deeply" is the only depth limit.  The
printer and the term compiler are loops over an explicit stack, and term
evaluation recurses through at most _STEP levels, so terms built through
the API evaluate whatever their shape and depth; connectives and
quantifiers compile by recursion, as deep as the parser nests them.

A formula's first use compiles it, for every model, to closures over a DAG
of term nodes (_Code, kept on the formula), so each distinct subterm costs
one product per binding of the innermost binder it reads.
eval_formula()/eval_with_stats() expand every quantifier over the carrier
and count each atom against a budget.  semantic_eval() answers the blocks
of like quantifiers recognised at compile time (normal-closure nilpotency,
commutator width; binders in any order) with subgroup computations, and
ranges relativised quantifiers over their registered sets only.  The two
modes agree on small models, checked against evaluators restated in tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import weakref
from typing import Iterable

from .config import DEFAULT_BUDGET
from .errors import BudgetExceeded, CombinatorialBlowup, InvalidParameter, ParseError, UnboundVariable, UnregisteredDefinableSet
from .finitegroup import FiniteGroup, from_group


# ---------------------------------------------------------------------------
# terms


_NODES: dict[tuple, weakref.ref] = {}  # (class, *fields) -> the live node, weakly


class _Syntax:
    """Hash-consed, immutable terms and formulas, each class naming its
    fields once as __slots__ = __match_args__.  Building a node returns the
    live node with the same class and fields if there is one, so equal
    formulas are one object and equality is identity.  The table holds nodes
    weakly, by keys whose children hash by identity; a node's death pops its
    key (nodes form no cycles, so before the key can recur)."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            if len(args) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__}({', '.join(cls.__match_args__)}) got {len(args)} arguments")
            node = object.__new__(cls)
            for field, value in zip(cls.__match_args__, args):
                object.__setattr__(node, field, value)
            _NODES[key] = weakref.ref(node, functools.partial(_NODES.pop, key))
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        # one loop over a stack of text and nodes, so a chain of any depth prints
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            pieces = [type(item).__name__ + "("]
            for k, field in enumerate(item.__match_args__):
                value = getattr(item, field)
                pieces += (", " * (k > 0) + field + "=", value if isinstance(value, _Syntax) else repr(value))
            todo += reversed(pieces + [")"])
        return "".join(out)


class Term(_Syntax):
    __slots__ = ()


class Var(Term):
    __slots__ = __match_args__ = ("name",)


class One(Term):
    __slots__ = __match_args__ = ()


class Mul(Term):
    __slots__ = __match_args__ = ("left", "right")


class Inv(Term):
    __slots__ = __match_args__ = ("arg",)


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
    return functools.reduce(comm, terms)


# ---------------------------------------------------------------------------
# formulas


class Formula(_Syntax):
    __slots__ = ("_code",)  # the compiled form, kept by _compiled(); not a field


class Eq(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Not(Formula):
    __slots__ = __match_args__ = ("arg",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Forall(Formula):
    __slots__ = __match_args__ = ("var", "body")


class Exists(Formula):
    __slots__ = __match_args__ = ("var", "body")


class InSet(Formula):
    __slots__ = __match_args__ = ("set_name", "arg")


def and_fold(parts: list[Formula]) -> Formula:
    return functools.reduce(And, parts)


def _left_spine(phi: Formula, klass) -> list[Formula]:
    """[p0, ..., pk] for klass(...klass(p0, p1)..., pk), found by a loop."""
    parts = []
    while isinstance(phi, klass):
        parts.append(phi.right)
        phi = phi.left
    return [phi] + parts[::-1]


def free_variables(phi: Formula) -> set[str]:
    """The names phi reads unbound: the free-name nodes of its compiled form."""
    return {key[1] for key in _compiled(phi).nodes if key[0] == "free"}


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<invop>\^-1)|(?P<sym>[()\[\],.=*!&|@^])|"
    r"(?P<one>1)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then eof; the matches tile the text."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup  # the one alternative that matched
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start())
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the documented grammar.

    Precedence, loosest first: -> (right), |, &, !; quantifiers extend as
    far right as possible.  Rebinding a variable that is already bound is a
    parse error.
    """

    def __init__(self, text: str):
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
        save = self.i
        try:
            left = self.term()
            self.take(value="=")
            return Eq(left, self.term())
        except ParseError:
            if tok[1] != "(":
                raise
            self.i = save  # not an equation: a parenthesised formula
        self.take(value="(")
        phi = self.formula()
        self.take(value=")")
        return phi

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


# How tightly each node binds, and its text, last piece first (as the stack
# pops them): strings, and each child with the binding strength its place
# needs; a child that binds more loosely is parenthesised.  Formulas:
# quantifiers 0, -> 1, | 2, & 3, ! 4, atoms 5; terms: * 1, ^-1 2, atoms 3.
_LAYOUT = {
    Var: (3, lambda t: (t.name,)),
    One: (3, lambda t: ("1",)),
    Mul: (1, lambda t: ((t.right, 2), "*", (t.left, 1))),
    Inv: (2, lambda t: ("^-1", (t.arg, 2))),
    Eq: (5, lambda f: ((f.right, 0), " = ", (f.left, 0))),
    InSet: (5, lambda f: (")", (f.arg, 0), f"@{f.set_name}(")),
    Not: (4, lambda f: ((f.arg, 4), "!")),
    And: (3, lambda f: ((f.right, 4), " & ", (f.left, 3))),
    Or: (2, lambda f: ((f.right, 3), " | ", (f.left, 2))),
    Implies: (1, lambda f: ((f.right, 0), " -> ", (f.left, 2))),
    Forall: (0, lambda f: ((f.body, 0), f"A {f.var}. ")),
    Exists: (0, lambda f: ((f.body, 0), f"E {f.var}. ")),
}


def format_formula(phi: Formula) -> str:
    """phi's text, by one loop over an explicit stack of pieces."""
    out, todo = [], [(phi, 0)]
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
            continue
        node, need = piece
        if node.__class__ is Var:  # the commonest node, emitted at once
            out.append(node.name)
            continue
        strength, pieces = _LAYOUT[node.__class__]
        if strength < need:
            todo += (")", *pieces(node), "(")
        else:
            todo += pieces(node)
    return "".join(out)


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

    def ncl_nilpotency_class(self, seed: frozenset[int]) -> int | None:
        """Nilpotency class of the normal closure of the seed, or None."""
        if seed not in self._ncl_class_cache:
            nilp, cls = self.fg.is_nilpotent(self.fg.normal_closure(sorted(seed)))
            self._ncl_class_cache[seed] = cls if nilp else None
        return self._ncl_class_cache[seed]


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


_STEP = 100  # term levels that evaluation recurses through, at most


class _Code:
    """A formula compiled for every model: closures over a term DAG.

    A term compiles to a node (closure, level, height, run): level is the
    depth of the innermost binder it reads (0: free names only), height the
    number of nodes on its longest path down, and run that number counted
    from the nearest checkpoint below.  Nodes are hash-consed on (operation,
    child closures), a bound variable keyed by its binder's depth and a free
    one by its name, so each distinct subterm is one node, computed when
    first needed and at most once per binding of that binder.  A scope
    (bound name -> depth, id -> node) compiles each distinct term object of
    the scope once.  atoms_at[d] counts the atoms under d quantifiers (the
    upfront bound is sum(atoms_at[d] * N**d)).  A node evaluates its
    children by recursion, down to the values already computed for the
    current bindings; a term evaluates the checkpoints below it first (in a
    chain: the heights that are multiples of STEP), so evaluation recurses
    through at most STEP levels of a term of any shape and depth.
    """

    def __init__(self, phi: Formula):
        self.tick = itertools.count(1).__next__  # binding stamps, never reused
        self.nodes: dict[tuple, tuple] = {}
        self.atoms_at = [0]
        self.root = self.formula(phi, ({}, {}), 0)

    def node(self, key: tuple, a: tuple = None, b: tuple = None) -> tuple:
        """The node keyed (operation, *child closures), over child nodes a, b;
        runs count modulo STEP, so a run of 0 marks a checkpoint."""
        found = self.nodes.get(key)
        if found is None:
            if key[0] is Mul:
                (f, la, ha, ra), (g, lb, hb, rb) = a, b
                level, height, run = la if la > lb else lb, ha if ha > hb else hb, ra if ra > rb else rb
                found = _memoised(level, lambda S: S.op(f(S), g(S))), level, height + 1, (run + 1) % _STEP
            elif key[0] is Inv:
                f, level, height, run = a
                found = _memoised(level, lambda S: S.inv(f(S))), level, height + 1, (run + 1) % _STEP
            elif key[0] == "one":
                found = (lambda S: S.one), 0, 1, 1
            elif key[0] == "var":
                found = (lambda S, d=key[1]: S.vals[d]), key[1], 1, 1
            else:
                found = (lambda S, name=key[1]: S.env[name]), 0, 1, 1
            self.nodes[key] = found
        return found

    def var(self, name: str, scope) -> tuple:
        depth = scope[0].get(name)
        return self.node(("free", name) if depth is None else ("var", depth))

    def term(self, t: Term, scope):
        """The closure evaluating t.  Children compile before their parent,
        in one post-order walk over an explicit stack: a node stays on it
        until the scope holds its children's nodes.  A term taller than STEP
        first evaluates the checkpoints below it, lowest first."""
        done = scope[1]
        todo = [] if id(t) in done else [t]
        while todo:
            u = todo[-1]
            if u.__class__ is Mul:
                a, b = done.get(id(u.left)), done.get(id(u.right))
                if a is None or b is None:
                    if b is None:
                        todo.append(u.right)
                    if a is None:
                        todo.append(u.left)  # compiled first, as evaluation goes
                    continue
                found = self.node((Mul, a[0], b[0]), a, b)
            elif u.__class__ is Inv:
                a = done.get(id(u.arg))
                if a is None:
                    todo.append(u.arg)
                    continue
                found = self.node((Inv, a[0]), a)
            elif u.__class__ is Var:
                found = self.var(u.name, scope)
            elif u.__class__ is One:
                found = self.node(("one",))
            else:
                raise TypeError(f"not a term: {u!r}")
            done[id(u)] = found
            todo.pop()
        value, _, height, _ = done[id(t)]
        if height <= _STEP:
            return value
        tall, todo = {}, [t]  # the subterms of height STEP or more
        while todo:
            u = todo.pop()
            if id(u) not in tall and done[id(u)][2] >= _STEP:
                tall[id(u)] = done[id(u)]
                todo += (u.left, u.right) if u.__class__ is Mul else (u.arg,)
        steps = [f for f, _, _, run in sorted(tall.values(), key=lambda node: node[2]) if run == 0] + [value]
        return lambda S: [step(S) for step in steps][-1]

    def formula(self, phi: Formula, scope, depth: int):
        if isinstance(phi, (Eq, InSet)):
            self.atoms_at[depth] += 1
            if isinstance(phi, Eq):
                left, right = self.term(phi.left, scope), self.term(phi.right, scope)
                check = lambda S: left(S) == right(S)
            else:
                name, arg = phi.set_name, self.term(phi.arg, scope)
                check = lambda S: _definable_set(S.model, name).__contains__(arg(S))  # the set, then the term

            def atom(S) -> bool:
                S.atoms += 1
                if S.atoms > S.limit:
                    raise BudgetExceeded(S.limit)
                return check(S)

            return atom
        if isinstance(phi, Not):  # a run of negations, peeled in a loop
            odd = False
            while isinstance(phi, Not):
                phi, odd = phi.arg, not odd
            arg = self.formula(phi, scope, depth)
            return (lambda S: not arg(S)) if odd else arg
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
        if isinstance(body, And if want else Implies) and isinstance(body.left, InSet) and body.left.arg is Var(phi.var):
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
        # the body of formula_phi_Gprime(m), x = [a, b] c_2 ... c_m, has the
        # left Mul spine a^-1, b^-1, a, b, c_2, ..., c_m: m + 3 factors
        m = len(names) // 2
        if len(names) % 2 or not isinstance(body, Eq) or len(_left_spine(body.right, Mul)) != m + 3:
            return None
        pmap = _match_block(formula_phi_Gprime(m), phi)
        if pmap is None:
            return None
        x = self.var(pmap["x"], scope)[0]
        return lambda S: x(S) in S.model.fg.width_products(m)


def _compiled(phi: Formula) -> _Code:
    """phi's compiled form, built on first use and kept on phi."""
    code = getattr(phi, "_code", None)
    if code is None:
        code = _Code(phi)
        object.__setattr__(phi, "_code", code)
    return code


def _run(model: Model, phi: Formula, assignment: dict | None, limit: float, semantic: bool) -> tuple[bool, int]:
    """Evaluate phi through its compiled form; returns the value and the
    atoms spent."""
    env = {name: el if isinstance(el, int) else model.fg.index(el) for name, el in (assignment or {}).items()}
    code = _compiled(phi)
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
    """Match two terms or formulas up to an injective renaming of the
    pattern's variable names, extending pmap, which maps the free ones.  A
    binder maps its name over its body only (pushed on entry, popped on
    exit), to a name no other mapping in scope has.  Pairs are visited in
    tree order; one met again in the same body is skipped, as there the
    renaming only grows, so each distinct pair costs one step per body."""
    used, seen, bodies, todo = set(pmap.values()), set(), itertools.count(1), [(pattern, subject, 0)]
    while todo:
        item = p, s, body = todo.pop()
        if p is None:  # leaving a binder: s is its name and the name's image outside
            used.discard(pmap.pop(s[0]))
            if s[1] is not None:
                pmap[s[0]] = s[1]
                used.add(s[1])
            continue
        if item in seen:
            continue
        seen.add(item)
        cls = p.__class__
        if cls is not s.__class__:
            return False
        if cls is Var:
            image = pmap.get(p.name)
            if image != s.name and (image is not None or s.name in used):
                return False
            pmap[p.name] = s.name
            used.add(s.name)
        elif cls is Forall or cls is Exists:
            outer = pmap.get(p.var)
            if s.var in used and s.var != outer:
                return False
            pmap[p.var] = s.var
            used.add(s.var)
            todo += ((None, (p.var, outer), body), (p.body, s.body, next(bodies)))
        else:
            for field in reversed(cls.__match_args__):
                a, b = getattr(p, field), getattr(s, field)
                if isinstance(a, _Syntax):
                    todo.append((a, b, body))
                elif a != b:  # a set name
                    return False
    return True


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
    return _phi_c_over([f"x{k}" for k in range(1, n_vars + 1)], c)


def formula_phi_eq_c(n_vars: int, c: int) -> Formula:
    """Nilpotency class exactly c: length c+1 commutators die, length c do not."""
    names = [f"x{k}" for k in range(1, n_vars + 1)]
    return formula_max_nilpotent_membership(names[0], names[1:], c)


def formula_max_nilpotent_membership(g_var: str, gen_vars: list[str], c: int) -> Formula:
    """g belongs to the maximal class-c overgroup of <gen_vars>: adjoining it keeps class c."""
    names = [g_var] + list(gen_vars)
    return And(_phi_c_over(names, c + 1), Not(_phi_c_over(names, c)))


def formula_ncl(c: int, var: str = "x") -> Formula:
    """Every length-(c+1) left-normed commutator of conjugates of var is 1."""
    return formula_ncl_multi([var], c)


def formula_ncl_multi(var_names: list[str], c: int) -> Formula:
    """Joint version over several elements: all mixed conjugate commutators die."""
    ys = [f"y{k}" for k in range(1, c + 2)]
    picks = itertools.product(var_names, repeat=c + 1)
    body = and_fold([Eq(left_normed([conj(Var(p), Var(y)) for p, y in zip(ps, ys)]), One()) for ps in picks])
    return functools.reduce(lambda phi, y: Forall(y, phi), reversed(ys), body)


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
    body = Eq(Var(var), functools.reduce(Mul, [comm(Var(a), Var(b)) for a, b in zip(xs, ys)]))
    return functools.reduce(lambda phi, name: Exists(name, phi), reversed(xs + ys), body)


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
    limit = math.inf if semantic else budget
    return frozenset(i for i in model.fg.all_indices if _run(model, phi, {var: i}, limit, semantic)[0])
