"""First-order logic over the group language: AST, parser, evaluators and
the formula library used by the structural checks.

Terms are built from variables, constants, 1, products and inverses;
commutators, conjugation and left-normed commutators are parser/builder
sugar that expands to the core operations immediately, so two routes to the
same formula produce identical trees (which is what the semantic-oracle
pattern matcher relies on).

One walker, two modes.  eval_formula()/eval_with_stats() expand every
quantifier over the whole carrier and count each atomic check against a
budget.  semantic_eval() walks the same tree but answers recognised blocks
of like quantifiers (normal-closure nilpotency, commutator width; binders
in any order) with subgroup computations, and ranges relativised quantifiers
over their registered sets only.  Equality of the two modes on small models
is a tested invariant, checked against an evaluator restated in the tests.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import (
    BudgetExceeded,
    CombinatorialBlowup,
    ParseError,
    UnboundVariable,
    UnregisteredDefinableSet,
)
from .finitegroup import FiniteGroup

DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
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
        raise ValueError("left-normed commutator of nothing")
    acc = terms[0]
    for t in terms[1:]:
        acc = comm(acc, t)
    return acc


def mul_fold(terms: list[Term]) -> Term:
    acc = terms[0]
    for t in terms[1:]:
        acc = Mul(acc, t)
    return acc


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class InSet(Formula):
    set_name: str
    arg: Term


def and_fold(parts: list[Formula]) -> Formula:
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Mul):
        return term_variables(t.left) | term_variables(t.right)
    if isinstance(t, Inv):
        return term_variables(t.arg)
    return set()


def free_variables(phi: Formula) -> set[str]:
    if isinstance(phi, Eq):
        return term_variables(phi.left) | term_variables(phi.right)
    if isinstance(phi, InSet):
        return term_variables(phi.arg)
    if isinstance(phi, Not):
        return free_variables(phi.arg)
    if isinstance(phi, (And, Or, Implies)):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return free_variables(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


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
        for kind in ("arrow", "invop", "sym", "one", "ident"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
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
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# pretty printer (canonical core syntax; inverse of the parser on its output)


def _term_text(t: Term, parent: str = "") -> str:
    if isinstance(t, One):
        return "1"
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Inv):
        inner = _term_text(t.arg, "inv")
        return f"{inner}^-1"
    if isinstance(t, Mul):
        body = f"{_term_text(t.left, 'mul-left')}*{_term_text(t.right, 'mul-right')}"
        if parent in ("inv", "mul-right"):
            return f"({body})"
        return body
    raise TypeError(f"not a term: {t!r}")


def _formula_text(phi: Formula, parent: str = "") -> str:
    if isinstance(phi, Eq):
        return f"{_term_text(phi.left)} = {_term_text(phi.right)}"
    if isinstance(phi, InSet):
        return f"@{phi.set_name}({_term_text(phi.arg)})"
    if isinstance(phi, Not):
        return f"!{_formula_text(phi.arg, 'not')}"
    if isinstance(phi, And):
        body = f"{_formula_text(phi.left, 'and-left')} & {_formula_text(phi.right, 'and-right')}"
        return f"({body})" if parent in ("not", "and-right") else body
    if isinstance(phi, Or):
        body = f"{_formula_text(phi.left, 'or-left')} | {_formula_text(phi.right, 'or-right')}"
        return f"({body})" if parent in ("not", "and-left", "and-right", "or-right") else body
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

    def __init__(self, fg: FiniteGroup, constants: dict | None = None, definable_sets: dict | None = None, source=None):
        self.fg = fg
        self.source = source
        self.constants: dict[str, int] = {}
        self.definable_sets: dict[str, frozenset[int]] = {}
        for name, el in (constants or {}).items():
            self.register_constant(name, el)
        for name, members in (definable_sets or {}).items():
            self.register_set(name, members)
        self._ncl_class_cache: dict[frozenset[int], int | None] = {}

    def register_constant(self, name: str, el):
        self.constants[name] = el if isinstance(el, int) else self.fg.index(el)

    def register_set(self, name: str, members: Iterable):
        self.definable_sets[name] = frozenset(
            m if isinstance(m, int) else self.fg.index(m) for m in members
        )

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


def model_from_group(group, constants: dict | None = None, definable_sets: dict | None = None, generators=None) -> Model:
    from .finitegroup import from_group

    fg = from_group(group, generators=generators)
    return Model(fg, constants, definable_sets, source=group)


# ---------------------------------------------------------------------------
# evaluation


class _Budget:
    __slots__ = ("limit", "atoms")

    def __init__(self, limit: float):
        self.limit = limit
        self.atoms = 0

    def spend(self):
        self.atoms += 1
        if self.atoms > self.limit:
            raise BudgetExceeded(self.limit)


def _estimate_atoms(phi: Formula, carrier: int) -> int:
    if isinstance(phi, (Eq, InSet)):
        return 1
    if isinstance(phi, Not):
        return _estimate_atoms(phi.arg, carrier)
    if isinstance(phi, (And, Or, Implies)):
        return _estimate_atoms(phi.left, carrier) + _estimate_atoms(phi.right, carrier)
    if isinstance(phi, (Forall, Exists)):
        return carrier * _estimate_atoms(phi.body, carrier)
    raise TypeError(f"not a formula: {phi!r}")


def _resolve(model: Model, name: str, env: dict[str, int]) -> int:
    if name in env:
        return env[name]
    if name in model.constants:
        return model.constants[name]
    raise UnboundVariable(f"variable {name!r} is not assigned and names no constant")


def _eval_term(model: Model, t: Term, env: dict[str, int]) -> int:
    fg = model.fg
    if isinstance(t, One):
        return fg.identity_index
    if isinstance(t, Var):
        return _resolve(model, t.name, env)
    if isinstance(t, Const):
        if t.name not in model.constants:
            raise UnboundVariable(f"constant {t.name!r} is not registered")
        return model.constants[t.name]
    if isinstance(t, Mul):
        return fg.op_idx(_eval_term(model, t.left, env), _eval_term(model, t.right, env))
    if isinstance(t, Inv):
        return fg.inv_idx(_eval_term(model, t.arg, env))
    raise TypeError(f"not a term: {t!r}")


def _definable_set(model: Model, name: str) -> frozenset[int]:
    members = model.definable_sets.get(name)
    if members is None:
        raise UnregisteredDefinableSet(f"no set registered under {name!r}")
    return members


def _eval(model: Model, phi: Formula, env: dict[str, int], budget: _Budget, semantic: bool) -> bool:
    """The one formula walker.  The modes differ at quantifier nodes only:
    semantic mode asks the oracles first, and ranges a relativised quantifier
    (A v. @S(v) -> psi, E v. @S(v) & psi) over S alone."""
    if isinstance(phi, Eq):
        budget.spend()
        return _eval_term(model, phi.left, env) == _eval_term(model, phi.right, env)
    if isinstance(phi, InSet):
        budget.spend()
        members = _definable_set(model, phi.set_name)
        return _eval_term(model, phi.arg, env) in members
    if isinstance(phi, Not):
        return not _eval(model, phi.arg, env, budget, semantic)
    if isinstance(phi, And):
        return _eval(model, phi.left, env, budget, semantic) and _eval(model, phi.right, env, budget, semantic)
    if isinstance(phi, Or):
        return _eval(model, phi.left, env, budget, semantic) or _eval(model, phi.right, env, budget, semantic)
    if isinstance(phi, Implies):
        return (not _eval(model, phi.left, env, budget, semantic)) or _eval(model, phi.right, env, budget, semantic)
    if isinstance(phi, (Forall, Exists)):
        want = isinstance(phi, Exists)  # the body value that decides the block
        domain, body = model.fg.all_indices, phi.body
        if semantic:
            verdict = _oracle(model, phi, env)
            if verdict is not None:
                return verdict
            link = And if want else Implies
            if isinstance(body, link) and isinstance(body.left, InSet) and body.left.arg == Var(phi.var):
                domain = sorted(_definable_set(model, body.left.set_name))
                body = body.right
        inner = dict(env)  # env keeps any free use of the name outside this block
        for i in domain:
            inner[phi.var] = i
            if _eval(model, body, inner, budget, semantic) is want:
                return want
        return not want
    raise TypeError(f"not a formula: {phi!r}")


def _env_from_assignment(model: Model, assignment: dict | None) -> dict[str, int]:
    env = {}
    for name, el in (assignment or {}).items():
        env[name] = el if isinstance(el, int) else model.fg.index(el)
    return env


def eval_formula(model: Model, phi: Formula, assignment: dict | None = None, budget: int = DEFAULT_BUDGET) -> bool:
    value, _ = eval_with_stats(model, phi, assignment, budget)
    return value


def eval_with_stats(model: Model, phi: Formula, assignment: dict | None = None, budget: int = DEFAULT_BUDGET):
    env = _env_from_assignment(model, assignment)
    estimate = _estimate_atoms(phi, max(model.fg.order, 1))
    if estimate > budget:
        raise BudgetExceeded(budget)
    tracker = _Budget(budget)
    value = _eval(model, phi, env, tracker, False)
    return value, tracker.atoms


# ---------------------------------------------------------------------------
# alpha-matching of formula shapes


def _alpha_match_term(pattern: Term, subject: Term, pmap: dict[str, str]) -> bool:
    if isinstance(pattern, Var):
        if not isinstance(subject, Var):
            return False
        if pattern.name in pmap:
            return pmap[pattern.name] == subject.name
        if subject.name in pmap.values():
            return False
        pmap[pattern.name] = subject.name
        return True
    if isinstance(pattern, One):
        return isinstance(subject, One)
    if isinstance(pattern, Const):
        return isinstance(subject, Const) and pattern.name == subject.name
    if isinstance(pattern, Mul):
        return (
            isinstance(subject, Mul)
            and _alpha_match_term(pattern.left, subject.left, pmap)
            and _alpha_match_term(pattern.right, subject.right, pmap)
        )
    if isinstance(pattern, Inv):
        return isinstance(subject, Inv) and _alpha_match_term(pattern.arg, subject.arg, pmap)
    return False


def _alpha_match(pattern: Formula, subject: Formula, pmap: dict[str, str]) -> bool:
    if isinstance(pattern, Eq):
        return (
            isinstance(subject, Eq)
            and _alpha_match_term(pattern.left, subject.left, pmap)
            and _alpha_match_term(pattern.right, subject.right, pmap)
        )
    if isinstance(pattern, InSet):
        return (
            isinstance(subject, InSet)
            and pattern.set_name == subject.set_name
            and _alpha_match_term(pattern.arg, subject.arg, pmap)
        )
    if isinstance(pattern, Not):
        return isinstance(subject, Not) and _alpha_match(pattern.arg, subject.arg, pmap)
    for klass in (And, Or, Implies):
        if isinstance(pattern, klass):
            return (
                isinstance(subject, klass)
                and _alpha_match(pattern.left, subject.left, pmap)
                and _alpha_match(pattern.right, subject.right, pmap)
            )
    for klass in (Forall, Exists):
        if isinstance(pattern, klass):
            if not isinstance(subject, klass):
                return False
            if pattern.var in pmap or subject.var in pmap.values():
                return False
            pmap[pattern.var] = subject.var
            return _alpha_match(pattern.body, subject.body, pmap)
    return False


def alpha_equivalent(pattern: Formula, subject: Formula) -> dict[str, str] | None:
    pmap: dict[str, str] = {}
    return pmap if _alpha_match(pattern, subject, pmap) else None


# ---------------------------------------------------------------------------
# formula library


def _phi_c_over(names: list[str], c: int, max_conjuncts: int) -> Formula:
    letters = []
    for n in names:
        letters.append(Var(n))
        letters.append(Inv(Var(n)))
    if len(letters) ** c > max_conjuncts:
        raise CombinatorialBlowup(f"{len(letters)}^{c} conjuncts exceed the budget")
    conjuncts = []
    for tup in itertools.product(letters, repeat=c):
        word = left_normed(list(tup)) if c > 1 else tup[0]
        conjuncts.append(Eq(word, One()))
    return and_fold(conjuncts)


def formula_phi_c(n_vars: int, c: int, max_conjuncts: int = 4096) -> Formula:
    """All left-normed commutators of length c in x1..xn and inverses vanish."""
    names = [f"x{k}" for k in range(1, n_vars + 1)]
    return _phi_c_over(names, c, max_conjuncts)


def formula_phi_eq_c(n_vars: int, c: int, max_conjuncts: int = 4096) -> Formula:
    """Nilpotency class exactly c: length c+1 commutators die, length c do not."""
    names = [f"x{k}" for k in range(1, n_vars + 1)]
    return And(
        _phi_c_over(names, c + 1, max_conjuncts),
        Not(_phi_c_over(names, c, max_conjuncts)),
    )


def formula_max_nilpotent_membership(g_var: str, gen_vars: list[str], c: int, max_conjuncts: int = 4096) -> Formula:
    """g belongs to the maximal class-c overgroup of <gen_vars>: adjoining it keeps class c."""
    return And(
        _phi_c_over([g_var] + list(gen_vars), c + 1, max_conjuncts),
        Not(_phi_c_over([g_var] + list(gen_vars), c, max_conjuncts)),
    )


def formula_ncl(c: int, var: str = "x") -> Formula:
    """Every length-(c+1) left-normed commutator of conjugates of var is 1."""
    ys = [f"y{k}" for k in range(1, c + 2)]
    body = Eq(left_normed([conj(Var(var), Var(y)) for y in ys]), One())
    phi: Formula = body
    for y in reversed(ys):
        phi = Forall(y, phi)
    return phi


def formula_ncl_multi(var_names: list[str], c: int) -> Formula:
    """Joint version over several elements: all mixed conjugate commutators die."""
    ys = [f"y{k}" for k in range(1, c + 2)]
    conjuncts = []
    for picks in itertools.product(var_names, repeat=c + 1):
        conjuncts.append(
            Eq(left_normed([conj(Var(p), Var(y)) for p, y in zip(picks, ys)]), One())
        )
    phi: Formula = and_fold(conjuncts)
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
    product = mul_fold([comm(Var(a), Var(b)) for a, b in zip(xs, ys)])
    phi: Formula = Eq(Var(var), product)
    for name in reversed(xs + ys):
        phi = Exists(name, phi)
    return phi


def formula_phi_Gu_pm(var: str = "x", fitt_set: str = "Fitt", derived_set: str = "Gprime") -> Formula:
    x = Var(var)
    return And(
        InSet(fitt_set, x),
        Or(
            InSet(derived_set, x),
            And(Not(InSet(derived_set, x)), InSet(derived_set, Mul(x, x))),
        ),
    )


def formula_phi_D(d_names: list[str], var: str = "x") -> Formula:
    """Centralizer of the named diagonal constants."""
    return and_fold([Eq(comm(Var(var), Var(d)), One()) for d in d_names])


def formula_phi_iN(t_name: str, z_set: str = "Z") -> Formula:
    """Conjugates of the named transvection are it or its inverse modulo the central set."""
    t = Var(t_name)
    body = And(
        InSet(z_set, Var("z")),
        Or(
            Eq(conj(t, Var("y")), Mul(t, Var("z"))),
            Eq(conj(t, Var("y")), Mul(Inv(t), Var("z"))),
        ),
    )
    return Forall("y", Exists("z", body))


# ---------------------------------------------------------------------------
# semantic evaluation


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


def _oracle(model: Model, phi: Formula, env: dict[str, int]) -> bool | None:
    """Answer a recognised quantifier block from the group, or None.

    c+1 universal binders over formula_ncl_multi(gs, c), 1 <= |gs| <= 5:
    the normal closure of the gs is nilpotent of class <= c.  2m existential
    binders over formula_phi_Gprime(m): x is a product of m commutators.
    """
    names, body = _peel(phi, type(phi))
    if isinstance(phi, Forall):
        c = len(names) - 1
        conjuncts = 1  # along the left spine, as and_fold nests them
        while isinstance(body, And):
            conjuncts, body = conjuncts + 1, body.left
        m = next((m for m in range(1, 6) if m ** (c + 1) == conjuncts), None)
        if c < 1 or m is None:
            return None
        gs = [f"g{k}" for k in range(1, m + 1)]
        pmap = _match_block(formula_ncl_multi(gs, c), phi)
        if pmap is None:
            return None
        cls = model.ncl_nilpotency_class(frozenset(_resolve(model, pmap[g], env) for g in gs))
        return cls is not None and cls <= c
    if len(names) % 2:
        return None
    m = len(names) // 2
    pmap = _match_block(formula_phi_Gprime(m), phi)
    if pmap is None:
        return None
    return _resolve(model, pmap["x"], env) in model.fg.width_products(m)


def semantic_eval(model: Model, phi: Formula, assignment: dict | None = None) -> bool:
    env = _env_from_assignment(model, assignment)
    return _eval(model, phi, env, _Budget(math.inf), True)


def defining_set(model: Model, phi: Formula, var: str, semantic: bool = False, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Indices of carrier elements satisfying phi with var bound to them."""
    out = set()
    for i in model.fg.all_indices:
        if semantic:
            ok = semantic_eval(model, phi, {var: i})
        else:
            ok = eval_formula(model, phi, {var: i}, budget)
        if ok:
            out.add(i)
    return frozenset(out)
