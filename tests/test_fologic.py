"""Formula parsing, printing, naive evaluation, and the semantic shortcuts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadeform import (
    DeformedGroup,
    TriMatrixGroup,
    parse_ring,
)
from triadeform.errors import (
    BudgetExceeded,
    CombinatorialBlowup,
    ParseError,
    UnboundVariable,
    UnregisteredDefinableSet,
)
from triadeform.finitegroup import FiniteGroup
from triadeform.fologic import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    InSet,
    Inv,
    Model,
    Mul,
    Not,
    One,
    Or,
    Var,
    alpha_equivalent,
    and_fold,
    comm,
    conj,
    defining_set,
    eval_formula,
    eval_with_stats,
    format_formula,
    formula_fitt_ck,
    formula_max_nilpotent_membership,
    formula_ncl,
    formula_ncl_multi,
    formula_phi_D,
    formula_phi_Gprime,
    formula_phi_Gu_pm,
    formula_phi_c,
    formula_phi_c_star,
    formula_phi_eq_c,
    formula_phi_iN,
    free_variables,
    left_normed,
    model_from_group,
    parse_formula,
    semantic_eval,
)
from triadeform.structure import (
    derived_description,
    fitting_description,
    unipotent_pm_description,
)

from test_acceptance import reference_eval


@pytest.fixture(scope="module")
def m2():
    return model_from_group(TriMatrixGroup(parse_ring("Z/3"), 2))


@pytest.fixture(scope="module")
def m3_z2():
    return model_from_group(TriMatrixGroup(parse_ring("Z/2"), 3))


@pytest.fixture(scope="module")
def big_group():
    return DeformedGroup(parse_ring("Z/3"), 3)


@pytest.fixture(scope="module")
def m3(big_group):
    return model_from_group(big_group)


# ---------------------------------------------------------------------------
# parsing and printing

ROUND_TRIP_CORPUS = [
    "x = 1",
    "x = y",
    "x*y = y*x",
    "x^-1 = y",
    "x*y*z = 1",
    "x*(y*z) = 1",
    "(x*y)^-1 = y^-1*x^-1",
    "!x = 1",
    "!(x = 1 & y = 1)",
    "x = 1 & y = 1",
    "x = 1 | y = 1",
    "x = 1 -> y = 1",
    "x = 1 -> y = 1 -> z = 1",
    "(x = 1 -> y = 1) -> z = 1",
    "x = 1 & y = 1 | z = 1",
    "x = 1 | y = 1 & z = 1",
    "x = 1 & (y = 1 | z = 1)",
    "A x. x = 1",
    "E x. !(x = 1)",
    "A x. A y. x*y = y*x",
    "A x. (E y. x*y = 1)",
    "A x. x = 1 -> y = 1",
    "@S(x)",
    "@S(x*y^-1)",
    "E x. (@S(x) & !(x = 1))",
    "A x. (@S(x) -> (A y. [x, y] = 1))",
    "[x, y] = 1",
    "[x, y, z] = 1",
    "x^y = 1",
    "x^y*z = 1",
    "[x^a, y^b] = 1",
    "A g. ([g, h] = 1 -> [g, h^-1] = 1)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_parse_format_round_trip(text):
    phi = parse_formula(text)
    printed = format_formula(phi)
    assert parse_formula(printed) == phi
    # the printer is canonical: printing again is a fixed point
    assert format_formula(parse_formula(printed)) == printed


def test_library_formulas_round_trip():
    library = [
        formula_ncl(1),
        formula_ncl(2, "w"),
        formula_ncl_multi(["g1", "g2"], 1),
        formula_phi_c(2, 2),
        formula_phi_eq_c(2, 1),
        formula_max_nilpotent_membership("g", ["h"], 1),
        formula_fitt_ck(1, 1),
        formula_phi_c_star(2),
        formula_phi_Gprime(2),
        formula_phi_Gu_pm(),
        formula_phi_D(["d1", "d2"]),
        formula_phi_iN("t"),
    ]
    for phi in library:
        assert parse_formula(format_formula(phi)) is phi  # equal formulas are one object


def test_equal_formulas_are_one_object():
    assert parse_formula("[a, b] = 1").left is comm(Var("a"), Var("b"))
    assert parse_formula("x^y = 1") is Eq(conj(Var("x"), Var("y")), One())
    assert formula_ncl(2) is formula_ncl(2) and formula_ncl(2) is not formula_ncl(2, "w")
    # a repeated subterm is one node: both conjuncts of ncl_multi([g1, g2], 1)
    # whose first entry is g1 hold the one node of g1^y1
    spine = formula_ncl_multi(["g1", "g2"], 1).body.body
    g1g1, g1g2 = spine.left.left.left, spine.left.left.right
    assert g1g1.left.left.left.left.arg is conj(Var("g1"), Var("y1")) is g1g2.left.left.left.left.arg


def test_a_dropped_formula_leaves_no_node_behind(monkeypatch, m2):
    # a 20,000-factor product, compiled and evaluated, then dropped: every
    # node of it leaves the table, and freeing the long spine raises nothing
    import gc
    import sys

    from triadeform.fologic import _NODES

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    before = len(_NODES)
    product = Var("probe")
    for k in range(19_999):
        product = Mul(product, Var(f"probe{k % 3}"))
    phi = Forall("probe", Eq(product, Var("probe0")))
    assert len(_NODES) == before + 19_999 + 4 + 2  # the products, four names, Eq and Forall
    assert eval_with_stats(m2, phi, dict.fromkeys(["probe0", "probe1", "probe2"], 0))[1] >= 1
    del product, phi
    assert len(_NODES) == before and unraisable == []


def test_commutator_sugar_expands_to_left_normed():
    assert parse_formula("[x, y] = 1") == Eq(comm(Var("x"), Var("y")), One())
    nested = parse_formula("[x, y, z] = 1")
    assert nested == Eq(
        left_normed([Var("x"), Var("y"), Var("z")]), One()
    )
    assert nested == Eq(comm(comm(Var("x"), Var("y")), Var("z")), One())


def test_conjugation_sugar():
    assert parse_formula("x^y = 1") == Eq(conj(Var("x"), Var("y")), One())
    # ^ binds tighter than *
    assert parse_formula("x^y*z = 1") == Eq(Mul(conj(Var("x"), Var("y")), Var("z")), One())


def test_connective_precedence():
    phi = parse_formula("x = 1 & y = 1 -> z = 1")
    assert isinstance(phi, Implies) and isinstance(phi.left, And)
    phi = parse_formula("!x = 1 | y = 1")
    assert isinstance(phi, Or) and isinstance(phi.left, Not)
    phi = parse_formula("a = 1 -> b = 1 -> c = 1")
    assert isinstance(phi.right, Implies)
    phi = parse_formula("x = 1 | y = 1 & z = 1")
    assert isinstance(phi, Or) and isinstance(phi.right, And)


def test_quantifier_extends_right():
    phi = parse_formula("A x. x = 1 -> y = 1")
    assert isinstance(phi, Forall)
    assert isinstance(phi.body, Implies)


@pytest.mark.parametrize(
    "text",
    [
        "A y x = 1",  # missing dot
        "A x. A x. x = 1",  # rebinding
        "A x. (E x. x = 1)",  # rebinding through parens
        "E A. x = 1",  # reserved letter as variable
        "x = 1)",  # trailing input
        "x = = 1",
        "x &",
        "[x] = 1",  # commutator needs two entries
        "@(x)",  # set atom needs a name
        "@S x",  # missing parens
        "x = 1 # y",  # stray character
        "",
        "A . x = 1",
        "x ^ = 1",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_parse_error_carries_position():
    # position marks where scanning stopped, at the start of the bad tail
    with pytest.raises(ParseError) as info:
        parse_formula("x = 1 # y")
    assert info.value.position == 5


def test_free_variables():
    assert free_variables(formula_ncl(2)) == {"x"}
    assert free_variables(parse_formula("A x. x*y = 1")) == {"y"}
    assert free_variables(formula_phi_Gprime(2, "w")) == {"w"}
    assert free_variables(parse_formula("A x. E y. x*y = 1")) == set()


def test_combinatorial_blowup_guard():
    with pytest.raises(CombinatorialBlowup):
        formula_phi_c(4, 5)
    formula_phi_c(2, 3)  # 4^3 = 64 conjuncts, allowed


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_equivalent_maps_free_variable():
    pmap = alpha_equivalent(formula_ncl(2), formula_ncl(2, "w"))
    assert pmap is not None and pmap["x"] == "w"


def test_alpha_equivalent_rejects_shape_mismatch():
    assert alpha_equivalent(formula_ncl(2), formula_ncl(3)) is None


def test_alpha_equivalent_is_injective():
    pat = parse_formula("A u. A v. u*v = v*u")
    assert alpha_equivalent(pat, parse_formula("A a. A b. a*b = b*a")) is not None
    assert alpha_equivalent(pat, parse_formula("A a. A b. a*a = a*a")) is None


# ---------------------------------------------------------------------------
# naive evaluation


def test_eval_simple_sentences(m2):
    assert not eval_formula(m2, parse_formula("A x. A y. x*y = y*x"))
    assert eval_formula(m2, parse_formula("A x. (E y. x*y = 1)"))
    assert eval_formula(m2, parse_formula("A x. x*x^-1 = 1"))


def test_eval_constants(m2):
    t = m2.source.transvection(1, 2, 1)
    m2.register_constant("t", t)
    assert not eval_formula(m2, parse_formula("t*t = 1"))
    assert eval_formula(m2, parse_formula("t*t*t = 1"))


def test_eval_assignment_accepts_elements(m2):
    t = m2.source.transvection(1, 2, 1)
    assert eval_formula(m2, parse_formula("x*x*x = 1"), {"x": t})


def test_eval_unbound_variable(m2):
    with pytest.raises(UnboundVariable):
        eval_formula(m2, parse_formula("q = 1"))


def test_quantifier_restores_a_free_use_of_its_name(m2):
    # x is bound on the left and free on the right; the block must not
    # drop the assignment the right conjunct reads
    phi = parse_formula("(A x. x*x^-1 = 1) & x = y")
    for i in m2.fg.all_indices:
        asg = {"x": i, "y": i}
        assert eval_formula(m2, phi, asg)
        assert semantic_eval(m2, phi, asg)


def test_eval_budget_upfront(m2):
    with pytest.raises(BudgetExceeded):
        eval_formula(m2, parse_formula("A x. x = x"), budget=10)


def test_eval_with_stats_short_circuits(m2):
    value, atoms = eval_with_stats(m2, parse_formula("A x. x = x"))
    assert value and atoms == 12
    value, atoms = eval_with_stats(m2, parse_formula("E x. x = x"))
    assert value and atoms == 1
    value, atoms = eval_with_stats(m2, parse_formula("E x. !(x = x)"))
    assert not value and atoms == 12


def test_short_circuits_skip_an_unbound_name(m2):
    # evaluation is lazy: a disjunct that is never reached never reads z
    phi = parse_formula("x = x | z = 1")
    for i in m2.fg.all_indices:
        assert eval_with_stats(m2, phi, {"x": i}) == (True, 1)
        assert semantic_eval(m2, phi, {"x": i})
    phi = parse_formula("A y. z = y")
    with pytest.raises(UnboundVariable):
        eval_formula(m2, phi)
    with pytest.raises(UnboundVariable):
        semantic_eval(m2, phi)
    # a set atom looks its set up before it evaluates its term
    phi = parse_formula("@Missing(z)")
    with pytest.raises(UnregisteredDefinableSet):
        eval_formula(m2, phi)
    with pytest.raises(UnregisteredDefinableSet):
        semantic_eval(m2, phi)


def test_naive_ncl_computes_each_subterm_once_per_binding(m3_z2, monkeypatch):
    # the body of formula_ncl(3) expands to about 100 group operations but
    # has only O(c) distinct subterms: about 8 operations per atom when each
    # is computed once per binding, 100 when the expanded tree is walked
    calls = [0]

    def counted(method):
        def wrapper(self, *args):
            calls[0] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(FiniteGroup, "op_idx", counted(FiniteGroup.op_idx))
    monkeypatch.setattr(FiniteGroup, "inv_idx", counted(FiniteGroup.inv_idx))
    phi = formula_ncl(3)
    runs = [eval_with_stats(m3_z2, phi, {"x": x}) for x in m3_z2.fg.all_indices]
    assert runs == [(True, 8**4)] * 8  # T_3(Z/2) is nilpotent of class 2
    assert calls[0] <= 400_000


def test_long_and_spines_need_no_recursion():
    # 5^5 = 3,125 conjuncts, nested on the left by and_fold, far past the
    # default recursion limit
    gs = [f"g{k}" for k in range(1, 6)]
    phi = formula_ncl_multi(gs, 4)
    model = model_from_group(TriMatrixGroup(parse_ring("Z/2"), 2))  # order 2, abelian
    asg = {g: i % 2 for i, g in enumerate(gs)}
    assert free_variables(phi) == set(gs)
    assert semantic_eval(model, phi, asg)
    assert eval_with_stats(model, phi, asg) == (True, 3125 * 2**5)
    text = format_formula(phi)
    back = parse_formula(text)
    assert format_formula(back) == text

    def conjuncts(f):  # the spine, walked without recursion
        while isinstance(f, Forall):
            f = f.body
        out = []
        while isinstance(f, And):
            out.append(f.right)
            f = f.left
        return out + [f]

    assert conjuncts(back) == conjuncts(phi) and len(conjuncts(phi)) == 3125
    assert back is phi  # the parser builds the one node of each distinct subterm


@pytest.mark.parametrize("factors", [2000, 2160])
def test_long_products_need_no_recursion(factors):
    # x * x * ... * x nests on the left far past the default recursion
    # limit; it compiles to one node per prefix product, as a fold would
    from triadeform.fologic import _Code

    product = Var("x")
    for _ in range(factors - 1):
        product = Mul(product, Var("x"))
    phi = Forall("x", Eq(product, One()))
    assert len(_Code(phi).nodes) == factors + 1  # x, 1 and the prefixes
    model = model_from_group(TriMatrixGroup(parse_ring("Z/3"), 2))
    fg = model.fg

    def power(x):
        acc = fg.identity_index
        for _ in range(factors):
            acc = fg.op_idx(acc, x)
        return acc

    holds = [power(x) == fg.identity_index for x in fg.all_indices]
    value, atoms = eval_with_stats(model, phi)
    assert value == all(holds) and atoms == (holds.index(False) + 1 if False in holds else fg.order)
    assert value is (factors % 6 == 0)  # T_2(Z/3) has exponent 6


def test_equality_and_hash_need_no_recursion():
    # 5,000 negations and a 5,000-conjunct spine, each far past the
    # default recursion limit, built without the parser
    deep, other = Eq(Var("x"), One()), Eq(Var("y"), One())
    for _ in range(5000):
        deep, other = Not(deep), Not(other)
    assert deep == Not(deep).arg and hash(deep) == hash(Not(deep).arg)
    assert deep != other
    spine = and_fold([Eq(Var(f"x{k % 7}"), One()) for k in range(5000)])
    twin = and_fold([Eq(Var(f"x{k % 7}"), One()) for k in range(5000)])
    assert spine == twin and hash(spine) == hash(twin) and len({spine, twin}) == 1
    assert deep is Not(deep).arg and spine is twin  # equal formulas are one object
    assert spine != and_fold([Eq(Var(f"x{k % 7}"), One()) for k in range(4999)] + [Eq(One(), One())])
    assert Mul(Var("x"), One()) != Mul(One(), Var("x")) and Var("x") != "x"


def test_naive_eval_of_ncl_on_large_carrier_exceeds_budget(m3):
    # 216^3 quantified triples outgrow the default atom budget by design;
    # the semantic path is the supported route on carriers this size
    with pytest.raises(BudgetExceeded):
        eval_formula(m3, formula_ncl(2), {"x": 0})


# ---------------------------------------------------------------------------
# semantic evaluation and its oracles


def test_semantic_matches_naive_ncl_everywhere(m2):
    for c in (1, 2):
        phi = formula_ncl(c)
        naive = defining_set(m2, phi, "x")
        fast = defining_set(m2, phi, "x", semantic=True)
        assert naive == fast


def test_ncl2_defines_fitting_small(m2):
    members = defining_set(m2, formula_ncl(2), "x", semantic=True)
    fitt = fitting_description(m2.source).elements_in(m2.fg)
    assert members == fitt
    assert len(members) == 6


def test_ncl2_defines_fitting_large(m3, big_group):
    members = defining_set(m3, formula_ncl(2), "x", semantic=True)
    fitt = fitting_description(big_group).elements_in(m3.fg)
    assert members == fitt
    assert len(members) == 54


def test_ncl_multi_oracle_agrees_with_naive(m2):
    phi = formula_ncl_multi(["g1", "g2"], 1)
    for a in m2.fg.all_indices:
        for b in m2.fg.all_indices:
            asg = {"g1": a, "g2": b}
            assert semantic_eval(m2, phi, asg) == eval_formula(m2, phi, asg)


def test_width_oracle_small(m2):
    phi = formula_phi_Gprime(1)
    naive = defining_set(m2, phi, "x")
    fast = defining_set(m2, phi, "x", semantic=True)
    assert naive == fast == m2.fg.derived_subgroup()


def test_width_oracle_large(m3, big_group):
    members = defining_set(m3, formula_phi_Gprime(2), "x", semantic=True)
    derived = derived_description(big_group).elements_in(m3.fg)
    assert members == derived
    assert len(members) == 27


def test_relativized_quantifiers(m2):
    m2.register_set("C", m2.fg.center())
    rel_a = parse_formula("A x. (@C(x) -> (A y. [x, y] = 1))")
    rel_e = parse_formula("E x. (@C(x) & !(x = 1))")
    for phi in (rel_a, rel_e):
        assert eval_formula(m2, phi)
        assert semantic_eval(m2, phi)


def test_unregistered_set_raises(m2):
    phi = parse_formula("@Missing(x)")
    with pytest.raises(UnregisteredDefinableSet):
        eval_formula(m2, phi, {"x": 0})
    with pytest.raises(UnregisteredDefinableSet):
        semantic_eval(m2, parse_formula("A x. (@Missing(x) -> x = 1)"))


def test_gu_pm_formula_matches_description(m3, big_group):
    fitt = fitting_description(big_group).elements_in(m3.fg)
    derived = derived_description(big_group).elements_in(m3.fg)
    m3.register_set("Fitt", fitt)
    m3.register_set("Gprime", derived)
    phi = formula_phi_Gu_pm()
    members_naive = defining_set(m3, phi, "x")
    members_fast = defining_set(m3, phi, "x", semantic=True)
    expected = unipotent_pm_description(big_group).elements_in(m3.fg)
    assert members_naive == members_fast == expected
    assert len(expected) == 54


def test_transvection_invariance_formula(m3, big_group):
    # conjugates of the corner transvection stay within {t, t^-1} modulo the
    # center; the short one picks up corner factors and fails
    m3.register_set("Z", m3.fg.center())
    m3.register_constant("corner", big_group.transvection(1, 3, 1))
    m3.register_constant("short", big_group.transvection(1, 2, 1))
    phi_corner = formula_phi_iN("corner", z_set="Z")
    phi_short = formula_phi_iN("short", z_set="Z")
    assert eval_formula(m3, phi_corner)
    assert semantic_eval(m3, phi_corner)
    assert not eval_formula(m3, phi_short)
    assert not semantic_eval(m3, phi_short)


def test_centralizer_formula(m2):
    center = m2.fg.center()
    m2.register_constant("d", m2.source.diagonal_gen(1, 2))
    members = defining_set(m2, formula_phi_D(["d"]), "x")
    # the centralizer of a regular diagonal element is the full diagonal
    assert m2.fg.identity_index in members
    assert all(i in members for i in center)
    assert members == defining_set(m2, formula_phi_D(["d"]), "x", semantic=True)


def test_defining_set_respects_budget(m3):
    with pytest.raises(BudgetExceeded):
        defining_set(m3, formula_ncl(2), "x", budget=100)


def test_width_cache_base_case(m2):
    assert m2.fg.width_products(0) == frozenset({m2.fg.identity_index})
    assert m2.fg.commutator_set() <= m2.fg.width_products(1)


# ---------------------------------------------------------------------------
# oracle blocks in any binder order


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the subgroup computations the semantic oracles ask for."""
    calls = {"ncl": 0, "width": 0}

    def counted(key, method):
        def wrapper(self, *args):
            calls[key] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(Model, "ncl_nilpotency_class", counted("ncl", Model.ncl_nilpotency_class))
    monkeypatch.setattr(FiniteGroup, "width_products", counted("width", FiniteGroup.width_products))
    return calls


REORDERED = [
    ("ncl", "A y2. A y1. [x^y1, x^y2] = 1", formula_ncl(1)),
    ("width", "E y1. E x1. E x2. E y2. x = [x1,y1]*[x2,y2]", formula_phi_Gprime(2)),
]


@pytest.mark.parametrize("model_name", ["m3_z2", "m2"])
@pytest.mark.parametrize("oracle,text,library", REORDERED, ids=["ncl", "width"])
def test_oracles_answer_reordered_binders(request, oracle_calls, model_name, oracle, text, library):
    model = request.getfixturevalue(model_name)
    phi = parse_formula(text)
    assert alpha_equivalent(library, phi) is None  # only the binder order differs
    naive = defining_set(model, phi, "x")
    assert oracle_calls == {"ncl": 0, "width": 0}
    assert defining_set(model, phi, "x", semantic=True) == naive
    # the oracle answered every x instead of expanding the block
    assert oracle_calls[oracle] >= model.fg.order
    assert naive == defining_set(model, library, "x", semantic=True)


def test_ncl_oracle_decides_a_renamed_and_reordered_large_block(oracle_calls):
    # formula_ncl_multi(g1..g5, 4) parsed from its text with the free names
    # renamed and the five binders permuted: the oracle still answers it, and
    # agrees with naive evaluation on a model of order 2
    import re

    text = format_formula(formula_ncl_multi([f"g{k}" for k in range(1, 6)], 4))
    head = "A y1. A y2. A y3. A y4. A y5. "
    assert text.startswith(head)
    text = "A y3. A y5. A y1. A y4. A y2. " + re.sub(r"\bg(\d)\b", r"h\1", text[len(head):])
    phi = parse_formula(text)
    assert free_variables(phi) == {f"h{k}" for k in range(1, 6)}
    model = model_from_group(TriMatrixGroup(parse_ring("Z/2"), 2))
    asg = {f"h{k}": k % 2 for k in range(1, 6)}
    assert semantic_eval(model, phi, asg) is True
    assert oracle_calls["ncl"] == 1
    assert eval_with_stats(model, phi, asg) == (True, 3125 * 2**5)


@pytest.mark.parametrize(
    "text,free",
    [
        ("A y1. A x. [x^y1, x^z] = 1", ["z"]),  # the base name is captured by the block
        ("E x1. E y1. x = [x1, z]", ["x", "z"]),  # y1 is bound but unused; z is free
        ("A y1. A y2. [x^y1, x^z] = 1", ["x", "z"]),  # y2 is bound but unused
    ],
)
def test_blocks_that_only_look_like_oracles_are_expanded(m3_z2, oracle_calls, text, free):
    phi = parse_formula(text)
    carrier = list(m3_z2.fg.all_indices)
    for combo in itertools.product(carrier, repeat=len(free)):
        asg = dict(zip(free, combo))
        assert semantic_eval(m3_z2, phi, asg) == eval_formula(m3_z2, phi, asg), asg
    assert oracle_calls == {"ncl": 0, "width": 0}


# ---------------------------------------------------------------------------
# random formulas: both modes against the restated reference, and round trips

POOL = ("x", "y", "z", "u")
TERMS = st.recursive(
    st.sampled_from([Var(n) for n in POOL] + [One()]),
    lambda sub: st.one_of(st.builds(Mul, sub, sub), st.builds(Inv, sub)),
    max_leaves=4,
)
SETS = st.sampled_from(("Z", "D"))


def _reblock(phi, klass, order):
    """phi's leading block of klass quantifiers, binders in the given order."""
    body = phi
    while isinstance(body, klass):
        body = body.body
    for name in reversed(order):
        body = klass(name, body)
    return body


@st.composite
def formulas(draw, bound=(), binders=3, depth=4):
    """Formulas over POOL that never rebind an enclosing name.  At most
    `binders` quantifiers nest, so evaluating one on a carrier of order N
    takes O(N^binders) atoms.  Oracle leaves (ncl(1), width 1) come with
    their binders in either order.  Left-normed commutators of 2-4
    conjugates repeat their subterms, as the library formulas do."""
    kinds = ["eq", "in", "lnc"]
    if depth:
        kinds += ["not", "and", "or", "imp"]
        if binders and len(bound) < len(POOL):
            kinds += ["A", "E", "A@", "E@"]
    if binders >= 2:
        kinds += ["ncl", "width"]
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        return Eq(draw(TERMS), draw(TERMS))
    if kind == "in":
        return InSet(draw(SETS), draw(TERMS))
    if kind == "lnc":
        pairs = draw(st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)), min_size=2, max_size=4))
        return Eq(left_normed([conj(Var(a), Var(b)) for a, b in pairs]), draw(TERMS))
    if kind in ("ncl", "width"):
        base = draw(st.sampled_from(POOL))
        if kind == "ncl":
            return _reblock(formula_ncl(1, base), Forall, draw(st.permutations(["y1", "y2"])))
        return _reblock(formula_phi_Gprime(1, base), Exists, draw(st.permutations(["x1", "y1"])))
    if kind in ("A", "E", "A@", "E@"):
        var = draw(st.sampled_from([v for v in POOL if v not in bound]))
        body = draw(formulas(bound + (var,), binders - 1, depth - 1))
        if kind == "A@":
            body = Implies(InSet(draw(SETS), Var(var)), body)
        elif kind == "E@":
            body = And(InSet(draw(SETS), Var(var)), body)
        return (Forall if kind[0] == "A" else Exists)(var, body)
    sub = formulas(bound, binders, depth - 1)
    if kind == "not":
        return Not(draw(sub))
    return {"and": And, "or": Or, "imp": Implies}[kind](draw(sub), draw(sub))


@pytest.fixture(scope="module")
def fo_models():
    out = []
    for group in (TriMatrixGroup(parse_ring("Z/3"), 2), DeformedGroup(parse_ring("Z/2"), 3)):
        model = model_from_group(group)
        model.register_set("Z", model.fg.center())
        model.register_set("D", model.fg.derived_subgroup())
        out.append(model)
    return out


def counting_eval(model, phi, env) -> tuple[bool, int]:
    """Naive evaluation restated, counting atoms: every quantifier ranges
    over the whole carrier and stops at the first deciding body value,
    connectives short-circuit left to right, and each atom reached counts
    one."""
    fg, atoms = model.fg, [0]

    def value(t, env):
        if isinstance(t, One):
            return fg.identity_index
        if isinstance(t, Var):
            return env[t.name] if t.name in env else model.constants[t.name]
        if isinstance(t, Mul):
            return fg.op_idx(value(t.left, env), value(t.right, env))
        return fg.inv_idx(value(t.arg, env))

    def holds(f, env):
        if isinstance(f, (Eq, InSet)):
            atoms[0] += 1
            if isinstance(f, Eq):
                return value(f.left, env) == value(f.right, env)
            return value(f.arg, env) in model.definable_sets[f.set_name]
        if isinstance(f, Not):
            return not holds(f.arg, env)
        if isinstance(f, And):
            return holds(f.left, env) and holds(f.right, env)
        if isinstance(f, Or):
            return holds(f.left, env) or holds(f.right, env)
        if isinstance(f, Implies):
            return not holds(f.left, env) or holds(f.right, env)
        want = isinstance(f, Exists)
        for i in fg.all_indices:
            if holds(f.body, {**env, f.var: i}) == want:
                return want
        return not want

    return holds(phi, env), atoms[0]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_formulas_agree_with_reference(fo_models, data):
    model = data.draw(st.sampled_from(fo_models))
    phi = data.draw(formulas())
    carrier = st.sampled_from(list(model.fg.all_indices))
    asg = {v: data.draw(carrier) for v in sorted(free_variables(phi))}
    expected = reference_eval(model, phi, asg)
    value, atoms = counting_eval(model, phi, asg)
    assert value == expected
    assert eval_with_stats(model, phi, asg) == (expected, atoms)
    assert semantic_eval(model, phi, asg) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(phi=formulas())
def test_random_formulas_round_trip(phi):
    printed = format_formula(phi)
    assert parse_formula(printed) == phi
    assert format_formula(parse_formula(printed)) == printed
