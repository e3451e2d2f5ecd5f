"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints exactly one verdict line (PASS/FAIL plus elapsed time) so
a captured log shows the scoreboard at a glance; run with `-s` to stream.
Oracles are restated locally (Pell search, Fraction linear solve, section
enumeration, commutator closure, a first-order evaluator) instead of
imported, so a library bug cannot vouch for itself.  Criteria 1, 3 and 5 carry wall-clock caps.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from triadeform import (
    CarryCocycle,
    CoboundaryOf,
    DeformedGroup,
    FgAbelian,
    FunctionTable,
    MonomialPsi,
    TriMatrixGroup,
    brute_force_fitting,
    check_presentation,
    commutator_width_check,
    defining_set,
    deformed_to_matrix,
    derived_description,
    eval_formula,
    eval_psi,
    ext_group,
    fitting_description,
    fn_identity_check,
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
    from_group,
    fundamental_unit,
    is_coboundary,
    is_cot,
    is_square_unit,
    model_from_group,
    parse_ring,
    semantic_eval,
    split_isomorphism,
    torsion_split_check,
    trivial_cocycle,
    unit_decompose,
    unit_group,
    verify_cocycle,
)
from triadeform.cocycles import DictPsi
from triadeform.fologic import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    InSet,
    Inv,
    Mul,
    Not,
    One,
    Or,
    Var,
    free_variables,
)

SEED = 20260814

FIVE_FAMILIES = {
    "transvection-additivity",
    "disjoint-commutation",
    "overlap-commutation",
    "diagonal-subgroup",
    "diagonal-conjugation",
}


@contextmanager
def criterion(num: int, title: str, cap_seconds: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if cap_seconds is not None and elapsed > cap_seconds:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {cap_seconds:.0f}s cap")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {title}: {verdict} ({elapsed:.1f}s)", flush=True)


def _carry_group(spec: str, n: int, target):
    r = parse_ring(spec)
    u = unit_group(r)
    fs = (CarryCocycle(u, u, {0: target}),) + tuple(trivial_cocycle(u, u) for _ in range(n - 2))
    return DeformedGroup(r, n, fs)


# ---------------------------------------------------------------------------
# 1. presentation fidelity


def test_criterion_01_presentation_fidelity():
    with criterion(1, "presentation fidelity", cap_seconds=60.0):
        # small finite coefficients: the checker enumerates whole pools
        for spec in ("Z/3", "Z/5"):
            reports = check_presentation(
                DeformedGroup(parse_ring(spec), 3), trials=40, rng=random.Random(SEED)
            )
            assert {rep.family for rep in reports} == FIVE_FAMILIES
            assert all(rep.ok for rep in reports), reports
        # infinite coefficients: seeded sampling, first factor twisted by a
        # nontrivial cocycle that still splits on torsion
        q4 = Fraction(4)
        for group in (
            _carry_group("Q", 3, q4),
            _carry_group("Q", 4, q4),
            _carry_group("Z[sqrt(2)]", 3, (3, 2)),
        ):
            assert all(torsion_split_check(group, i) for i in range(1, group.n))
            reports = check_presentation(group, trials=1000, rng=random.Random(SEED))
            assert {rep.family for rep in reports} == FIVE_FAMILIES
            assert all(rep.ok for rep in reports), reports
            assert sum(rep.checked for rep in reports) >= 1000


# ---------------------------------------------------------------------------
# 2. untwisted multiply vs exact matrix multiply


def test_criterion_02_untwisted_matches_matrix_product():
    with criterion(2, "untwisted multiply = matrix multiply"):
        rng = random.Random(SEED)
        for spec in ("Z/3", "Z/5", "Z", "Q", "Z[sqrt(2)]"):
            r = parse_ring(spec)
            u = unit_group(r)
            group = DeformedGroup(r, 3, tuple(trivial_cocycle(u, u) for _ in range(2)))
            for _ in range(1000):
                a, b = group.sample(rng), group.sample(rng)
                prod = deformed_to_matrix(group, group.op(a, b))
                ma, mb = deformed_to_matrix(group, a), deformed_to_matrix(group, b)
                assert ma.mul(mb).rows == prod.rows, (spec, a, b)


# ---------------------------------------------------------------------------
# 3. derived subgroup oracle


def test_criterion_03_derived_subgroup_oracle(t3_z3, t3_z3_fg):
    with criterion(3, "derived subgroup oracle", cap_seconds=120.0):
        brute = t3_z3_fg.derived_subgroup()
        described = derived_description(t3_z3).elements_in(t3_z3_fg)
        assert brute == described
        assert len(brute) == 27
        # membership over Z: the superdiagonal must land in the ideal (2)
        tz = DeformedGroup(parse_ring("Z"), 3)
        desc_z = derived_description(tz)
        assert not desc_z.contains(tz.transvection(1, 2, 1))
        assert desc_z.contains(tz.transvection(1, 2, 2))
        assert desc_z.contains(tz.transvection(1, 3, 1))
        report = commutator_width_check(t3_z3_fg, 3)
        assert report.within_bound and report.bound == 3
        assert report.width_needed == 1
        assert report.derived_order == 27


# ---------------------------------------------------------------------------
# 4. Fitting oracle


def _element_set(model, indices):
    return {model.fg.elem(i) for i in indices}


def test_criterion_04_fitting_oracle(t3_z3, t3_z3_fg, t2_z3, t2_z3_fg):
    with criterion(4, "Fitting oracle"):
        rep3 = brute_force_fitting(t3_z3_fg, class_bound=2)
        assert rep3.verified and rep3.order == 54
        described = {t3_z3_fg.elem(i) for i in fitting_description(t3_z3).elements_in(t3_z3_fg)}
        brute3 = {t3_z3_fg.elem(i) for i in rep3.indices}
        assert brute3 == described
        m3 = model_from_group(t3_z3)
        sem = _element_set(m3, defining_set(m3, formula_ncl(2), "x", semantic=True))
        assert sem == brute3
        # small model again, this time through the quantifier-expansion path
        rep2 = brute_force_fitting(t2_z3_fg, class_bound=2)
        assert rep2.verified and rep2.order == 6
        brute2 = {t2_z3_fg.elem(i) for i in rep2.indices}
        assert brute2 == {t2_z3_fg.elem(i) for i in fitting_description(t2_z3).elements_in(t2_z3_fg)}
        m2 = model_from_group(t2_z3)
        naive = _element_set(m2, defining_set(m2, formula_ncl(2), "x"))
        assert naive == brute2


# ---------------------------------------------------------------------------
# 5. FO soundness: both evaluation modes vs a restated reference


def _models_up_to_20():
    # every triangular model with order <= 20 over the finite residue rings:
    # n = 2 over Z/2, Z/3, Z/4 and n = 3 over Z/2 (both construction lanes)
    out = [
        TriMatrixGroup(parse_ring("Z/2"), 2),
        TriMatrixGroup(parse_ring("Z/3"), 2),
        TriMatrixGroup(parse_ring("Z/4"), 2),
        TriMatrixGroup(parse_ring("Z/2"), 3),
        DeformedGroup(parse_ring("Z/2"), 3),
    ]
    assert all(g.order() <= 20 for g in out)
    # the next candidates in each direction are already past the bound
    assert TriMatrixGroup(parse_ring("Z/5"), 2).order() > 20
    assert TriMatrixGroup(parse_ring("Z/2"), 4).order() > 20
    assert DeformedGroup(parse_ring("Z/3"), 3).order() > 20
    return out


def _library():
    return [
        formula_phi_c(1, 1),
        formula_phi_c(2, 2),
        formula_phi_eq_c(2, 1),
        formula_max_nilpotent_membership("g", ["g1"], 1),
        formula_ncl(1),
        formula_ncl(2),
        formula_ncl_multi(["x1", "x2"], 1),
        formula_fitt_ck(1, 1),
        formula_phi_c_star(1),
        formula_phi_Gprime(1),
        formula_phi_Gu_pm(),
        formula_phi_D(["d"]),
        formula_phi_iN("tcorner", z_set="Z"),
    ]


def _prepared_model(group):
    fg = from_group(group)
    units = list(group.ring.units())
    model = model_from_group(group)
    model.register_set("Z", fg.center())
    model.register_set("Gprime", fg.derived_subgroup())
    model.register_set("Fitt", brute_force_fitting(fg, class_bound=2).indices)
    model.register_constant("tcorner", group.transvection(1, group.n, group.ring.one))
    model.register_constant("d", group.diagonal_gen(1, units[-1]))
    return model


def reference_eval(model, phi, env) -> bool:
    """Tarski semantics restated: every quantifier ranges over the whole
    carrier, with no budget, oracles or relativisation."""
    fg = model.fg

    def value(t, env):
        if isinstance(t, One):
            return fg.identity_index
        if isinstance(t, Var):
            return env[t.name] if t.name in env else model.constants[t.name]
        if isinstance(t, Mul):
            return fg.op_idx(value(t.left, env), value(t.right, env))
        if isinstance(t, Inv):
            return fg.inv_idx(value(t.arg, env))
        raise TypeError(t)

    def holds(f, env):
        if isinstance(f, Eq):
            return value(f.left, env) == value(f.right, env)
        if isinstance(f, InSet):
            return value(f.arg, env) in model.definable_sets[f.set_name]
        if isinstance(f, Not):
            return not holds(f.arg, env)
        if isinstance(f, And):
            return holds(f.left, env) and holds(f.right, env)
        if isinstance(f, Or):
            return holds(f.left, env) or holds(f.right, env)
        if isinstance(f, Implies):
            return not holds(f.left, env) or holds(f.right, env)
        if isinstance(f, (Forall, Exists)):
            quantifier = all if isinstance(f, Forall) else any
            return quantifier(holds(f.body, {**env, f.var: i}) for i in fg.all_indices)
        raise TypeError(f)

    return holds(phi, env)


def test_criterion_05_fo_soundness():
    with criterion(5, "FO semantic soundness", cap_seconds=300.0):
        compared = 0
        for group in _models_up_to_20():
            model = _prepared_model(group)
            carrier = list(model.fg.all_indices)
            for phi in _library():
                frees = sorted(free_variables(phi) - set(model.constants))
                for combo in itertools.product(carrier, repeat=len(frees)):
                    asg = dict(zip(frees, combo))
                    expected = reference_eval(model, phi, asg)
                    assert eval_formula(model, phi, asg) == expected, (group, phi, asg)
                    assert semantic_eval(model, phi, asg) == expected, (group, phi, asg)
                    compared += 1
        assert compared > 2000


# ---------------------------------------------------------------------------
# 6. cocycle calculus vs section enumeration


SMALL_SHAPES = {
    2: [(2,)],
    3: [(3,)],
    4: [(4,), (2, 2)],
    5: [(5,)],
    6: [(6,)],
    7: [(7,)],
    8: [(8,), (2, 4), (2, 2, 2)],
}


def _ab_groups(bound):
    for order in sorted(SMALL_SHAPES):
        if order > bound:
            return
        for shape in SMALL_SHAPES[order]:
            yield FgAbelian(shape)


def _ext_pow_linear(f, x, m):
    # x^m in E(f) as m products (b1, a1)(b2, a2) = (b1 b2, a1 a2 f(b1, b2))
    b, a = f.domain, f.codomain
    acc = (b.identity, a.identity)
    for _ in range(m):
        acc = (b.op(acc[0], x[0]), a.op(a.op(acc[1], x[1]), f(acc[0], x[0])))
    return acc


def _splits_by_section_search(f) -> bool:
    # a section exists iff each torsion generator g of order m has a lift
    # (g, alpha) of order m in E(f); E(f) is abelian, so the lifts of
    # different factors never constrain each other and each is searched alone
    b, a = f.domain, f.codomain
    identity = (b.identity, a.identity)
    return all(
        any(_ext_pow_linear(f, (b.torsion_factor_generator(i), alpha), m) == identity for alpha in a.elements())
        for i, m in enumerate(b.torsion_factors)
    )


def _all_carries(b, a):
    k = len(b.torsion_factors)
    for targets in itertools.product(a.elements(), repeat=k):
        yield CarryCocycle(b, a, dict(enumerate(targets)))


def _psi_defect_table(b, a, psi_table, carry):
    def psi(x):
        return psi_table[x]

    table = {
        (x, y): a.op(
            a.op(psi(b.op(x, y)), a.inverse(a.op(psi(x), psi(y)))), carry(x, y)
        )
        for x in b.elements()
        for y in b.elements()
    }
    return FunctionTable(b, a, table)


def test_criterion_06_cocycle_calculus():
    with criterion(6, "cocycle calculus"):
        for b in _ab_groups(8):
            for a in _ab_groups(8):
                for f in _all_carries(b, a):
                    assert (is_coboundary(f) is not None) == _splits_by_section_search(f), (b, a, f)
        # table-backed cocycles: shift every carry by a coboundary defect
        rng = random.Random(SEED)
        for b in _ab_groups(4):
            for a in _ab_groups(4):
                elems = list(a.elements())
                psi_table = {x: rng.choice(elems) for x in b.elements()}
                psi_table[b.identity] = a.identity
                for f in _all_carries(b, a):
                    g = _psi_defect_table(b, a, psi_table, f)
                    assert verify_cocycle(g).ok
                    assert (is_coboundary(g) is not None) == _splits_by_section_search(g)
        # class counts
        for b in _ab_groups(6):
            for a in _ab_groups(6):
                ext = ext_group(b, a)
                order = 1
                for d in ext.invariant_factors:
                    order *= d
                reps = []
                for f in _all_carries(b, a):
                    from triadeform import cocycle_inverse, cocycle_product

                    if not any(
                        _splits_by_section_search(cocycle_product(f, cocycle_inverse(g)))
                        for g in reps
                    ):
                        reps.append(f)
                assert order == len(reps), (b, a)
        # free domains never obstruct a finite torsion codomain
        shapes = [shape for order in SMALL_SHAPES for shape in SMALL_SHAPES[order]]
        for _ in range(50):
            b = FgAbelian((), rng.randint(1, 4))
            t = FgAbelian(rng.choice(shapes))
            assert ext_group(b, t).invariant_factors == ()


# ---------------------------------------------------------------------------
# 7. torsion splitting over a real quadratic order


def _pell_brute(d: int, y_cap: int = 10_000):
    # smallest unit > 1 solves x^2 - d y^2 = +-1 with minimal y
    for y in range(1, y_cap + 1):
        for n in (1, -1):
            x2 = n + d * y * y
            if x2 <= 0:
                continue
            x = int(x2**0.5)
            for cand in (x - 1, x, x + 1):
                if cand > 0 and cand * cand == x2:
                    return (cand, y)
    raise AssertionError(f"no Pell solution with y <= {y_cap} for d={d}")


def test_criterion_07_cot_discrimination():
    with criterion(7, "torsion-splitting discrimination"):
        rs = parse_ring("Z[sqrt(2)]")
        us = unit_group(rs)
        assert _pell_brute(2) == (1, 1) == fundamental_unit(2) == us.free_basis[0]
        assert not is_cot(CarryCocycle(us, us, {0: (1, 1)}))
        assert is_cot(CarryCocycle(us, us, {0: (3, 2)}))
        assert not torsion_split_check(_carry_group("Z[sqrt(2)]", 3, (1, 1)), 1)
        assert torsion_split_check(_carry_group("Z[sqrt(2)]", 3, (3, 2)), 1)
        # agreeing with the square test through exponent decomposition
        for k in range(-4, 5):
            for sign in (rs.one, rs.neg(rs.one)):
                u = rs.mul(sign, rs.unit_pow((1, 1), k))
                t, free = unit_decompose(us, u)
                even = t % 2 == 0 and free.get(0, 0) % 2 == 0
                assert is_square_unit(us, u) == even
                assert is_cot(CarryCocycle(us, us, {0: u})) == even


# ---------------------------------------------------------------------------
# 8. splitting isomorphism for witness-carrying twists


def _hom_and_inverse(group, iso, pairs):
    for a, b in pairs:
        assert iso.forward(group.op(a, b)) == iso.forward(a).mul(iso.forward(b))
    for a, _ in pairs:
        assert iso.backward(iso.forward(a)) == a
        assert iso.forward(iso.backward(iso.forward(a))) == iso.forward(a)


def test_criterion_08_split_isomorphism():
    with criterion(8, "splitting isomorphism"):
        r5 = parse_ring("Z/5")
        u5 = unit_group(r5)
        psi5 = DictPsi(u5, u5, {1: 1, 2: 2, 3: 4, 4: 3})
        g5 = DeformedGroup(r5, 3, (CoboundaryOf(u5, u5, psi5), trivial_cocycle(u5, u5)))
        iso5 = split_isomorphism(g5)
        assert iso5 is not None
        # every t_ij(1), d_k(u) and diag(u) for u != 1: 15 elements, 225 pairs
        others = [u for u in r5.units() if u != r5.one]
        gens = [g5.transvection(i, j, 1) for i in range(1, 4) for j in range(i + 1, 4)]
        gens += [g5.diagonal_gen(k, u) for k in range(1, 4) for u in others] + [g5.central(u) for u in others]
        assert len(gens) == 15
        _hom_and_inverse(g5, iso5, [(a, b) for a in gens for b in gens])
        # a genuinely twisted group is refused
        assert split_isomorphism(_carry_group("Z/5", 3, 2)) is None
        # rational case: sampled pairs
        q = parse_ring("Q")
        uq = unit_group(q)
        psi_q = MonomialPsi(uq, uq, {0: Fraction(1, 2)}, {})
        gq = DeformedGroup(q, 3, (CoboundaryOf(uq, uq, psi_q), trivial_cocycle(uq, uq)))
        iso_q = split_isomorphism(gq)
        assert iso_q is not None
        rng = random.Random(SEED)
        _hom_and_inverse(gq, iso_q, [(gq.sample(rng), gq.sample(rng)) for _ in range(1000)])


# ---------------------------------------------------------------------------
# 9. the n-th diagonal family identity


def test_criterion_09_fn_identity():
    with criterion(9, "n-th twist product identity"):
        g5 = _carry_group("Z/5", 3, 2)
        pairs = 0
        for a in g5.ring.units():
            for b in g5.ring.units():
                ok, lhs, rhs = fn_identity_check(g5, a, b)
                assert ok and lhs == rhs, (a, b, lhs, rhs)
                pairs += 1
        assert pairs == 16
        gs = _carry_group("Z[sqrt(2)]", 3, (3, 2))
        torsion = ((1, 0), (-1, 0))
        for a in torsion:
            for b in torsion:
                ok, lhs, rhs = fn_identity_check(gs, a, b)
                assert ok and lhs == rhs, (a, b, lhs, rhs)


# ---------------------------------------------------------------------------
# 10. the divisibility predicate vs a Fraction-algebra restatement


LAM = (3, 2)


def _divides_oracle(d: int, a, b) -> bool:
    a0, a1 = a
    b0, b1 = b
    det = Fraction(a0 * a0 - d * a1 * a1)
    if det == 0:
        raise ZeroDivisionError
    x = (Fraction(b0) * a0 - d * Fraction(b1) * a1) / det
    y = (Fraction(b1) * a0 - Fraction(b0) * a1) / det
    return x.denominator == 1 and y.denominator == 1


def _psi_oracle(r, s, lam, alpha, beta, delta, a) -> bool:
    if alpha == r.one or delta == r.one:
        return False
    d1 = r.sub(delta, r.one)
    for i in range(1, s + 1):
        lhs = r.sub(r.mul(alpha, r.unit_pow(lam, i)), r.one)
        if lhs == r.zero:
            if d1 != r.zero:
                return False
            continue
        if not _divides_oracle(r.d, lhs, d1):
            return False
    gate = r.add(r.one, r.mul(r.sub(beta, r.one), alpha))
    if gate == r.zero:
        return a == r.zero
    return _divides_oracle(r.d, gate, a)


def test_criterion_10_psi_predicate():
    with criterion(10, "divisibility predicate"):
        r = parse_ring("Z[sqrt(2)]")
        rng = random.Random(SEED)
        for _ in range(200):
            s = rng.randint(1, 3)
            alpha = r.unit_pow(LAM, rng.randint(-3, 4))
            beta = r.unit_pow(LAM, rng.randint(-3, 4))
            delta = r.unit_pow(LAM, rng.randint(-4, 5))
            a = r.random_elem(rng)
            assert eval_psi(r, s, LAM, alpha, beta, delta, a) == _psi_oracle(
                r, s, LAM, alpha, beta, delta, a
            )
        beta = r.unit_pow(LAM, 2)
        delta = r.unit_pow(LAM, 6)
        gate = r.add(r.one, r.mul(r.sub(beta, r.one), LAM))
        assert eval_psi(r, 2, LAM, LAM, beta, delta, r.mul(gate, (7, 0))) is True
        gate1 = r.add(r.one, r.mul(r.sub(beta, r.one), r.one))
        assert eval_psi(r, 2, LAM, r.one, beta, delta, r.mul(gate1, (7, 0))) is False
