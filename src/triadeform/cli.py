"""Command-line surface: build groups, run the presentation, cocycle and
structure checks, evaluate formulas, and emit schema-conforming reports.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails (the report carries a witness),
2 on usage errors (bad syntax, unreadable files, unsupported domains),
3 on any other exception, which is a fault in the library, not in the input.
All randomized commands derive their generator from the resolved seed, so
repeated runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Each handler and loader imports the submodules it calls, so a command
# compiles only those (a source-rule test holds this list).
from .config import DEFAULT_BUDGET, DEFAULT_OUTPUT, DEFAULT_TRIALS, Config, resolve_seed
from .errors import ParseError, TriadeformError
from .report import CheckReport


# ---------------------------------------------------------------------------
# shared loaders


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _group_from_json(data):
    """Group description: {"ring", "n", "kind"?, "cocycles"?}.

    Each cocycle entry is either a full cocycle document (with carriers) or
    a bare backend; bare backends default both carriers to the unit group of
    the ambient ring.
    """
    from . import cocycles, rings, trigroup

    spec = cocycles._field(data, "ring", "", str)
    n = cocycles._field(data, "n", "", int)
    ring = rings.parse_ring(spec)
    kind = data.get("kind", "deformed")
    if kind == "matrix":
        return trigroup.TriMatrixGroup(ring, n)
    if kind != "deformed":
        raise ParseError(f"unknown group kind {kind!r}")
    raw = data.get("cocycles")
    if raw is None:
        return trigroup.DeformedGroup(ring, n)
    if not isinstance(raw, list):
        raise ParseError(f"field 'cocycles' must be a list, got {raw!r}")
    units = rings.unit_group(ring)
    built = []
    for k, entry in enumerate(raw):
        path = f"cocycles[{k}]"
        if entry is None:
            built.append(cocycles.trivial_cocycle(units, units))
        elif isinstance(entry, dict) and "domain" in entry:
            built.append(cocycles.cocycle_from_json(entry, path))
        else:
            built.append(cocycles._backend_from_json(units, units, entry, path))
    return trigroup.DeformedGroup(ring, n, tuple(built))


def _load_group(path: str):
    return _group_from_json(_load_json(path))


def _parse_fg_abelian(text: str, arg: str) -> abgroups.FgAbelian:
    """Comma-separated cyclic orders; 0 denotes a Z factor, e.g. "4,0"."""
    from . import abgroups

    try:
        orders = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError(f"argument {arg} must be comma-separated integers, got {text!r}") from None
    free = sum(1 for d in orders if d == 0)
    torsion = [d for d in orders if d != 0]
    return abgroups.FgAbelian.from_cyclic_orders(torsion, free)


def _witness_text(psi: cocycles.SplitSectionPsi) -> str:
    parts = []
    for idx in sorted(psi.roots):
        root = psi.roots[idx]
        if root != psi.codomain.identity:
            gen = psi.domain.torsion_factor_generator(idx)
            parts.append(f"psi({psi.domain.format_elem(gen)})={psi.codomain.format_elem(root)}")
    return "; ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# ring commands


def cmd_ring(args, cfg: Config) -> CheckReport:
    from . import rings

    ring = rings.parse_ring(args.ring)
    if args.ring_cmd == "info":
        data = {"spec": ring.spec, "kind": ring.kind, "finite": ring.is_finite}
        if ring.is_finite:
            data["order"] = ring.size()
            data["unit_count"] = ring.unit_count()
        return CheckReport("ring info", "exact-arith", True, data)
    if args.ring_cmd == "units":
        u = rings.unit_group(ring)
        data = {
            "torsion_factors": list(u.torsion_factors),
            "torsion_generators": [ring.format_elem(g) for g in u.generators()[: len(u.torsion_factors)]],
            "fundamental_units": [ring.format_elem(b) for b in u.free_basis],
            "basis_mode": u.basis_mode,
        }
        return CheckReport("ring units", "unit-struct", True, data)
    if args.ring_cmd == "divides":
        a = ring.parse_elem(args.a)
        b = ring.parse_elem(args.b)
        verdict = rings.divides(ring, a, b)
        data = {"a": ring.format_elem(a), "b": ring.format_elem(b), "divides": verdict}
        witness = None if verdict else f"{ring.format_elem(a)} does not divide {ring.format_elem(b)}"
        return CheckReport("ring divides", "divisibility", verdict, data, witness)
    if args.ring_cmd == "psi":
        lam = ring.parse_elem(args.lam)
        alpha = ring.parse_elem(args.alpha)
        beta = ring.parse_elem(args.beta)
        delta = ring.parse_elem(args.delta)
        a = ring.parse_elem(args.a)
        verdict = rings.eval_psi(ring, args.s, lam, alpha, beta, delta, a)
        data = {
            "s": args.s,
            "lambda": ring.format_elem(lam),
            "alpha": ring.format_elem(alpha),
            "beta": ring.format_elem(beta),
            "delta": ring.format_elem(delta),
            "a": ring.format_elem(a),
            "value": verdict,
        }
        return CheckReport("ring psi", "psi-pred", verdict, data)


# ---------------------------------------------------------------------------
# ext command


def cmd_ext(args, cfg: Config) -> CheckReport:
    from . import abgroups

    b = _parse_fg_abelian(args.b, "b")
    a = _parse_fg_abelian(args.a, "a")
    ext = abgroups.ext_group(b, a)
    data = {
        "b": {"invariants": list(b.invariant_factors), "free_rank": b.free_rank},
        "a": {"invariants": list(a.invariant_factors), "free_rank": a.free_rank},
        "ext_invariants": list(ext.invariant_factors),
        "ext_order": math.prod(ext.invariant_factors),
        "trivial": not ext.invariant_factors and ext.free_rank == 0,
    }
    return CheckReport("ext", "ext-invariants", True, data)


# ---------------------------------------------------------------------------
# cocycle commands


def cmd_cocycle(args, cfg: Config) -> CheckReport:
    from . import cocycles

    f = cocycles.cocycle_from_json(_load_json(args.file))
    if args.cocycle_cmd == "verify":
        rep = cocycles.verify_cocycle(f, trials=cfg.trials, rng=cfg.rng())
        data = {"checked": rep.checked, "exhaustive": rep.exhaustive}
        witness = None if rep.ok else repr(rep.failure)
        return CheckReport("cocycle verify", "cocycle-axioms", rep.ok, data, witness, seed=cfg.rng_seed)
    if args.cocycle_cmd == "is-coboundary":
        psi = cocycles.is_coboundary(f)
        verdict = psi is not None
        data = {"coboundary": verdict}
        if verdict:
            data["witness"] = _witness_text(psi)
        return CheckReport("cocycle is-coboundary", "coboundary-split", verdict, data)
    if args.cocycle_cmd == "is-cot":
        verdict = cocycles.is_cot(f)
        return CheckReport("cocycle is-cot", "CoT", verdict, {"cot": verdict})
    if args.cocycle_cmd == "transport":
        psi = _hom_from_json(_load_json(args.psi), "--psi")
        eta = _hom_from_json(_load_json(args.eta), "--eta")
        out = cocycles.transport_cocycle(f, psi, eta)
        try:
            payload = out.to_json()
        except TriadeformError:
            payload = {"materialized": False, "kind": type(out).__name__}
        return CheckReport("cocycle transport", "transport", True, {"result": payload})


def _hom_from_json(data, flag: str) -> abgroups.AbHom:
    """Hom document {"domain", "codomain", "matrix"}, the groups as
    {"invariants"?, "free_rank"?}; ParseError naming the flag and field."""
    from . import abgroups, cocycles

    try:
        groups = []
        for side in ("domain", "codomain"):
            group = cocycles._field(data, side, "", dict)
            factors = cocycles._int_list(cocycles._field(group, "invariants", side, list, []), f"{side}.invariants")
            groups.append(abgroups.FgAbelian(tuple(factors), cocycles._field(group, "free_rank", side, int, 0)))
        matrix = cocycles._field(data, "matrix", "", list)
        for k, row in enumerate(matrix):
            cocycles._int_list(row, f"matrix[{k}]")
    except ParseError as exc:
        raise ParseError(f"{flag} document: {exc}") from exc
    return abgroups.AbHom(*groups, matrix)


# ---------------------------------------------------------------------------
# group commands


def cmd_group(args, cfg: Config) -> CheckReport:
    from . import trigroup

    group = _load_group(args.group)
    if args.group_cmd == "build":
        data = {
            "ring": group.ring.spec,
            "n": group.n,
            "kind": "matrix" if isinstance(group, trigroup.TriMatrixGroup) else "deformed",
            "finite": group.is_finite,
        }
        if isinstance(group, trigroup.DeformedGroup):
            data["twisted"] = not group.is_untwisted
        if group.is_finite:
            data["order"] = group.order()
        return CheckReport("group build", "deformation-def", True, data)
    if args.group_cmd == "mul":
        x = group._elem_from_json(json.loads(args.x), "--x")
        y = group._elem_from_json(json.loads(args.y), "--y")
        product = group.op(x, y)
        return CheckReport("group mul", "normal-form-mul", True, {"product": group.elem_to_json(product)})
    if args.group_cmd == "check-presentation":
        reports = trigroup.check_presentation(group, trials=cfg.trials, rng=cfg.rng())
        ok = all(r.ok for r in reports)
        data = {"families": [r.to_json() for r in reports]}
        failing = [r.family for r in reports if not r.ok]
        witness = None if ok else f"failing families: {', '.join(failing)}"
        return CheckReport("group check-presentation", "presentation", ok, data, witness, seed=cfg.rng_seed)
    if args.group_cmd == "fn-identity":
        return _fn_identity_report(group, args, cfg)
    if args.group_cmd == "split-iso":
        return _split_iso_report(group, cfg)
    if args.group_cmd == "enumerate":
        elems = list(group.elements())
        data = {"order": len(elems)}
        if args.list_elements:
            data["elements"] = [group.elem_to_json(g) for g in elems]
        return CheckReport("group enumerate", "enumeration", True, data)


def _fn_identity_report(group, args, cfg: Config) -> CheckReport:
    from . import rings, trigroup

    if not isinstance(group, trigroup.DeformedGroup):
        raise ParseError("fn-identity needs a deformed group description")
    ring = group.ring
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ParseError("--alpha and --beta must be provided together")
        pairs = [(ring.parse_elem(args.alpha), ring.parse_elem(args.beta))]
    else:
        rng = cfg.rng()
        units = rings.unit_group(ring)
        if units.is_finite and units.order() ** 2 <= 4096:
            pool = units.elements()
            pairs = [(a, b) for a in pool for b in pool]
        else:
            pairs = [(ring.random_unit(rng), ring.random_unit(rng)) for _ in range(cfg.trials)]
    failures = []
    for a, b in pairs:
        ok, lhs, rhs = trigroup.fn_identity_check(group, a, b)
        if not ok:
            failures.append((ring.format_elem(a), ring.format_elem(b)))
    verdict = not failures
    data = {"pairs_checked": len(pairs), "failures": len(failures)}
    witness = None if verdict else f"first failing pair: {failures[0]}"
    return CheckReport("group fn-identity", "fn-inverse", verdict, data, witness, seed=cfg.rng_seed)


def _split_iso_report(group, cfg: Config) -> CheckReport:
    from . import trigroup

    if not isinstance(group, trigroup.DeformedGroup):
        raise ParseError("split-iso needs a deformed group description")
    iso = trigroup.split_isomorphism(group)
    if iso is None:
        return CheckReport(
            "group split-iso",
            "splitting-iso",
            False,
            {"split": False},
            witness="some factor cocycle is not a coboundary",
        )
    rng = cfg.rng()
    checked = 0
    for _ in range(cfg.trials):
        a = group.sample(rng)
        b = group.sample(rng)
        lhs = iso.forward(group.op(a, b))
        rhs = iso.forward(a).mul(iso.forward(b))
        if lhs != rhs or iso.backward(iso.forward(a)) != a:
            return CheckReport(
                "group split-iso",
                "splitting-iso",
                False,
                {"split": True, "verified_pairs": checked},
                witness="homomorphism property failed on a sampled pair",
                seed=cfg.rng_seed,
            )
        checked += 1
    data = {"split": True, "verified_pairs": checked, "round_trip": True}
    return CheckReport("group split-iso", "splitting-iso", True, data, seed=cfg.rng_seed)


# ---------------------------------------------------------------------------
# structure commands


def cmd_structure(args, cfg: Config) -> CheckReport:
    from . import structure
    from .finitegroup import from_group

    group = _load_group(args.group)
    if args.structure_cmd == "center":
        return _description_report(group, structure.center_description(group), "center", "center-desc", lambda fg: fg.center())
    if args.structure_cmd == "derived":
        return _description_report(
            group, structure.derived_description(group), "derived", "derived-desc", lambda fg: fg.derived_subgroup()
        )
    if args.structure_cmd == "fitting":
        desc = structure.fitting_description(group)
        if not args.brute_force:
            data = {"kind": desc.kind, "generator_family": desc.generator_family}
            return CheckReport("structure fitting", "Fitt-desc", True, data)
        fg = from_group(group)
        rep = structure.brute_force_fitting(fg, class_bound=args.class_bound)
        described = desc.elements_in(fg)
        agrees = described == rep.indices
        data = dict(rep.to_json())
        data["agrees_with_description"] = agrees
        ok = agrees and rep.verified
        witness = None if ok else "brute-force Fitting subgroup disagrees with the description"
        return CheckReport("structure fitting", "Fitt-desc", ok, data, witness)
    if args.structure_cmd == "width":
        fg = from_group(group)
        rep = structure.commutator_width_check(fg, bound=args.bound)
        witness = None if rep.within_bound else f"width {rep.width_needed} exceeds bound {rep.bound}"
        return CheckReport("structure width", "verbal-width", rep.within_bound, rep.to_json(), witness)
    if args.structure_cmd == "torus":
        x = group._elem_from_json(json.loads(args.elem), "--elem")
        alpha = structure.torus_membership(group, args.index, x)
        member = alpha is not None
        data = {"i": args.index, "member": member}
        if member:
            data["alpha"] = group.ring.format_elem(alpha)
        return CheckReport("structure torus", "torus-desc", member, data)
    if args.structure_cmd == "theta":
        verdict = structure.torsion_split_check(group, args.index)
        return CheckReport("structure theta", "theta-split", verdict, {"i": args.index, "splits": verdict})


def _description_report(group, desc, name: str, lemma: str, brute) -> CheckReport:
    from .finitegroup import from_group

    fg = from_group(group)
    described = desc.elements_in(fg)
    computed = brute(fg)
    agrees = described == computed
    data = {
        "order": len(computed),
        "described_order": len(described),
        "agrees_with_description": agrees,
        "generator_family": desc.generator_family,
    }
    witness = None if agrees else f"described set has {len(described)} elements, brute force {len(computed)}"
    return CheckReport(f"structure {name}", lemma, agrees, data, witness)


# ---------------------------------------------------------------------------
# fo commands


def cmd_fo(args, cfg: Config) -> CheckReport:
    from . import fologic

    if args.fo_cmd == "parse":
        phi = fologic.parse_formula(args.formula)
        canonical = fologic.format_formula(phi)
        try:
            reparsed, witness = fologic.parse_formula(canonical), None
        except ParseError as exc:  # the canonical text can nest deeper than the input
            reparsed, witness = None, f"the canonical text does not parse back: {exc}"
        data = {
            "canonical": canonical,
            "free_variables": sorted(fologic.free_variables(phi)),
            "round_trip": reparsed == phi,
        }
        return CheckReport("fo parse", "fo-syntax", reparsed == phi, data, witness)
    if args.fo_cmd == "eval":
        phi = fologic.parse_formula(args.formula)
        group = _load_group(args.group)
        model = fologic.model_from_group(group)
        if args.center_set:
            from . import structure

            center = structure.center_description(group).elements_in(model.fg)
            for name in args.center_set:
                model.register_set(name, center)
        assignment = {}
        for binding in args.assign or []:
            name, _, payload = binding.partition("=")
            if not payload:
                raise ParseError(f"assignment {binding!r} needs var=json")
            assignment[name] = group._elem_from_json(json.loads(payload), f"--assign {name}")
        if args.defining_set:
            if args.var is None:
                raise ParseError("--defining-set needs --var")
            idxs = fologic.defining_set(model, phi, args.var, semantic=args.semantic, budget=cfg.quantifier_budget)
            data = {
                "defining_set_size": len(idxs),
                "defining_set": [group.elem_to_json(model.fg.elem(i)) for i in sorted(idxs)],
            }
            return CheckReport("fo eval", "fo-eval", True, data)
        if args.semantic:
            value = fologic.semantic_eval(model, phi, assignment)
            data = {"value": value, "path": "semantic"}
        else:
            value, atoms = fologic.eval_with_stats(model, phi, assignment, budget=cfg.quantifier_budget)
            data = {"value": value, "atoms_evaluated": atoms, "path": "naive"}
        return CheckReport("fo eval", "fo-eval", value, data)


# ---------------------------------------------------------------------------
# parser


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps a nested occurrence from clobbering one given earlier
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="RNG seed (TRIADEFORM_SEED overrides)")
    common.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS, help="quantifier budget in atoms")
    common.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="triadeform", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="cmd", required=True)

    ring = sub.add_parser("ring", help="exact ring queries")
    ring_sub = ring.add_subparsers(dest="ring_cmd", required=True)
    ring_sub.add_parser("info", parents=[common]).add_argument("ring")
    ring_sub.add_parser("units", parents=[common]).add_argument("ring")
    divides = ring_sub.add_parser("divides", parents=[common])
    divides.add_argument("ring")
    divides.add_argument("a")
    divides.add_argument("b")
    psi = ring_sub.add_parser("psi", parents=[common])
    psi.add_argument("ring")
    psi.add_argument("--s", type=int, required=True)
    psi.add_argument("--lam", required=True, metavar="LAMBDA")
    psi.add_argument("--alpha", required=True)
    psi.add_argument("--beta", required=True)
    psi.add_argument("--delta", required=True)
    psi.add_argument("--a", required=True)

    ext = sub.add_parser("ext", help="abelian extension classes", parents=[common])
    ext.add_argument("b", help="cyclic orders, 0 for a Z factor, e.g. 4,0")
    ext.add_argument("a")

    coc = sub.add_parser("cocycle", help="symmetric 2-cocycle calculus")
    coc_sub = coc.add_subparsers(dest="cocycle_cmd", required=True)
    for name in ("verify", "is-coboundary", "is-cot"):
        p = coc_sub.add_parser(name, parents=[common])
        p.add_argument("--file", required=True)
    transport = coc_sub.add_parser("transport", parents=[common])
    transport.add_argument("--file", required=True)
    transport.add_argument("--psi", required=True)
    transport.add_argument("--eta", required=True)

    grp = sub.add_parser("group", help="triangular groups and deformations")
    grp_sub = grp.add_subparsers(dest="group_cmd", required=True)
    build = grp_sub.add_parser("build", parents=[common])
    build.add_argument("--group", required=True, help="group description file")
    mul = grp_sub.add_parser("mul", parents=[common])
    mul.add_argument("--group", required=True)
    mul.add_argument("--x", required=True, help="element JSON")
    mul.add_argument("--y", required=True, help="element JSON")
    pres = grp_sub.add_parser("check-presentation", parents=[common])
    pres.add_argument("--group", required=True)
    fni = grp_sub.add_parser("fn-identity", parents=[common])
    fni.add_argument("--group", required=True)
    fni.add_argument("--alpha")
    fni.add_argument("--beta")
    split = grp_sub.add_parser("split-iso", parents=[common])
    split.add_argument("--group", required=True)
    enum = grp_sub.add_parser("enumerate", parents=[common])
    enum.add_argument("--group", required=True)
    enum.add_argument("--list-elements", action="store_true")

    struct = sub.add_parser("structure", help="distinguished subgroups and checks")
    struct_sub = struct.add_subparsers(dest="structure_cmd", required=True)
    for name in ("center", "derived"):
        p = struct_sub.add_parser(name, parents=[common])
        p.add_argument("--group", required=True)
    fitting = struct_sub.add_parser("fitting", parents=[common])
    fitting.add_argument("--group", required=True)
    fitting.add_argument("--brute-force", action="store_true")
    fitting.add_argument("--class-bound", type=int, default=3)
    width = struct_sub.add_parser("width", parents=[common])
    width.add_argument("--group", required=True)
    width.add_argument("--bound", type=int, required=True)
    torus = struct_sub.add_parser("torus", parents=[common])
    torus.add_argument("--group", required=True)
    torus.add_argument("--index", type=int, required=True, metavar="I")
    torus.add_argument("--elem", required=True, help="element JSON")
    theta = struct_sub.add_parser("theta", parents=[common])
    theta.add_argument("--group", required=True)
    theta.add_argument("--index", type=int, required=True, metavar="I")

    fo = sub.add_parser("fo", help="first-order formulas over a group")
    fo_sub = fo.add_subparsers(dest="fo_cmd", required=True)
    fo_parse = fo_sub.add_parser("parse", parents=[common])
    fo_parse.add_argument("formula")
    fo_eval = fo_sub.add_parser("eval", parents=[common])
    fo_eval.add_argument("formula")
    fo_eval.add_argument("--group", required=True)
    fo_eval.add_argument("--assign", action="append", metavar="VAR=JSON")
    fo_eval.add_argument("--semantic", action="store_true")
    fo_eval.add_argument("--defining-set", action="store_true")
    fo_eval.add_argument("--var")
    fo_eval.add_argument("--center-set", action="append", metavar="NAME", help="register the center description under NAME")
    return parser


_DISPATCH = {
    "ring": cmd_ring,
    "ext": cmd_ext,
    "cocycle": cmd_cocycle,
    "group": cmd_group,
    "structure": cmd_structure,
    "fo": cmd_fo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = Config(
            rng_seed=resolve_seed(getattr(args, "seed", None)),
            trials=getattr(args, "trials", DEFAULT_TRIALS),
            quantifier_budget=getattr(args, "budget", DEFAULT_BUDGET),
            output=getattr(args, "output", DEFAULT_OUTPUT),
        )
        report = _DISPATCH[args.cmd](args, cfg)
        text = report.render(cfg.output)
    except (TriadeformError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # a fault in the library, not in the input
        traceback.print_exc()
        return 3
    print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
