"""CLI surface: exit codes, report schema conformance, seeded reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import triadeform
from triadeform import DeformedGroup, parse_ring
from triadeform.cli import main
from triadeform.report import REPORT_SCHEMA


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--output", "json"])
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return rc, report


@pytest.fixture
def cocycle_file(tmp_path):
    def write(data, name="cocycle.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


TWISTED_F5 = {
    "ring": "Z/5",
    "n": 3,
    "cocycles": [{"type": "carry", "targets": {"0": "2"}}, None],
}

CARRY_Z_TO_Q = {
    "domain": {"type": "units", "ring": "Z"},
    "codomain": {"type": "units", "ring": "Q"},
    "backend": {"type": "carry", "targets": {"0": {"num": "4", "den": "1"}}},
}


# ---------------------------------------------------------------------------
# ring commands


def test_ring_info(capsys):
    rc, report = run_json(capsys, ["ring", "info", "Z/5"])
    assert rc == 0
    assert report["data"] == {
        "spec": "Z/5",
        "kind": "IntegersMod",
        "finite": True,
        "order": 5,
        "unit_count": 4,
    }


def test_ring_units_pins_fundamental_unit(capsys):
    rc, report = run_json(capsys, ["ring", "units", "Z[sqrt(2)]"])
    assert rc == 0
    assert report["data"]["torsion_order"] == 2
    assert report["data"]["torsion_generator"] == "-1"
    assert report["data"]["fundamental_units"] == ["1+1*sqrt(2)"]


def test_ring_divides_exit_codes(capsys):
    rc, report = run_json(capsys, ["ring", "divides", "Z", "2", "6"])
    assert rc == 0 and report["data"]["divides"] is True
    rc, report = run_json(capsys, ["ring", "divides", "Z", "4", "6"])
    assert rc == 1 and report["data"]["divides"] is False
    assert "witness" in report


def test_ring_psi_worked_instance(capsys):
    rc, report = run_json(
        capsys,
        [
            "ring", "psi", "Z[sqrt(2)]",
            "--s", "2",
            "--lam", "3+2*sqrt(2)",
            "--alpha", "3+2*sqrt(2)",
            "--beta", "17+12*sqrt(2)",
            "--delta", "19601+13860*sqrt(2)",
            "--a", "679+476*sqrt(2)",
        ],
    )
    assert rc == 0
    assert report["data"]["value"] is True
    # alpha = 1 breaks a conjunct
    rc, report = run_json(
        capsys,
        [
            "ring", "psi", "Z[sqrt(2)]",
            "--s", "2",
            "--lam", "3+2*sqrt(2)",
            "--alpha", "1",
            "--beta", "17+12*sqrt(2)",
            "--delta", "19601+13860*sqrt(2)",
            "--a", "679+476*sqrt(2)",
        ],
    )
    assert rc == 1 and report["data"]["value"] is False


def test_ring_info_counts_residues_and_units_without_listing_them(capsys):
    # 999999999999 = 3^3 * 7 * 11 * 13 * 37 * 101 * 9901
    rc, report = run_json(capsys, ["ring", "info", "Z/999999999999"])
    assert rc == 0
    assert (report["data"]["order"], report["data"]["unit_count"]) == (999999999999, 461894400000)
    # 10^23 - 1 = 9 * R23 with R23 prime, beyond trial division
    rc, out, err = run(capsys, ["ring", "info", "Z/99999999999999999999999"])
    assert rc == 2 and err.startswith("error:") and "trial divisors" in err


def test_text_output_format(capsys):
    rc, out, err = run(capsys, ["ring", "info", "Z/5"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "[ring info] lemma=exact-arith ok=true"
    assert any(line.startswith("  order: 5") for line in lines)


# ---------------------------------------------------------------------------
# ext


def test_ext_nontrivial(capsys):
    rc, report = run_json(capsys, ["ext", "4,0", "2"])
    assert rc == 0
    assert report["data"]["ext_invariants"] == [2]
    assert report["data"]["ext_order"] == 2
    assert report["data"]["trivial"] is False


def test_ext_trivial_for_free_b(capsys):
    rc, report = run_json(capsys, ["ext", "0", "5"])
    assert rc == 0
    assert report["data"]["ext_invariants"] == []
    assert report["data"]["trivial"] is True


# ---------------------------------------------------------------------------
# cocycle commands


def test_cocycle_verify_exhaustive(capsys, cocycle_file):
    rc, report = run_json(capsys, ["cocycle", "verify", "--file", cocycle_file(CARRY_Z_TO_Q)])
    assert rc == 0
    assert report["data"]["exhaustive"] is True
    assert report["seed"] == 20260814


def test_cocycle_is_coboundary_with_witness(capsys, cocycle_file):
    rc, report = run_json(capsys, ["cocycle", "is-coboundary", "--file", cocycle_file(CARRY_Z_TO_Q)])
    assert rc == 0
    assert report["data"] == {"coboundary": True, "witness": "psi(-1)=1/2"}


def test_cocycle_is_cot_rejects_twisted_carry(capsys, cocycle_file):
    doc = {
        "domain": {"type": "units", "ring": "Z/5"},
        "codomain": {"type": "units", "ring": "Z/5"},
        "backend": {"type": "carry", "targets": {"0": "2"}},
    }
    rc, report = run_json(capsys, ["cocycle", "is-cot", "--file", cocycle_file(doc)])
    assert rc == 1
    assert report["data"]["cot"] is False


def test_cocycle_transport(capsys, tmp_path, cocycle_file):
    doc = {
        "domain": {"type": "fg", "invariant_factors": [4], "free_rank": 0},
        "codomain": {"type": "fg", "invariant_factors": [2], "free_rank": 0},
        "backend": {"type": "carry", "targets": {"0": [1]}},
    }
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({
        "domain": {"invariants": [2]}, "codomain": {"invariants": [2]}, "matrix": [[1]],
    }))
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps({
        "domain": {"invariants": [4]}, "codomain": {"invariants": [4]}, "matrix": [[3]],
    }))
    rc, report = run_json(
        capsys,
        ["cocycle", "transport", "--file", cocycle_file(doc), "--psi", str(psi), "--eta", str(eta)],
    )
    assert rc == 0
    result = report["data"]["result"]
    assert result["domain"] == {"type": "fg", "invariant_factors": [4], "free_rank": 0}
    assert result["backend"]["type"] == "table"


def test_cocycle_transport_rejects_non_iso(capsys, tmp_path, cocycle_file):
    doc = {
        "domain": {"type": "fg", "invariant_factors": [4], "free_rank": 0},
        "codomain": {"type": "fg", "invariant_factors": [2], "free_rank": 0},
        "backend": {"type": "carry", "targets": {"0": [1]}},
    }
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "domain": {"invariants": [4]}, "codomain": {"invariants": [4]}, "matrix": [[2]],
    }))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({
        "domain": {"invariants": [2]}, "codomain": {"invariants": [2]}, "matrix": [[1]],
    }))
    rc, out, err = run(capsys, [
        "cocycle", "transport", "--file", cocycle_file(doc), "--psi", str(psi), "--eta", str(hom),
    ])
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# group commands


def test_group_build_untwisted(capsys, group_file):
    rc, report = run_json(capsys, ["group", "build", "--group", group_file({"ring": "Z/3", "n": 3})])
    assert rc == 0
    assert report["data"] == {
        "ring": "Z/3", "n": 3, "kind": "deformed", "finite": True,
        "twisted": False, "order": 216,
    }


def test_group_build_twisted(capsys, group_file):
    rc, report = run_json(capsys, ["group", "build", "--group", group_file(TWISTED_F5)])
    assert rc == 0
    assert report["data"]["twisted"] is True
    assert report["data"]["order"] == 8000


def test_group_build_matrix(capsys, group_file):
    rc, report = run_json(capsys, ["group", "build", "--group", group_file({"ring": "Z/3", "n": 2, "kind": "matrix"})])
    assert rc == 0
    assert report["data"]["kind"] == "matrix"
    assert report["data"]["order"] == 12
    assert "twisted" not in report["data"]


def test_group_mul_cancels_transvections(capsys, group_file):
    group = DeformedGroup(parse_ring("Z/3"), 3)
    x = json.dumps(group.elem_to_json(group.transvection(1, 2, 1)))
    y = json.dumps(group.elem_to_json(group.transvection(1, 2, 2)))
    rc, report = run_json(
        capsys,
        ["group", "mul", "--group", group_file({"ring": "Z/3", "n": 3}), "--x", x, "--y", y],
    )
    assert rc == 0
    assert report["data"]["product"] == group.elem_to_json(group.identity)


def test_group_check_presentation(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(capsys, ["group", "check-presentation", "--group", path, "--trials", "20"])
    assert rc == 0
    families = {f["family"] for f in report["data"]["families"]}
    assert families == {
        "transvection-additivity",
        "disjoint-commutation",
        "overlap-commutation",
        "diagonal-subgroup",
        "diagonal-conjugation",
    }
    assert all(f["ok"] for f in report["data"]["families"])


def test_group_fn_identity_sweeps_all_unit_pairs(capsys, group_file):
    rc, report = run_json(capsys, ["group", "fn-identity", "--group", group_file(TWISTED_F5)])
    assert rc == 0
    assert report["data"] == {"pairs_checked": 16, "failures": 0}


def test_group_fn_identity_explicit_pair(capsys, group_file):
    path = group_file(TWISTED_F5)
    rc, report = run_json(
        capsys, ["group", "fn-identity", "--group", path, "--alpha", "2", "--beta", "3"]
    )
    assert rc == 0
    assert report["data"]["pairs_checked"] == 1
    rc, out, err = run(capsys, ["group", "fn-identity", "--group", path, "--alpha", "2"])
    assert rc == 2 and "error:" in err


def test_group_split_iso_verified(capsys, group_file):
    path = group_file({"ring": "Z/5", "n": 3})
    rc, report = run_json(capsys, ["group", "split-iso", "--group", path, "--trials", "50"])
    assert rc == 0
    assert report["data"] == {"split": True, "verified_pairs": 50, "round_trip": True}


def test_group_split_iso_refused_for_nonsplit_twist(capsys, group_file):
    rc, report = run_json(capsys, ["group", "split-iso", "--group", group_file(TWISTED_F5)])
    assert rc == 1
    assert report["data"] == {"split": False}
    assert report["witness"] == "some factor cocycle is not a coboundary"


def test_group_enumerate(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(capsys, ["group", "enumerate", "--group", path])
    assert rc == 0 and report["data"] == {"order": 216}
    rc, report = run_json(capsys, ["group", "enumerate", "--group", path, "--list-elements"])
    assert len(report["data"]["elements"]) == 216


# ---------------------------------------------------------------------------
# structure commands


def test_structure_center_and_derived(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(capsys, ["structure", "center", "--group", path])
    assert rc == 0
    assert report["data"]["order"] == 2
    assert report["data"]["agrees_with_description"] is True
    rc, report = run_json(capsys, ["structure", "derived", "--group", path])
    assert rc == 0
    assert report["data"]["order"] == 27
    assert report["data"]["agrees_with_description"] is True


def test_structure_fitting_brute_force(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(
        capsys, ["structure", "fitting", "--group", path, "--brute-force", "--class-bound", "2"]
    )
    assert rc == 0
    assert report["data"]["order"] == 54
    assert report["data"]["agrees_with_description"] is True
    assert report["data"]["nilpotency_class"] == 2


def test_structure_fitting_description_only(capsys, group_file):
    rc, report = run_json(capsys, ["structure", "fitting", "--group", group_file({"ring": "Z/3", "n": 3})])
    assert rc == 0
    assert report["data"]["kind"] == "Fitting"


@pytest.mark.parametrize("kind", ["deformed", "matrix"])
@pytest.mark.parametrize("cmd", ["center", "derived", "fitting"])
def test_structure_descriptions_refuse_a_non_domain(capsys, group_file, cmd, kind):
    # Z/4 is not a domain; every description refuses it alike (exit 2),
    # where center and derived used to check anyway and fail with exit 1
    path = group_file({"ring": "Z/4", "n": 3, "kind": kind})
    rc, out, err = run(capsys, ["structure", cmd, "--group", path])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Z/4 is not an integral domain" in err
    rc, out, err = run(capsys, ["fo", "eval", "x = 1", "--group", path, "--center-set", "Z", "--assign", "x=1"])
    assert rc == 2 and "Z/4 is not an integral domain" in err


def test_structure_width(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(capsys, ["structure", "width", "--group", path, "--bound", "3"])
    assert rc == 0
    assert report["data"]["width_needed"] == 1
    rc, report = run_json(capsys, ["structure", "width", "--group", path, "--bound", "0"])
    assert rc == 1


def test_structure_torus(capsys, group_file):
    group = DeformedGroup(parse_ring("Z/3"), 3)
    path = group_file({"ring": "Z/3", "n": 3})
    elem = json.dumps(group.elem_to_json(group.diagonal_gen(1, 2)))
    rc, report = run_json(
        capsys, ["structure", "torus", "--group", path, "--index", "1", "--elem", elem]
    )
    assert rc == 0
    assert report["data"] == {"i": 1, "member": True, "alpha": "2"}
    rc, report = run_json(
        capsys, ["structure", "torus", "--group", path, "--index", "2", "--elem", elem]
    )
    assert rc == 1
    assert report["data"]["member"] is False


def test_structure_theta(capsys, group_file):
    path = group_file(TWISTED_F5)
    rc, report = run_json(capsys, ["structure", "theta", "--group", path, "--index", "1"])
    assert rc == 1 and report["data"]["splits"] is False
    rc, report = run_json(capsys, ["structure", "theta", "--group", path, "--index", "2"])
    assert rc == 0 and report["data"]["splits"] is True


def test_structure_torus_and_theta_on_a_matrix_group(capsys, group_file):
    # the matrix picture answers as the deformed one does: diag(2, 1, 1) is
    # d_1(2), and an untwisted group splits at every level
    path = group_file({"ring": "Z/3", "n": 3, "kind": "matrix"})
    elem = json.dumps([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    rc, report = run_json(capsys, ["structure", "torus", "--group", path, "--index", "1", "--elem", elem])
    assert rc == 0 and report["data"] == {"i": 1, "member": True, "alpha": "2"}
    rc, report = run_json(capsys, ["structure", "theta", "--group", path, "--index", "1"])
    assert rc == 0 and report["data"] == {"i": 1, "splits": True}
    for cmd in (["torus", "--elem", elem], ["theta"]):
        rc, out, err = run(capsys, ["structure", cmd[0], "--group", path, "--index", "4"] + cmd[1:])
        assert rc == 2 and err.startswith("error:") and "out of range" in err


# ---------------------------------------------------------------------------
# fo commands


def test_fo_parse(capsys):
    rc, report = run_json(capsys, ["fo", "parse", "A x. x = 1"])
    assert rc == 0
    assert report["data"] == {"canonical": "A x. x = 1", "free_variables": [], "round_trip": True}


@pytest.mark.parametrize(
    "text, rc",
    [
        (" & ".join(["x = 1"] * 1200), 0),
        ("x" + "*x" * 1999 + " = 1", 0),
        ("!" * 3000 + "x = 1", 2),
        ("(" * 2000 + "x = 1" + ")" * 2000, 2),
    ],
    ids=["1200-conjuncts", "2000-factors", "3000-negations", "2000-parentheses"],
)
def test_fo_parse_of_long_or_deep_input_is_not_a_library_fault(capsys, text, rc):
    # long spines round-trip; nesting too deep is an input error, not exit 3
    if rc == 0:
        got, report = run_json(capsys, ["fo", "parse", text])
        assert got == 0 and report["data"]["round_trip"] is True
        assert report["data"]["canonical"] == text
    else:
        got, out, err = run(capsys, ["fo", "parse", text])
        assert got == rc and err.startswith("error: formula nests too deeply")


@pytest.mark.parametrize(
    "text, assign, rc",
    [
        ("A x. x" + "*x" * 1999 + " = 1", [], 1),  # T_3(Z/3) has exponent 6
        ("x" + "*x" * 1999 + " = 1", ["--assign", 'x={"xbar": ["1", "1"], "z": "1", "upper": {"1,2": "1"}}'], 1),
        ("x" + "*x" * 2159 + " = 1", ["--assign", 'x={"xbar": ["2", "1"], "z": "2", "upper": {"1,3": "1"}}'], 0),
    ],
    ids=["2000-factors-closed", "2000-factors-assigned", "2160-factors-assigned"],
)
def test_fo_eval_of_a_long_product_is_not_a_library_fault(capsys, group_file, text, assign, rc):
    argv = ["fo", "eval", text, "--group", group_file({"ring": "Z/3", "n": 3})] + assign
    got, report = run_json(capsys, argv)
    assert got == rc and report["data"]["value"] is (rc == 0)


def test_fo_parse_reports_free_variables(capsys):
    rc, report = run_json(capsys, ["fo", "parse", "A x. [x, y] = 1"])
    assert rc == 0
    assert report["data"]["free_variables"] == ["y"]


def test_fo_eval_naive_and_semantic(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 2, "kind": "matrix"})
    rc, report = run_json(capsys, ["fo", "eval", "A x. (E y. x*y = 1)", "--group", path])
    assert rc == 0
    assert report["data"]["value"] is True
    assert report["data"]["path"] == "naive"
    assert report["data"]["atoms_evaluated"] > 0
    rc, report = run_json(
        capsys, ["fo", "eval", "A x. A y. x*y = y*x", "--group", path, "--semantic"]
    )
    assert rc == 1
    assert report["data"] == {"value": False, "path": "semantic"}


def test_fo_eval_with_assignment(capsys, group_file):
    group = DeformedGroup(parse_ring("Z/3"), 3)
    path = group_file({"ring": "Z/3", "n": 3})
    elem = json.dumps(group.elem_to_json(group.transvection(1, 2, 1)))
    rc, report = run_json(
        capsys, ["fo", "eval", "x*x*x = 1", "--group", path, "--assign", f"x={elem}"]
    )
    assert rc == 0 and report["data"]["value"] is True


def test_fo_eval_defining_set_with_center(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(
        capsys,
        ["fo", "eval", "@Z(x)", "--group", path, "--defining-set", "--var", "x", "--center-set", "Z"],
    )
    assert rc == 0
    assert report["data"]["defining_set_size"] == 2
    assert len(report["data"]["defining_set"]) == 2


def test_fo_eval_budget_flag(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, out, err = run(
        capsys, ["fo", "eval", "A x. A y. A z. [x, y, z] = 1", "--group", path, "--budget", "1000"]
    )
    assert rc == 2
    assert "budget" in err


# ---------------------------------------------------------------------------
# seeds and reproducibility


def test_seeded_runs_are_byte_identical(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    argv = ["group", "check-presentation", "--group", path, "--seed", "7", "--trials", "20", "--output", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7


def test_flags_accepted_before_and_after_subcommand(capsys, group_file):
    path = group_file({"ring": "Q", "n": 3})
    before = ["--seed", "9", "--trials", "10", "group", "fn-identity", "--group", path, "--output", "json"]
    after = ["group", "fn-identity", "--group", path, "--seed", "9", "--trials", "10", "--output", "json"]
    rc1, out1, _ = run(capsys, before)
    rc2, out2, _ = run(capsys, after)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["data"]["pairs_checked"] == 10


def test_seed_env_var_overrides_flag(capsys, group_file, monkeypatch):
    monkeypatch.setenv("TRIADEFORM_SEED", "123")
    path = group_file({"ring": "Z/3", "n": 3})
    rc, report = run_json(
        capsys, ["group", "check-presentation", "--group", path, "--seed", "7", "--trials", "5"]
    )
    assert rc == 0
    assert report["seed"] == 123


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "build", "--group", "/nonexistent/group.json"],
        ["ring", "info", "Flub"],
        ["fo", "parse", "A y x = 1"],
        ["ext", "x,y", "2"],
        ["ring", "divides", "Z", "0", "3"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:")


def test_invalid_group_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out, err = run(capsys, ["group", "build", "--group", str(path)])
    assert rc == 2 and "error:" in err
    path.write_bytes(b"\xff\xfe{}")
    rc, out, err = run(capsys, ["group", "build", "--group", str(path)])
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"n": 3}, "field 'ring'"),
        ({"ring": "Z/3"}, "field 'n'"),
        ({"ring": "Z/3", "n": "three"}, "field 'n'"),
        ({"ring": "Z/3", "n": 2.5}, "field 'n'"),
        ({"ring": "Z/3", "n": True}, "field 'n'"),
        ({"ring": 5, "n": 3}, "field 'ring'"),
        ([{"ring": "Z/3", "n": 3}], "JSON object"),
    ],
)
@pytest.mark.parametrize("cmd", [["group", "build"], ["structure", "center"]])
def test_bad_group_document_names_the_field(capsys, group_file, doc, names, cmd):
    rc, out, err = run(capsys, cmd + ["--group", group_file(doc)])
    assert rc == 2
    assert err.startswith("error:") and names in err


_UNITS_Z_TO_Q = {"domain": {"type": "units", "ring": "Z"}, "codomain": {"type": "units", "ring": "Q"}}
_UNITS_Q_TO_Q = {"domain": {"type": "units", "ring": "Q"}, "codomain": {"type": "units", "ring": "Q"}}
_FG_2 = {"type": "fg", "invariant_factors": [2]}
_FG_4 = {"type": "fg", "invariant_factors": [4]}
_Q_2 = {"num": "2", "den": "1"}


@pytest.mark.parametrize(
    "doc, names",
    [
        (_UNITS_Z_TO_Q, "field 'backend'"),
        ({"domain": {"type": "units"}, "codomain": {"type": "units", "ring": "Q"}, "backend": {"type": "carry"}},
         "field 'domain.ring'"),
        ({"codomain": {"type": "units", "ring": "Q"}, "backend": {"type": "carry"}}, "field 'domain'"),
        ({**_UNITS_Z_TO_Q, "domain": {"type": "units", "ring": 5}}, "field 'domain.ring'"),
        ({**_UNITS_Z_TO_Q, "backend": {"targets": {}}}, "field 'backend.type'"),
        ({**_UNITS_Z_TO_Q, "backend": {"type": "carry", "targets": {"0": {"num": "4"}}}}, "field 'backend.targets.0'"),
        ({**_UNITS_Z_TO_Q, "backend": {"type": "carry", "targets": {"x": "2"}}}, "field 'backend.targets.x'"),
        ({**_UNITS_Z_TO_Q, "backend": {"type": "coboundary", "psi": {"type": "monomial", "free_bases": []}}},
         "field 'backend.psi.free_bases'"),
        ({"domain": _FG_2, "codomain": _FG_2, "backend": {"type": "table", "entries": [[[0], [1]]]}},
         "field 'backend.entries[0]'"),
        ({"domain": _FG_2, "codomain": _FG_2, "backend": {"type": "product", "parts": [{"type": "carry"}, {}]}},
         "field 'backend.parts[1].type'"),
        ({"domain": {"type": "fg", "invariant_factors": ["2"]}, "codomain": _FG_2, "backend": {"type": "carry"}},
         "field 'domain.invariant_factors'"),
        ([_UNITS_Z_TO_Q], "JSON object"),
        ({"domain": _FG_4, "codomain": _FG_2, "backend": {"type": "table", "entries": [[[1], [1], [1]]]}},
         "field 'backend.entries' has no entry for x = [0], y = [0]"),
        ({"domain": _FG_4, "codomain": _FG_2,
          "backend": {"type": "coboundary", "psi": {"type": "table", "entries": [[[1], [1]], [[2], [0]]]}}},
         "field 'backend.psi.entries' has no entry for [3]"),
        # over Q^x a psi table cannot be complete; the first missing element met is named
        ({**_UNITS_Q_TO_Q, "backend": {"type": "coboundary", "psi": {"type": "table", "entries": [[_Q_2, _Q_2]]}}},
         "psi table has no entry for "),
        # FgAbelian coordinates are integers, not anything that supports %
        ({"domain": _FG_4, "codomain": _FG_2, "backend": {"type": "carry", "targets": {"0": [1.5]}}},
         "field 'backend.targets.0'"),
        ({"domain": _FG_4, "codomain": _FG_2, "backend": {"type": "carry", "targets": {"0": ["%d"]}}},
         "field 'backend.targets.0'"),
        ({"domain": _FG_2, "codomain": _FG_2, "backend": {"type": "table", "entries": [[[0], [True], [0]]]}},
         "field 'backend.entries[0]'"),
    ],
)
@pytest.mark.parametrize("cmd", ["verify", "is-coboundary", "is-cot"])
def test_bad_cocycle_document_names_the_field(capsys, cocycle_file, doc, names, cmd):
    rc, out, err = run(capsys, ["cocycle", cmd, "--file", cocycle_file(doc)])
    assert rc == 2
    assert err.startswith("error:") and names in err


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"ring": "Z/5", "n": 3, "cocycles": [{"type": "carry", "targets": {"0": "x"}}, None]},
         "field 'cocycles[0].targets.0'"),
        ({"ring": "Z/5", "n": 3, "cocycles": [{"domain": {"type": "units", "ring": "Z/5"}}, None]},
         "field 'cocycles[0].codomain'"),
        ({"ring": "Z/5", "n": 3, "cocycles": [7, None]}, "field 'cocycles[0]'"),
        ({"ring": "Z/5", "n": 3, "cocycles": {"0": None}}, "field 'cocycles'"),
    ],
)
def test_bad_cocycle_in_a_group_document_names_the_field(capsys, group_file, doc, names):
    rc, out, err = run(capsys, ["group", "build", "--group", group_file(doc)])
    assert rc == 2
    assert err.startswith("error:") and names in err


_HOM_2 = {"domain": {"invariants": [2]}, "codomain": {"invariants": [2]}, "matrix": [[1]]}
_HOM_4 = {"domain": {"invariants": [4]}, "codomain": {"invariants": [4]}, "matrix": [[3]]}


@pytest.mark.parametrize(
    "psi, eta, names",
    [
        ({"codomain": {"invariants": [2]}, "matrix": [[1]]}, _HOM_4, "--psi document: field 'domain'"),
        (_HOM_2, {**_HOM_4, "codomain": {"invariants": ["4"]}}, "--eta document: field 'codomain.invariants'"),
        (_HOM_2, {**_HOM_4, "domain": {"invariants": [4], "free_rank": "0"}}, "--eta document: field 'domain.free_rank'"),
        ({**_HOM_2, "matrix": [["1"]]}, _HOM_4, "--psi document: field 'matrix[0]'"),
        (_HOM_2, {"domain": {"invariants": [4]}, "codomain": {"invariants": [4]}}, "--eta document: field 'matrix'"),
        ([_HOM_2], _HOM_4, "--psi document: the document must be a JSON object"),
    ],
)
def test_bad_hom_document_names_the_field(capsys, tmp_path, cocycle_file, psi, eta, names):
    doc = {"domain": {"type": "fg", "invariant_factors": [4]}, "codomain": _FG_2, "backend": {"type": "carry"}}
    paths = []
    for name, data in (("psi", psi), ("eta", eta)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    argv = ["cocycle", "transport", "--file", cocycle_file(doc), "--psi", str(paths[0]), "--eta", str(paths[1])]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:") and names in err


_Q_ONE = {"num": "1", "den": "1"}
_Q3_ELEM = {"xbar": [_Q_ONE, _Q_ONE], "z": _Q_ONE}


@pytest.mark.parametrize(
    "x, names",
    [
        ({**_Q3_ELEM, "xbar": [{"num": "1", "den": "0"}, _Q_ONE]}, "field '--x.xbar[0]'"),
        ({**_Q3_ELEM, "xbar": 5}, "field '--x.xbar'"),
        ({**_Q3_ELEM, "xbar": [_Q_ONE, 5]}, "field '--x.xbar[1]'"),
        ({**_Q3_ELEM, "upper": {"1,2": {"num": "1"}}}, "field '--x.upper.1,2'"),
        ({**_Q3_ELEM, "upper": {"1;2": _Q_ONE}}, "field '--x.upper.1;2'"),
        ({**_Q3_ELEM, "upper": [_Q_ONE]}, "field '--x.upper'"),
        ({"xbar": [_Q_ONE, _Q_ONE]}, "field '--x.z'"),
        ({**_Q3_ELEM, "z": "1/2"}, "field '--x.z'"),
        ([_Q3_ELEM], "field '--x'"),
        ({**_Q3_ELEM, "xbar": [{"num": 1.5, "den": "1"}, _Q_ONE]}, "field '--x.xbar[0]'"),
        ({**_Q3_ELEM, "z": {"num": "1", "den": True}}, "field '--x.z'"),
    ],
)
def test_bad_element_document_names_the_field(capsys, group_file, x, names):
    argv = ["group", "mul", "--group", group_file({"ring": "Q", "n": 3}), "--x", json.dumps(x), "--y", json.dumps(_Q3_ELEM)]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:") and names in err


@pytest.mark.parametrize(
    "group, argv, names",
    [
        ({"ring": "Z/3", "n": 3}, ["structure", "torus", "--index", "1", "--elem", '{"xbar": ["1", "x"], "z": "1"}'],
         "field '--elem.xbar[1]'"),
        ({"ring": "Z/3", "n": 3}, ["fo", "eval", "x = 1", "--assign", 'x={"xbar": ["1", "1"]}'], "field '--assign x.z'"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1", "0"], ["0", "1"]]', "--y", '[["1", null], ["0", "1"]]'],
         "field '--y[0][1]'"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1", "0"], "1"]', "--y", '[["1", "0"], ["0", "1"]]'],
         "field '--x'"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["fo", "eval", "x = 1", "--assign", "x=5"], "field '--assign x'"),
        (None, ["ext", "4,x", "2"], "argument b"),
        (None, ["ext", "4", "2,0.5"], "argument a"),
        ({"ring": "Z/5", "n": 3}, ["group", "mul", "--x", '{"xbar": [2.7, 1], "z": 1}', "--y", '{"xbar": [1, 1], "z": 1}'],
         "field '--x.xbar[0]'"),
        ({"ring": "Z/5", "n": 3}, ["group", "mul", "--x", '{"xbar": [2, 1], "z": 1}', "--y", '{"xbar": [1, 1], "z": true}'],
         "field '--y.z'"),
        ({"ring": "Z", "n": 3}, ["group", "mul", "--x", '{"xbar": ["1", "1"], "z": 1.5}', "--y", '{"xbar": [1, 1], "z": 1}'],
         "field '--x.z'"),
        ({"ring": "Z[sqrt(2)]", "n": 3},
         ["group", "mul", "--x", '{"xbar": [{"a": "1", "b": "0", "d": 3}, {"a": "1", "b": "0"}], "z": {"a": "1", "b": "0"}}',
          "--y", '{"xbar": [{"a": "1", "b": "0"}, {"a": "1", "b": "0"}], "z": {"a": "1", "b": "0"}}'],
         "field '--x.xbar[0]'"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1", 0.5], ["0", "1"]]', "--y", '[["1", "0"], ["0", "1"]]'],
         "field '--x[0][1]'"),
        # a matrix element of T_n(R) is n rows of n entries
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1"]]', "--y", '[["2"]]'],
         "field '--x' must be 2 rows of 2 entries"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"},
         ["group", "mul", "--x", '[["1", "0"], ["0", "1"]]', "--y", '[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]'],
         "field '--y' must be 2 rows of 2 entries"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["fo", "eval", "x = 1", "--assign", 'x=[["1", "0"], ["1"]]'],
         "field '--assign x' must be 2 rows of 2 entries"),
        # a non-unit on the diagonal, in the torus or in the central part
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["0", "1"], ["0", "1"]]', "--y", '[["1", "0"], ["0", "1"]]'],
         "field '--x[0][0]' must be a unit"),
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1", "0"], ["0", "1"]]', "--y", '[["1", "0"], ["0", "0"]]'],
         "field '--y[1][1]' must be a unit"),
        ({"ring": "Z/3", "n": 3}, ["group", "mul", "--x", '{"xbar": ["0", "1"], "z": "1"}', "--y", '{"xbar": ["1", "1"], "z": "1"}'],
         "field '--x.xbar[0]' must be a unit"),
        ({"ring": "Z/3", "n": 3}, ["group", "mul", "--x", '{"xbar": ["1", "1"], "z": "1"}', "--y", '{"xbar": ["1", "1"], "z": "0"}'],
         "field '--y.z' must be a unit"),
        ({"ring": "Z/3", "n": 3}, ["fo", "eval", "x = 1", "--assign", 'x={"xbar": ["1", "0"], "z": "1"}'],
         "field '--assign x.xbar[1]' must be a unit"),
        # an entry below the diagonal, an upper key off the strict upper triangle, a short xbar
        ({"ring": "Z/3", "n": 2, "kind": "matrix"}, ["group", "mul", "--x", '[["1", "0"], ["1", "1"]]', "--y", '[["1", "0"], ["0", "1"]]'],
         "field '--x[1][0]' is below the diagonal"),
        ({"ring": "Z/3", "n": 3}, ["group", "mul", "--x", '{"xbar": ["1", "1"], "z": "1", "upper": {"2,1": "1"}}',
                                   "--y", '{"xbar": ["1", "1"], "z": "1"}'],
         "field '--x.upper.2,1'"),
        ({"ring": "Z/3", "n": 3}, ["group", "mul", "--x", '{"xbar": ["1"], "z": "1"}', "--y", '{"xbar": ["1", "1"], "z": "1"}'],
         "field '--x.xbar' must have 2 coordinates"),
    ],
)
def test_bad_element_argument_names_the_field(capsys, group_file, group, argv, names):
    if group is not None:
        argv = argv + ["--group", group_file(group)]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:") and names in err


def test_defining_set_requires_var(capsys, group_file):
    path = group_file({"ring": "Z/3", "n": 3})
    rc, out, err = run(capsys, ["fo", "eval", "x = 1", "--group", path, "--defining-set"])
    assert rc == 2 and "error:" in err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_library_fault_exits_3_not_2(capsys, monkeypatch, group_file):
    # a KeyError from inside a command is a bug, not a usage error
    def faulty(group):
        raise KeyError("missing entry")

    monkeypatch.setattr(triadeform.structure, "center_description", faulty)
    rc, out, err = run(capsys, ["structure", "center", "--group", group_file({"ring": "Z/3", "n": 3})])
    assert rc == 3
    assert out == "" and "Traceback" in err and "KeyError: 'missing entry'" in err


# ---------------------------------------------------------------------------
# installed entry point


def _child_env():
    # the child imports the package this process imported, installed or not
    package_root = str(Path(triadeform.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "triadeform.cli", "ring", "info", "Z/3", "--output", "json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["data"]["order"] == 3


def test_cli_import_leaves_sympy_unloaded():
    # sympy costs most of a cold start; only factoring and primality need it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, triadeform.cli; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
