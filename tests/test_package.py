"""The package namespace: each export loads its submodule on first use, and
a CLI command loads only the submodules it calls."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triadeform

# every name the package exported when its __init__ imported each submodule
# in full, by the submodule that defines it
EXPORTED = {
    "abgroups": ["AbHom", "FgAbelian", "ext_group", "is_pure_subgroup"],
    "cocycles": [
        "CarryCocycle", "CoboundaryOf", "ExtensionGroup", "FunctionTable", "MonomialPsi", "ProductCocycle",
        "SymCocycle2", "build_extension", "cocycle_from_json", "cocycle_inverse", "cocycle_product",
        "is_coboundary", "is_cot", "transport_cocycle", "trivial_cocycle", "verify_cocycle",
    ],
    "config": ["Config", "resolve_seed"],
    "errors": [
        "BudgetExceeded", "CombinatorialBlowup", "DivisionByZeroDivisor", "DomainMismatch", "InvalidParameter",
        "NotAUnit", "NotBijective", "NotDiagonal", "NotInSubgroupB", "ParseError", "TooLarge", "TriadeformError",
        "UnboundVariable", "UnregisteredDefinableSet", "UnsupportedCodomain",
    ],
    "finitegroup": ["FiniteGroup", "from_group"],
    "fologic": [
        "Model", "defining_set", "eval_formula", "eval_with_stats", "format_formula", "formula_fitt_ck",
        "formula_max_nilpotent_membership", "formula_ncl", "formula_ncl_multi", "formula_phi_D",
        "formula_phi_Gprime", "formula_phi_Gu_pm", "formula_phi_c", "formula_phi_c_star", "formula_phi_eq_c",
        "formula_phi_iN", "model_from_group", "parse_formula", "semantic_eval",
    ],
    "report": ["REPORT_SCHEMA", "CheckReport"],
    "rings": [
        "GaussianIntegers", "IntegerRing", "IntegersMod", "QuadraticOrder", "RationalField", "Ring",
        "UnitGroupStruct", "divides", "eval_psi", "fundamental_unit", "is_square_unit", "is_unit", "parse_ring",
        "unit_decompose", "unit_group",
    ],
    "snf": [],
    "structure": [
        "brute_force_fitting", "center_description", "central_involution", "commutator_width_check",
        "delta_square_decomposition", "derived_description", "fitting_description", "left_normed_gamma",
        "lower_central_series", "normal_closure", "torsion_split_check", "torus_description", "torus_membership",
        "unipotent_pm_description", "unit_diff_ideal",
    ],
    "trigroup": [
        "DeformedElem", "DeformedGroup", "SplitIso", "TriMatrix", "TriMatrixGroup", "check_presentation",
        "deformed_to_matrix", "fn_identity_check", "matrix_to_deformed", "split_isomorphism",
    ],
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_every_export_is_the_object_of_its_submodule():
    for module, names in EXPORTED.items():
        sub = importlib.import_module(f"triadeform.{module}")
        assert getattr(triadeform, module) is sub
        for name in names:
            assert getattr(triadeform, name) is getattr(sub, name), name
    assert triadeform.__version__ == "0.1.0"


def test_dir_and_star_import_list_every_export():
    assert set(NAMES) | set(EXPORTED) <= set(dir(triadeform))
    namespace = {}
    exec("from triadeform import *", namespace)
    assert all(namespace[name] is getattr(triadeform, name) for name in NAMES + list(EXPORTED))


def test_an_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "cli_main", "_EXPORTS_OF"):
        with pytest.raises(AttributeError, match=f"module 'triadeform' has no attribute '{name}'"):
            getattr(triadeform, name)
    with pytest.raises(ImportError):
        exec("from triadeform import no_such_name", {})


def _child(code: str) -> str:
    # the child imports the package this process imported, installed or not
    env = dict(os.environ)
    package_root = str(Path(triadeform.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _loaded_after(code: str) -> set[str]:
    line = _child(f"import sys\n{code}\nprint(' '.join(m for m in sys.modules if m.startswith('triadeform')))")
    return set(line.split())


def test_importing_the_package_or_the_cli_loads_no_computing_module():
    assert _loaded_after("import triadeform") == {"triadeform"}
    # config, errors and report are what cli imports at module level
    light = {f"triadeform.{m}" for m in ("cli", "config", "errors", "report")}
    assert _loaded_after("import triadeform.cli") == {"triadeform"} | light


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["ring", "info", "Z/5"], "rings", ["trigroup", "cocycles", "structure", "finitegroup", "fologic"]),
        (["fo", "parse", "x = 1"], "fologic", ["rings", "abgroups", "cocycles", "trigroup", "structure"]),
    ],
)
def test_a_command_loads_the_modules_it_calls_only(argv, used, unused):
    loaded = _loaded_after(f"from triadeform.cli import main\nmain({argv!r})")
    assert f"triadeform.{used}" in loaded
    assert loaded.isdisjoint(f"triadeform.{m}" for m in unused)


def test_importing_a_submodule_binds_its_exports_in_the_package():
    # a tracer that wraps the functions of each loaded submodule rebinds
    # the aliases it finds in the package namespace and later puts the
    # originals back; an export it did not find there would be resolved
    # to the wrapper on first use, and kept after the originals are back
    loaded = EXPORTED["cocycles"] + EXPORTED["abgroups"] + EXPORTED["rings"]  # cocycles imports the other two
    code = f"""
import triadeform
before = [n for n in {NAMES!r} if n in vars(triadeform)]
import triadeform.cocycles
print(before, [n for n in {loaded!r} if n not in vars(triadeform)])
"""
    assert _child(code) == "[] []"
