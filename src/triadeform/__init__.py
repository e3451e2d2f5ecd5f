"""Exact arithmetic for triangular matrix groups and their abelian
deformations: rings with decidable divisibility, finitely generated abelian
groups, symmetric 2-cocycles, the deformed groups themselves, their
distinguished subgroups, and a small first-order evaluator over finite
models.

Every name below is loaded from its submodule on first use (PEP 562), so
importing the package compiles none of the submodules, and a command of
`triadeform.cli` compiles only the ones it calls.
"""

import importlib
import sys
import types

# every exported name, by the submodule that defines it; snf exports none
# but is an attribute of the package, like every submodule
_EXPORTS = {
    "abgroups": ("AbHom", "FgAbelian", "ext_group", "is_pure_subgroup"),
    "cocycles": (
        "CarryCocycle",
        "CoboundaryOf",
        "ExtensionGroup",
        "FunctionTable",
        "MonomialPsi",
        "ProductCocycle",
        "SymCocycle2",
        "build_extension",
        "cocycle_from_json",
        "cocycle_inverse",
        "cocycle_product",
        "is_coboundary",
        "is_cot",
        "transport_cocycle",
        "trivial_cocycle",
        "verify_cocycle",
    ),
    "config": ("Config", "resolve_seed"),
    "errors": (
        "BudgetExceeded",
        "CombinatorialBlowup",
        "DivisionByZeroDivisor",
        "DomainMismatch",
        "InvalidParameter",
        "NotAUnit",
        "NotBijective",
        "NotDiagonal",
        "NotInSubgroupB",
        "ParseError",
        "TooLarge",
        "TriadeformError",
        "UnboundVariable",
        "UnregisteredDefinableSet",
        "UnsupportedCodomain",
    ),
    "finitegroup": ("FiniteGroup", "from_group"),
    "fologic": (
        "Model",
        "defining_set",
        "eval_formula",
        "eval_with_stats",
        "format_formula",
        "formula_fitt_ck",
        "formula_max_nilpotent_membership",
        "formula_ncl",
        "formula_ncl_multi",
        "formula_phi_D",
        "formula_phi_Gprime",
        "formula_phi_Gu_pm",
        "formula_phi_c",
        "formula_phi_c_star",
        "formula_phi_eq_c",
        "formula_phi_iN",
        "model_from_group",
        "parse_formula",
        "semantic_eval",
    ),
    "report": ("REPORT_SCHEMA", "CheckReport"),
    "rings": (
        "GaussianIntegers",
        "IntegerRing",
        "IntegersMod",
        "QuadraticOrder",
        "RationalField",
        "Ring",
        "UnitGroupStruct",
        "divides",
        "eval_psi",
        "fundamental_unit",
        "is_square_unit",
        "is_unit",
        "parse_ring",
        "unit_decompose",
        "unit_group",
    ),
    "snf": (),
    "structure": (
        "brute_force_fitting",
        "center_description",
        "central_involution",
        "commutator_width_check",
        "delta_square_decomposition",
        "derived_description",
        "fitting_description",
        "left_normed_gamma",
        "lower_central_series",
        "normal_closure",
        "torsion_split_check",
        "torus_description",
        "torus_membership",
        "unipotent_pm_description",
        "unit_diff_ideal",
    ),
    "trigroup": (
        "DeformedElem",
        "DeformedGroup",
        "SplitIso",
        "TriMatrix",
        "TriMatrixGroup",
        "check_presentation",
        "deformed_to_matrix",
        "fn_identity_check",
        "matrix_to_deformed",
        "split_isomorphism",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = (*_MODULE_OF, *_EXPORTS)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package module.  When the import system attaches a submodule to
    it, the submodule's exports are bound here too, so the namespace holds
    every export of every loaded submodule, as the submodule held it then.
    A tool that rebinds the aliases it finds here, and later restores them,
    so finds every export of what it loaded, and none is resolved while it
    has a function replaced."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            for export in _EXPORTS[name]:
                super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    """A submodule, or an export of one, imported on first use; importing
    it binds its exports here, so the next lookup does not come here."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = importlib.import_module(f"{__name__}.{module}")
    return sub if module == name else getattr(sub, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
