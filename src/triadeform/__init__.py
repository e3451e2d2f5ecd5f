"""Exact arithmetic for triangular matrix groups and their abelian
deformations: rings with decidable divisibility, finitely generated abelian
groups, symmetric 2-cocycles, the deformed groups themselves, their
distinguished subgroups, and a small first-order evaluator over finite
models.
"""

from .abgroups import AbHom, FgAbelian, ext_group, is_pure_subgroup
from .cocycles import (
    CarryCocycle,
    CoboundaryOf,
    ExtensionGroup,
    FunctionTable,
    MonomialPsi,
    ProductCocycle,
    SymCocycle2,
    build_extension,
    cocycle_from_json,
    cocycle_inverse,
    cocycle_product,
    is_coboundary,
    is_cot,
    transport_cocycle,
    trivial_cocycle,
    verify_cocycle,
)
from .config import Config, resolve_seed
from .errors import (
    BudgetExceeded,
    CombinatorialBlowup,
    DivisionByZeroDivisor,
    DomainMismatch,
    InvalidParameter,
    NotAUnit,
    NotBijective,
    NotDiagonal,
    NotInSubgroupB,
    ParseError,
    TooLarge,
    TriadeformError,
    UnboundVariable,
    UnregisteredDefinableSet,
    UnsupportedCodomain,
)
from .finitegroup import FiniteGroup, from_group
from .fologic import (
    Model,
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
    model_from_group,
    parse_formula,
    semantic_eval,
)
from .report import REPORT_SCHEMA, CheckReport
from .rings import (
    GaussianIntegers,
    IntegerRing,
    IntegersMod,
    QuadraticOrder,
    RationalField,
    Ring,
    UnitGroupStruct,
    divides,
    eval_psi,
    fundamental_unit,
    is_square_unit,
    is_unit,
    parse_ring,
    unit_decompose,
    unit_group,
)
from .structure import (
    brute_force_fitting,
    center_description,
    central_involution,
    commutator_width_check,
    delta_square_decomposition,
    derived_description,
    fitting_description,
    left_normed_gamma,
    lower_central_series,
    normal_closure,
    torsion_split_check,
    torus_description,
    torus_membership,
    unipotent_pm_description,
    unit_diff_ideal,
)
from .trigroup import (
    DeformedElem,
    DeformedGroup,
    SplitIso,
    TriMatrix,
    TriMatrixGroup,
    check_presentation,
    deformed_to_matrix,
    fn_identity_check,
    matrix_to_deformed,
    split_isomorphism,
)

__version__ = "0.1.0"
