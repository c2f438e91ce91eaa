"""Averaged functions and limit-cycle counting for piecewise polynomial
perturbations of linear rotation-plus-contraction systems."""

from .sysspec import CoefficientTable, SpecError, SystemSpec, random_spec, zero_spec
from .polyalg import Poly, PolyVec, bezout_bound, jacobian
from .avgcore import (
    AveragedSystem,
    build_averaged_system,
    build_f1,
    build_f2,
    build_gamma,
    numeric_g,
    oracle_f1,
    oracle_f2,
    oracle_gamma,
    project_to_kernel,
)

__version__ = "0.1.0"

from .rootfind import (
    SearchBox,
    ZeroRecord,
    certify_count,
    find_simple_zeros,
)
from .flowsim import (
    CycleRecord,
    displacement,
    distance_slope,
    eps_sweep,
    refine_cycle,
    return_map,
)
from .generators import (
    ConstructionError,
    GeneratorResult,
    InfeasibleTargetError,
    first_order_count,
    gen_cor13,
    gen_prop10,
    gen_prop12,
    gen_prop16,
    gen_prop18,
    gen_prop20,
    gen_prop21,
    gen_th4,
    second_order_lower_bound,
    second_order_upper_bound,
)
from .repro import Report, ReportRow, RunConfig, build_report

__all__ = [
    "AveragedSystem",
    "ConstructionError",
    "CycleRecord",
    "GeneratorResult",
    "InfeasibleTargetError",
    "Report",
    "ReportRow",
    "RunConfig",
    "SearchBox",
    "ZeroRecord",
    "build_report",
    "certify_count",
    "displacement",
    "distance_slope",
    "eps_sweep",
    "find_simple_zeros",
    "first_order_count",
    "gen_cor13",
    "gen_prop10",
    "gen_prop12",
    "gen_prop16",
    "gen_prop18",
    "gen_prop20",
    "gen_prop21",
    "gen_th4",
    "refine_cycle",
    "return_map",
    "second_order_lower_bound",
    "second_order_upper_bound",
    "CoefficientTable",
    "Poly",
    "PolyVec",
    "SpecError",
    "SystemSpec",
    "bezout_bound",
    "build_averaged_system",
    "build_f1",
    "build_f2",
    "build_gamma",
    "jacobian",
    "numeric_g",
    "oracle_f1",
    "oracle_f2",
    "oracle_gamma",
    "project_to_kernel",
    "random_spec",
    "zero_spec",
]
