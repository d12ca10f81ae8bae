"""Zeros of monotone operators on discretized L_p([0,1]).

One-step duality-map iteration for bounded maximal monotone maps
A : L_p -> L_q (1 < p <= 2), with application solvers for Hammerstein
integral equations, variational inequalities over boxes and J-fixed
points (convex minimization is solve_zero on a subgradient selection),
plus a reproducible experiment harness.
"""

from .duality import ProductPoint, duality_map, product_duality
from .grid import (
    GridFunction,
    GridMismatchError,
    LpContext,
    NonFiniteValuesError,
    lp_norm,
    nodes,
    pairing,
)
from .io import RunRecord, export_csv, export_json, export_loglog, summarize
from .operators import (
    HammersteinPair,
    InfeasiblePointError,
    MonotoneOp,
    hammerstein_example,
    hammerstein_kernel_op,
    j_pseudo_from_monotone,
    mult_op,
    norm_subgradient_op,
    sample_monotonicity,
    zero_op,
)
from .schedule import ParamSchedule, default_schedule
from .solver import (
    DivergenceError,
    IterationTrace,
    NonFiniteIterateError,
    SolveConfig,
    solve_hammerstein,
    solve_jfixed,
    solve_vi,
    solve_zero,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "GridFunction",
    "GridMismatchError",
    "HammersteinPair",
    "InfeasiblePointError",
    "IterationTrace",
    "LpContext",
    "MonotoneOp",
    "NonFiniteIterateError",
    "NonFiniteValuesError",
    "ParamSchedule",
    "ProductPoint",
    "RunRecord",
    "SolveConfig",
    "default_schedule",
    "duality_map",
    "export_csv",
    "export_json",
    "export_loglog",
    "hammerstein_example",
    "hammerstein_kernel_op",
    "j_pseudo_from_monotone",
    "lp_norm",
    "mult_op",
    "nodes",
    "norm_subgradient_op",
    "pairing",
    "product_duality",
    "sample_monotonicity",
    "solve_hammerstein",
    "solve_jfixed",
    "solve_vi",
    "solve_zero",
    "summarize",
    "zero_op",
]
