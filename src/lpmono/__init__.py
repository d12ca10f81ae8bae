"""Zeros of monotone operators on discretized L_p([0,1]).

One-step duality-map iteration for bounded maximal monotone maps
A : L_p -> L_q (1 < p <= 2), with application solvers for Hammerstein
integral equations, convex minimization, variational inequalities over
boxes, and J-fixed points, plus a reproducible experiment harness.
"""

from .duality import (
    ProductPoint,
    duality_map,
    duality_map_inverse,
    lyapunov_phi,
    product_duality,
    product_duality_inverse,
    v_functional,
)
from .grid import (
    GridFunction,
    GridMismatchError,
    LpContext,
    NonFiniteValuesError,
    lp_norm,
    nodes,
    pairing,
    random_smooth,
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
    product_op,
    sample_monotonicity,
    zero_op,
)
from .schedule import ParamSchedule, check_acceptably_paired, default_schedule
from .solver import (
    DivergenceError,
    IterationTrace,
    NonFiniteIterateError,
    SolveConfig,
    solve_hammerstein,
    solve_jfixed,
    solve_min,
    solve_vi,
    solve_zero,
    solve_zero_hilbert,
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
    "check_acceptably_paired",
    "default_schedule",
    "duality_map",
    "duality_map_inverse",
    "export_csv",
    "export_json",
    "export_loglog",
    "hammerstein_example",
    "hammerstein_kernel_op",
    "j_pseudo_from_monotone",
    "lp_norm",
    "lyapunov_phi",
    "mult_op",
    "nodes",
    "norm_subgradient_op",
    "pairing",
    "product_duality",
    "product_duality_inverse",
    "product_op",
    "random_smooth",
    "sample_monotonicity",
    "solve_hammerstein",
    "solve_jfixed",
    "solve_min",
    "solve_vi",
    "solve_zero",
    "solve_zero_hilbert",
    "summarize",
    "v_functional",
    "zero_op",
]
