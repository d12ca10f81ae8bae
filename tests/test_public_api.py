"""The package's public surface: ``__all__`` lists each exported name once,
every listed name resolves, and helpers that only their own modules' callers
need stay out of it."""

import importlib

import pytest

import lpmono

# adding a public name is a reviewed edit of this tuple
PUBLIC = (
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
)

# helpers that only their modules' callers and the tests reach
MODULE_ONLY = {
    "XuConstants": "lpmono.duality",
    "xu_constants": "lpmono.duality",
    "NoRootError": "lpmono.duality",
    "duality_map_inverse": "lpmono.duality",
    "lyapunov_phi": "lpmono.duality",
    "product_duality_inverse": "lpmono.duality",
    "product_norm": "lpmono.duality",
    "product_norm_dual": "lpmono.duality",
    "product_pairing": "lpmono.duality",
    "v_functional": "lpmono.duality",
    "random_smooth": "lpmono.grid",
    "trapezoid_integral": "lpmono.grid",
    "trapezoid_weights": "lpmono.grid",
    "feasibility_violation": "lpmono.operators",
    "product_op": "lpmono.operators",
    "vi_normal_cone_selection": "lpmono.operators",
    "PairingReport": "lpmono.schedule",
    "check_acceptably_paired": "lpmono.schedule",
    "regularization_path_residual": "lpmono.solver",
    "solve_zero_hilbert": "lpmono.solver",
    "TraceRows": "lpmono.solver",
}


def test_star_import():
    namespace = {}
    exec("from lpmono import *", namespace)
    assert set(lpmono.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(lpmono.__all__) == len(set(lpmono.__all__))


def test_all_is_the_pinned_surface():
    assert tuple(sorted(lpmono.__all__)) == PUBLIC


def test_no_minimization_alias():
    # minimization is solve_zero with a subgradient selection as A, as the CLI's `min` runs it
    assert not hasattr(lpmono.solver, "solve_min")
    assert not hasattr(lpmono, "solve_min")


def test_every_listed_name_resolves():
    missing = [name for name in lpmono.__all__ if not hasattr(lpmono, name)]
    assert missing == []


def test_trace_row_importable_but_not_listed():
    from lpmono.solver import TraceRow

    assert TraceRow.__module__ == "lpmono.solver"
    assert "TraceRow" not in lpmono.__all__


def test_identity_op_importable_but_not_listed():
    from lpmono.operators import identity_op

    assert identity_op.__module__ == "lpmono.operators"
    assert "identity_op" not in lpmono.__all__
    assert not hasattr(lpmono, "identity_op")


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_helper_importable_but_not_listed(name):
    module = MODULE_ONLY[name]
    obj = getattr(importlib.import_module(module), name)
    assert obj.__module__ == module
    assert name not in lpmono.__all__
    assert not hasattr(lpmono, name)
