"""Solver engine: update-rule oracles (scalar recursions, damping factors,
cross-solver equivalences), stopping/tracing contracts, and guards."""

import math
import warnings

import numpy as np
import pytest

from lpmono import (
    DivergenceError,
    GridFunction,
    HammersteinPair,
    InfeasiblePointError,
    LpContext,
    MonotoneOp,
    NonFiniteIterateError,
    NonFiniteValuesError,
    ProductPoint,
    SolveConfig,
    default_schedule,
    duality_map,
    duality_map_inverse,
    hammerstein_example,
    hammerstein_kernel_op,
    j_pseudo_from_monotone,
    lp_norm,
    mult_op,
    norm_subgradient_op,
    product_duality,
    product_duality_inverse,
    product_op,
    solve_hammerstein,
    solve_jfixed,
    solve_min,
    solve_vi,
    solve_zero,
    solve_zero_hilbert,
    zero_op,
)
from lpmono.duality import duality_values
from lpmono.grid import nodes, pairing
from lpmono.operators import feasibility_violation, vi_normal_cone_selection
from lpmono.solver import regularization_path_residual

INV_QUAD = lambda t: 1.0 / (1.0 + t * t)


def config(ctx, tol=1e-6, max_iter=1_000_000, **kw):
    return SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=tol, max_iter=max_iter, **kw)


def iterates_of(solve, *args, steps, cfg):
    """Run `steps` iterations (no early stop) and collect the iterates."""
    snaps = []
    solve(*args, cfg, callback=lambda n, *xs: snaps.append(xs if len(xs) > 1 else xs[0]))
    assert len(snaps) == steps
    return snaps


def overflows_at_call(k):
    """The identity, except that call k returns 1e300 x: finite values whose step overflows."""
    calls = []

    def apply(x):
        calls.append(None)
        return 1e300 * x if len(calls) == k else x

    return MonotoneOp(apply, name=f"overflow-at-{k}")


class TestZeroOperatorDamping:
    def test_matches_scalar_factor_oracle(self, ctx):
        # with A = 0 each step is x -> (1 - alpha_n theta_n) x
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=50)
        snaps = iterates_of(solve_zero, zero_op(), x1, steps=50, cfg=cfg)
        sched = cfg.schedule
        vals = x1.values.copy()
        for n in range(1, 51):
            vals = (1.0 - float(sched.alpha(n)) * float(sched.theta(n))) * vals
            got = snaps[n - 1].values
            assert np.max(np.abs(got - vals)) <= 1e-13 * max(1.0, np.max(np.abs(vals)))

    def test_norms_strictly_decreasing(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=40)
        _, trace = solve_zero(zero_op(), x1, cfg)
        norms = [r.iterate_norm for r in trace.rows]
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestTrivialFixedPoint:
    def test_zero_start_terminates_immediately(self, ctx):
        x, trace = solve_zero(mult_op(), GridFunction.zeros(ctx.M), config(ctx))
        assert trace.converged
        assert trace.nfe == 1
        assert trace.rows[0].n == 2
        assert trace.rows[0].residual == 0.0
        assert np.all(x.values == 0.0)


class TestHilbertForm:
    def test_requires_p_two(self, ctx):
        with pytest.raises(ValueError, match="p = 2"):
            solve_zero_hilbert(mult_op(), GridFunction.zeros(ctx.M), config(ctx))

    def test_agrees_with_general_engine_at_p_two(self):
        ctx2 = LpContext(p=2.0, M=100)
        x1 = GridFunction.from_callable(INV_QUAD, 100)
        cfg = SolveConfig(ctx=ctx2, schedule=default_schedule(1.0), tol=1e-30, max_iter=50)
        a = iterates_of(solve_zero, mult_op(), x1, steps=50, cfg=cfg)
        b = iterates_of(solve_zero_hilbert, mult_op(), x1, steps=50, cfg=cfg)
        gap = max(float(np.max(np.abs(x.values - y.values))) for x, y in zip(a, b))
        assert gap <= 1e-12

    def test_matches_per_node_scalar_recursion(self):
        # x_{n+1}(t_i) = x_n(t_i) (1 - alpha_n (1 + t_i + theta_n))
        ctx2 = LpContext(p=2.0, M=100)
        x1 = GridFunction.from_callable(INV_QUAD, 100)
        cfg = SolveConfig(ctx=ctx2, schedule=default_schedule(1.0), tol=1e-30, max_iter=50)
        snaps = iterates_of(solve_zero_hilbert, mult_op(), x1, steps=50, cfg=cfg)
        sched = cfg.schedule
        t = x1.nodes
        vals = x1.values.copy()
        for n in range(1, 51):
            al, th = float(sched.alpha(n)), float(sched.theta(n))
            vals = vals * (1.0 - al * (1.0 + t + th))
            assert np.max(np.abs(snaps[n - 1].values - vals)) <= 1e-12

    def test_phi_is_squared_distance(self):
        # at p = 2, phi(t, x) = ||t - x||^2
        ctx2 = LpContext(p=2.0, M=100)
        target = GridFunction.from_callable(lambda t: 0.1 * np.cos(t), ctx2.M)
        cfg = config(ctx2, tol=1e-30, max_iter=20, target=target)
        x1 = GridFunction.full(ctx2.M, 1.0)
        snaps = iterates_of(solve_zero_hilbert, mult_op(), x1, steps=20, cfg=cfg)
        _, trace = solve_zero_hilbert(mult_op(), x1, cfg)
        for x, row in zip(snaps, trace.rows):
            assert row.phi_to_target == pytest.approx(lp_norm(target - x, 2.0) ** 2, rel=1e-12)

    def test_zero_start_stays(self):
        ctx2 = LpContext(p=2.0, M=50)
        cfg = SolveConfig(ctx=ctx2, schedule=default_schedule(1.0), tol=1e-8)
        x, trace = solve_zero_hilbert(mult_op(), GridFunction.zeros(50), cfg)
        assert trace.converged and trace.nfe == 1
        assert np.all(x.values == 0.0)


class TestJFixedForm:
    def test_matches_zero_solver_through_j_minus_t(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=50)
        A = mult_op()
        a = iterates_of(solve_zero, A, x1, steps=50, cfg=cfg)
        b = iterates_of(solve_jfixed, j_pseudo_from_monotone(A, ctx), x1, steps=50, cfg=cfg)
        gap = max(float(np.max(np.abs(x.values - y.values))) for x, y in zip(a, b))
        assert gap <= 1e-12

    def test_t_equals_j_is_pure_damping(self, ctx):
        # T = J makes A = J - T = 0: each step contracts by (1 - alpha theta)
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=30)
        T = MonotoneOp(lambda x: duality_map(x, ctx), name="J")
        snaps = iterates_of(solve_jfixed, T, x1, steps=30, cfg=cfg)
        sched = cfg.schedule
        vals = x1.values.copy()
        for n in range(1, 31):
            vals = (1.0 - float(sched.alpha(n)) * float(sched.theta(n))) * vals
            assert np.max(np.abs(snaps[n - 1].values - vals)) <= 1e-12

    def test_j_fixed_point_is_stationary(self, ctx):
        T = j_pseudo_from_monotone(mult_op(), ctx)
        x, trace = solve_jfixed(T, GridFunction.zeros(ctx.M), config(ctx))
        assert trace.converged and trace.nfe == 1
        assert np.all(x.values == 0.0)


class TestHammerstein:
    def test_zero_pair_stays(self, ctx):
        pair = hammerstein_example()
        u, v, trace = solve_hammerstein(
            pair, GridFunction.zeros(ctx.M), GridFunction.zeros(ctx.M), config(ctx)
        )
        assert trace.converged and trace.nfe == 1
        assert np.all(u.values == 0.0) and np.all(v.values == 0.0)

    def test_equivalent_to_product_space_run(self, ctx):
        # component recursions == core recursion on E = X x X* with
        # A[u,v] = [Fu - v, Kv + u] and the product duality map
        pair = hammerstein_example()
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * np.sin(t)), ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=20)
        snaps = iterates_of(solve_hammerstein, pair, u1, v1, steps=20, cfg=cfg)

        A = product_op(pair)
        sched = cfg.schedule
        w = ProductPoint(u1, v1)
        for n in range(1, 21):
            al, th = float(sched.alpha(n)), float(sched.theta(n))
            jw = product_duality(w, ctx)
            aw = A(w)
            wd = ProductPoint(
                jw.u - al * aw.u - (al * th) * jw.u,
                jw.v - al * aw.v - (al * th) * jw.v,
            )
            w = product_duality_inverse(wd, ctx)
            un, vn = snaps[n - 1]
            assert np.max(np.abs(w.u.values - un.values)) <= 1e-10
            assert np.max(np.abs(w.v.values - vn.values)) <= 1e-10

    def test_stops_only_when_both_residuals_small(self, ctx):
        pair = hammerstein_example()
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * np.sin(t)), ctx.M)
        cfg = config(ctx, tol=1e-5)
        _, _, trace = solve_hammerstein(pair, u1, v1, cfg)
        assert trace.converged
        for row in trace.rows[:-1]:
            assert not (row.residual < cfg.tol and row.residual_dual < cfg.tol)
        assert trace.final.residual < cfg.tol and trace.final.residual_dual < cfg.tol

    def test_dual_residual_column_present(self, ctx):
        pair = hammerstein_example()
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, _, trace = solve_hammerstein(pair, u1, u1, config(ctx, tol=1e-3))
        assert all(row.residual_dual is not None for row in trace.rows)

    def test_grid_mismatch_rejected(self, ctx):
        pair = hammerstein_example()
        with pytest.raises(ValueError, match="grid"):
            solve_hammerstein(pair, GridFunction.zeros(50), GridFunction.zeros(50), config(ctx))


class TestZeroTarget:
    # phi(0, x) = ||x||^2: the engine skips pairing J x_{n+1} with a zero target
    # component, and the column must not move by a bit

    def same_bits(self, trace):
        phi, norm = trace.columns["phi_to_target"], trace.columns["iterate_norm"]
        assert phi.tobytes() == (norm * norm).tobytes()

    def test_lp(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = config(ctx, tol=1e-9, target=GridFunction.zeros(ctx.M))
        self.same_bits(solve_zero(mult_op(), x1, cfg)[1])

    def test_hilbert(self):
        ctx2 = LpContext(p=2.0, M=100)
        cfg = config(ctx2, tol=1e-9, target=GridFunction.zeros(ctx2.M))
        self.same_bits(solve_zero_hilbert(mult_op(), GridFunction.from_callable(INV_QUAD, 100), cfg)[1])

    def test_product_space(self, ctx):
        zero = GridFunction.zeros(ctx.M)
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * np.sin(t)), ctx.M)
        cfg = config(ctx, tol=1e-9, target=ProductPoint(zero, zero))
        self.same_bits(solve_hammerstein(hammerstein_example(), u1, v1, cfg)[2])


class TestVariationalInequality:
    # Note: 1/(1+t^2) attains 1.0 exactly at t = 0, so a [-1, 1] box does
    # not strictly contain it; interior-behavior tests use [-2, 2].

    def test_interior_run_coincides_with_zero_solver(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-30, max_iter=30)
        a = iterates_of(solve_zero, mult_op(), x1, steps=30, cfg=cfg)
        b = iterates_of(
            lambda T, x, c, callback: solve_vi(T, (-2.0, 2.0), x, c, callback=callback),
            mult_op(),
            x1,
            steps=30,
            cfg=cfg,
        )
        gap = max(float(np.max(np.abs(x.values - y.values))) for x, y in zip(a, b))
        assert gap == 0.0

    def test_feasibility_column_recorded(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_vi(mult_op(), (-2.0, 2.0), x1, config(ctx, tol=1e-4))
        assert all(row.feasibility_violation == 0.0 for row in trace.rows)

    def test_boundary_start_single_step(self, ctx):
        x1 = GridFunction.full(ctx.M, 1.0)
        _, trace = solve_vi(mult_op(), (-1.0, 1.0), x1, config(ctx, max_iter=1))
        assert trace.nfe == 1
        assert trace.rows[0].feasibility_violation == 0.0

    def test_boundary_touching_start_escapes_box(self, ctx):
        # with the tight box the node at t = 0 is active, the selection
        # kicks it outward past the lower bound, and the infeasibility is
        # propagated from the next selection
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        with pytest.raises(InfeasiblePointError):
            solve_vi(mult_op(), (-1.0, 1.0), x1, config(ctx))

    def test_infeasible_start_rejected(self, ctx):
        x1 = GridFunction.full(ctx.M, 2.0)
        with pytest.raises(InfeasiblePointError):
            solve_vi(mult_op(), (-1.0, 1.0), x1, config(ctx))

    def test_box_converted_and_checked_once_per_solve(self, ctx):
        class Bound:  # counts its conversions to an array
            def __init__(self, value):
                self.value, self.calls = value, 0

            def __array__(self, dtype=None, copy=None):
                self.calls += 1
                return np.array(self.value, dtype=dtype)

        box = (Bound(-2.0), Bound(2.0))
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_vi(mult_op(), box, x1, config(ctx, tol=1e-3))
        assert trace.nfe > 1
        assert [b.calls for b in box] == [1, 1]
        calls = []
        T = MonotoneOp(lambda x: calls.append(None) or x)
        with pytest.raises(ValueError, match="lo < hi"):
            solve_vi(T, (1.0, -1.0), x1, config(ctx))
        with pytest.raises(ValueError, match="magnitude"):
            solve_vi(T, (-1.0, 1.0), x1, config(ctx), magnitude=-1.0)
        assert calls == []

    def test_active_bound_steps_use_the_selection(self, ctx):
        # a nodewise box whose upper bound x1 touches at t = 0: each step adds
        # vi_normal_cone_selection(x_n) to T x_n, and the column holds x_n's violation
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        lo, hi = np.full(ctx.M + 1, -2.0), np.full(ctx.M + 1, 2.0)
        hi[0] = 1.0
        box = (lo, hi)
        cfg = config(ctx, max_iter=3)
        snaps = [x1] + iterates_of(lambda *a, callback: solve_vi(*a, callback=callback),
                                   mult_op(), box, x1, steps=3, cfg=cfg)
        _, trace = solve_vi(mult_op(), box, x1, cfg)
        for x, feas in zip(snaps, trace.columns["feasibility_violation"]):
            assert feas == feasibility_violation(x, box)
        al, th = float(cfg.schedule.alpha(1)), float(cfg.schedule.theta(1))
        dual = duality_map(x1, ctx) * (1.0 - al * th) - al * (mult_op()(x1) + vi_normal_cone_selection(x1, box))
        expected = duality_map_inverse(dual, ctx)
        assert np.max(np.abs(snaps[1].values - expected.values)) <= 1e-12
        assert vi_normal_cone_selection(x1, box).values[0] == 1.0

    def test_solution_of_example_vi_is_zero(self, ctx):
        # (1+t)x = 0 has the feasible interior solution x = 0
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        x, trace = solve_vi(mult_op(), (-2.0, 2.0), x1, config(ctx, tol=1e-6))
        assert trace.converged
        assert lp_norm(x, ctx.p) <= 0.05


class TestMinimization:
    def test_minimizer_start_stays(self, ctx):
        sub = norm_subgradient_op(ctx, "literal")
        x, trace = solve_min(sub, GridFunction.zeros(ctx.M), config(ctx))
        assert trace.converged and trace.nfe == 1
        assert np.all(x.values == 0.0)

    def test_norms_trend_to_minimizer(self, ctx):
        sub = norm_subgradient_op(ctx, "literal")
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        x, trace = solve_min(sub, x1, config(ctx, tol=1e-2))
        assert trace.converged
        assert trace.final.iterate_norm < trace.rows[0].iterate_norm
        assert trace.final.iterate_norm < 0.05

    def test_duality_variant_also_converges(self, ctx):
        sub = norm_subgradient_op(ctx, "duality")
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_min(sub, x1, config(ctx, tol=1e-2))
        assert trace.converged


class TestGuards:
    def test_divergence_guard_trips(self, ctx):
        # a strongly expanding map: dual step grows by (1 + 10 alpha_n)
        bad = MonotoneOp(lambda x: -10.0 * duality_map(x, ctx), name="expanding")
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        with pytest.raises(DivergenceError, match="guard"):
            solve_zero(bad, x1, config(ctx))

    def test_non_finite_iterate_detected(self, ctx):
        huge = MonotoneOp(lambda x: 1e200 * x, name="overflow")
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        with pytest.raises(NonFiniteIterateError, match="step"):
            solve_zero(huge, x1, config(ctx))

    def test_non_finite_grid_function_result(self, ctx):
        # a map of grid functions cannot return inf values: their
        # construction fails, and the engine names the step
        A = MonotoneOp(lambda x: x * math.inf, name="inf")
        with pytest.raises(NonFiniteIterateError, match="iterate became non-finite at step 1$"):
            solve_zero(A, GridFunction.from_callable(INV_QUAD, ctx.M), config(ctx))

    def test_overflow_raises_without_warnings(self, ctx):
        # the public maps and the engine each ignore overflow, which the
        # non-finite checks report as errors instead
        huge = GridFunction.full(ctx.M, 1e250)
        blowup = MonotoneOp(lambda x: GridFunction(x.values * 1e200), name="blow-up")
        cfg = config(ctx, divergence_guard=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm(huge, 1.5) == math.inf
            with pytest.raises(NonFiniteValuesError):
                duality_map(huge, ctx)
            with pytest.raises(NonFiniteValuesError):
                duality_map_inverse(huge, ctx)
            with pytest.raises(NonFiniteIterateError, match="at step 1$"):
                solve_zero(blowup, GridFunction.full(ctx.M, 1e5), cfg)

    @pytest.mark.parametrize("solve", [solve_zero, solve_zero_hilbert])
    def test_finite_iterate_with_overflowing_norm_diverges(self, solve):
        # x_2 ~ 5e159 at every node: finite, but ||x_2||^2 overflows
        ctx2 = LpContext(p=2.0, M=100)
        A = MonotoneOp(lambda x: -1e160 * x, name="expanding")
        cfg = config(ctx2, divergence_guard=1e300)
        with pytest.raises(DivergenceError, match=r"^\|\|x_2\|\| = inf .* at step 1;"):
            solve(A, GridFunction.full(ctx2.M, 1.0), cfg)

    def test_operator_overflow_at_third_call(self, ctx):
        A = overflows_at_call(3)
        with pytest.raises(NonFiniteIterateError, match="at step 3$"):
            solve_zero(A, GridFunction.from_callable(INV_QUAD, ctx.M), config(ctx))

    def test_dual_component_overflow_at_third_call(self, ctx):
        pair = HammersteinPair(F=mult_op(), K=overflows_at_call(3))
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        with pytest.raises(NonFiniteIterateError, match="at step 3$"):
            solve_hammerstein(pair, u1, u1, config(ctx))

    def test_non_finite_kernel_values(self, ctx):
        # an array kernel's values reach the iterate unchecked until its norm
        A = MonotoneOp(kernel=lambda v, out: np.multiply(v, np.inf, out=out), name="inf")
        with pytest.raises(NonFiniteIterateError, match="at step 1$"):
            solve_zero(A, GridFunction.from_callable(INV_QUAD, ctx.M), config(ctx))

    def test_max_iter_flagging(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_zero(mult_op(), x1, config(ctx, tol=1e-12, max_iter=10))
        assert not trace.converged
        assert trace.nfe == 10
        assert trace.final.residual >= 1e-12

    def test_config_validation(self, ctx):
        with pytest.raises(ValueError):
            config(ctx, tol=0.0)
        with pytest.raises(ValueError):
            config(ctx, max_iter=0)

    def test_float_max_iter_rejected_at_construction(self, ctx):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            config(ctx, max_iter=1e3)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            config(ctx, max_iter=True)  # bool is an int subclass, not a step count
        assert config(ctx, max_iter=np.int64(10)).max_iter == 10

    @pytest.mark.parametrize("field", ["tol", "divergence_guard"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_config_rejected(self, ctx, field, value):
        with pytest.raises(ValueError, match=field):
            config(ctx, **{field: value})

    def test_initial_point_grid_checked(self, ctx):
        with pytest.raises(ValueError, match="M = 50"):
            solve_zero(mult_op(), GridFunction.zeros(50), config(ctx))

    def test_product_target_rejected_before_step_one(self, ctx):
        calls = []
        A = MonotoneOp(lambda x: calls.append(None) or x, name="counting")
        zero = GridFunction.zeros(ctx.M)
        cfg = config(ctx, target=ProductPoint(zero, zero))
        with pytest.raises(TypeError, match="1-component solve received a 2-component target"):
            solve_zero(A, GridFunction.from_callable(INV_QUAD, ctx.M), cfg)
        assert calls == []


class TestTraceContract:
    def test_rows_well_formed(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        zero = GridFunction.zeros(ctx.M)
        cfg = config(ctx, tol=1e-5, target=zero)
        _, trace = solve_zero(mult_op(), x1, cfg)
        ns = [row.n for row in trace.rows]
        assert ns[0] == 2 and ns == list(range(2, 2 + trace.nfe))
        assert all(row.residual >= 0.0 for row in trace.rows)
        assert all(row.phi_to_target is not None and row.phi_to_target >= -1e-10 for row in trace.rows)
        assert trace.converged and trace.final.residual < cfg.tol

    def test_columns_are_owned_read_only_float64(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = config(ctx, tol=1e-4, target=GridFunction.zeros(ctx.M))
        _, trace = solve_zero(mult_op(), x1, cfg)
        assert set(trace.columns) == {"residual", "iterate_norm", "phi_to_target", "elapsed"}
        for values in trace.columns.values():
            assert values.dtype == np.float64 and values.shape == (trace.nfe,)
            assert values.flags.owndata and not values.flags.writeable
        assert trace.final == trace.rows[-1]
        with pytest.raises(AttributeError):
            trace.rows.append(trace.final)

    def test_phi_column_absent_without_target(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_zero(mult_op(), x1, config(ctx, tol=1e-4))
        assert all(row.phi_to_target is None for row in trace.rows)

    def test_deterministic_reruns(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, t1 = solve_zero(mult_op(), x1, config(ctx))
        _, t2 = solve_zero(mult_op(), x1, config(ctx))
        assert t1.nfe == t2.nfe
        assert np.array_equal(t1.columns["residual"], t2.columns["residual"])

    def test_prefix_needs_a_looser_tol(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        _, trace = solve_zero(mult_op(), x1, config(ctx, tol=1e-6))
        assert trace.prefix(1e-6).rows == trace.rows
        with pytest.raises(ValueError, match="tol"):
            trace.prefix(1e-9)

    def test_empty_trace_final_raises(self, ctx):
        from lpmono import IterationTrace

        with pytest.raises(ValueError):
            IterationTrace().final


class TestExponentRange:
    """The engine across the supported exponents, and the role of gamma."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
    def test_converges_across_exponents(self, p):
        ctx = LpContext(p=p, M=100)
        x1 = GridFunction.from_callable(INV_QUAD, 100)
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-6)
        x, trace = solve_zero(mult_op(), x1, cfg)
        assert trace.converged
        assert lp_norm(x, p) <= 0.05

    def test_small_p_needs_small_gamma(self):
        # near p = 1 the inverse map's Lipschitz constant 1/(p-1) blows up,
        # so gamma = 1 steps overshoot; clipping alpha to 0.2*theta rescues it
        ctx = LpContext(p=1.1, M=100)
        x1 = GridFunction.from_callable(INV_QUAD, 100)
        with pytest.raises(DivergenceError):
            solve_zero(mult_op(), x1, SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-6))
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(0.2), tol=1e-6)
        x, trace = solve_zero(mult_op(), x1, cfg)
        assert trace.converged
        assert lp_norm(x, 1.1) <= 0.05


class TestKernelHammerstein:
    def test_integral_kernel_pair_converges_to_zero_solution(self, ctx):
        # F = (1+t)u with the positive separable kernel k(t,s) = ts:
        # (I + KF) is strictly positive, so u + KFu = 0 only at u = 0
        t = np.linspace(0.0, 1.0, ctx.M + 1)
        pair = HammersteinPair(F=mult_op(), K=hammerstein_kernel_op(np.outer(t, t)))
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda s: np.exp(-s), ctx.M)
        u, v, trace = solve_hammerstein(pair, u1, v1, config(ctx, tol=1e-6))
        assert trace.converged
        assert lp_norm(u, ctx.p) <= 0.05
        assert lp_norm(v, ctx.q) <= 0.05


class TestNonzeroZero:
    """A problem whose zero is not 0: A x = (1 + t)(x - g), g = cos(pi t) + 1/2.

    Every golden run has the zero 0, where the theta pull toward 0 and the
    zero agree.  Here they do not: ``converged`` means the step fell below
    tol while x_n sits on the regularized path theta_n J x + A x = 0, whose
    point at the slowly vanishing theta_n is still well short of g.  The
    pinned distance shows any bias that the carried dual vector brings into
    that pull."""

    @staticmethod
    def solve(p):
        ctx = LpContext(p=p, M=100)
        t = nodes(ctx.M)
        g = GridFunction(np.cos(np.pi * t) + 0.5)
        A = MonotoneOp(kernel=lambda v, out: np.multiply(1.0 + t, np.subtract(v, g.values, out), out),
                       name="shifted-mult")
        cfg = config(ctx)
        return (*solve_zero(A, GridFunction.from_callable(INV_QUAD, ctx.M), cfg), g, t, cfg)

    @pytest.mark.parametrize("p, nfe, gap", [(1.5, 8155, 0.2472124), (2.0, 9444, 0.2803378)])
    def test_stops_on_the_path_short_of_g(self, p, nfe, gap):
        x, trace, g, _, _ = self.solve(p)
        assert trace.converged and trace.nfe == nfe
        assert lp_norm(x - g, p) / lp_norm(g, p) == pytest.approx(gap, rel=1e-6)

    def test_p2_stops_at_the_regularized_point(self):
        # at p = 2, J is the identity and theta x + A x = 0 has the closed-form point
        # x_theta = (1 + t) g / (1 + t + theta); at theta_9444 = 0.451614 the iterate is within
        # 0.0067 ||g|| of it, and x_theta is 0.274 ||g|| from g
        x, trace, g, t, cfg = self.solve(2.0)
        theta = cfg.schedule.theta(trace.nfe)
        assert theta == pytest.approx(0.451614, rel=1e-6)
        x_theta = GridFunction((1.0 + t) * g.values / (1.0 + t + theta))
        assert lp_norm(x - x_theta, 2.0) / lp_norm(g, 2.0) == pytest.approx(0.0067043, rel=1e-4)
        assert lp_norm(x_theta - g, 2.0) / lp_norm(g, 2.0) == pytest.approx(0.2736484, rel=1e-6)


class TestRegularizationPathResidual:
    def test_zero_point_zero_residual(self, ctx):
        assert regularization_path_residual(mult_op(), GridFunction.zeros(ctx.M), 0.5, ctx) == 0.0

    def test_constant_against_analytic(self, ctx):
        # y = c: residual = c * (integral (theta + 1 + t)^3)^(1/3) at q = 3
        c, theta = 0.8, 0.37
        y = GridFunction.full(ctx.M, c)
        a = theta + 1.0
        analytic = c * (((a + 1.0) ** 4 - a**4) / 4.0) ** (1.0 / 3.0)
        got = regularization_path_residual(mult_op(), y, theta, ctx)
        assert got == pytest.approx(analytic, rel=1e-4)

    def test_reports_on_converged_run(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        cfg = config(ctx, tol=1e-6)
        x, trace = solve_zero(mult_op(), x1, cfg)
        theta_final = float(cfg.schedule.theta(trace.nfe))
        r = regularization_path_residual(mult_op(), x, theta_final, ctx)
        assert np.isfinite(r) and r >= 0.0
        print(f"path residual at final iterate: {r:.3e} (tol {cfg.tol:g})")

    def test_theta_must_be_positive(self, ctx):
        with pytest.raises(ValueError):
            regularization_path_residual(mult_op(), GridFunction.zeros(ctx.M), 0.0, ctx)


class TestOperatorContract:
    """An operator reads x_n and returns A x_n as an array of shape (M+1,);
    a kernel that does otherwise fails at step 1, named."""

    @pytest.mark.parametrize("kernel, fault", [
        (lambda v, out: np.multiply(v, 2.0, v), "at step 1: output array is read-only"),
        (lambda v, out: 0.0, "returned float at step 1"),
        (lambda v, out: out[:50], r"returned \(50,\) at step 1"),
        (lambda v, out: out[None], r"returned \(1, 101\) at step 1"),
        (lambda v, out: None, "returned NoneType at step 1"),
    ], ids=["writes-input", "scalar", "short", "row", "none"])
    def test_fault_named_at_step_1(self, ctx, kernel, fault):
        A = MonotoneOp(kernel=kernel, name="probe")
        with pytest.raises((TypeError, ValueError), match=rf"^operator 'probe' {fault}"):
            solve_zero(A, GridFunction.full(ctx.M, 1.0), config(ctx, max_iter=2000))

    def test_product_space_component_checked(self, ctx):
        # F's scalar would broadcast in Fu - v; each operator's result is checked
        pair = HammersteinPair(F=MonotoneOp(kernel=lambda v, out: 0.0, name="probe"), K=mult_op())
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        with pytest.raises(TypeError, match="^operator 'probe' returned float at step 1"):
            solve_hammerstein(pair, u1, u1, config(ctx))


class TestEdgeBranches:
    """The first steps of the engine equal the recursion written out with the
    public maps in the dual form, bit for bit, on starts that reach the
    zero-norm branches."""

    @staticmethod
    def transcribe(A, x1, ctx, cfg):
        """Per step: the residuals, ||x_{n+1}||, phi(target, x_{n+1}) (None without a
        target) and x_{n+1}.  The dual vector y_{n+1} is carried as J x_{n+1}, zeroed
        where J^{-1}'s norm is 0, and that norm, ||y_{n+1}||, is ||x_{n+1}||."""
        exps = (ctx.p, ctx.q)[: len(x1)]
        norm_of = lambda ns: ns[0] if len(ns) == 1 else float(np.hypot(*ns))
        if cfg.target is not None:
            t = (cfg.target.u, cfg.target.v) if len(x1) == 2 else (cfg.target,)
            nt = norm_of([lp_norm(f, r) for f, r in zip(t, exps)])
        x = [f.values for f in x1]
        jx = [duality_values(v, r)[0] for v, r in zip(x, exps)]
        steps = []
        for n, a, th in cfg.schedule.steps(cfg.max_iter):
            ax = A(x)
            dual = [(j - ax_i * a) - j * (a * th) for j, ax_i in zip(jx, ax)]
            xn, ns = zip(*(duality_values(v, rd) for v, rd in zip(dual, (ctx.q, ctx.p))))
            res = [lp_norm(GridFunction(u - v), r) for u, v, r in zip(xn, x, exps)]
            jx = [np.zeros_like(y) if nd == 0.0 else y for y, nd in zip(dual, ns)]
            norm = norm_of(ns)
            phi = None
            if cfg.target is not None:
                tj = sum(pairing(f, GridFunction(j)) for f, j in zip(t, jx))
                phi = nt * nt - 2.0 * tj + norm * norm
            steps.append((res, norm, phi, xn))
            x = xn
            if max(res) < cfg.tol:
                break
        return steps

    @staticmethod
    def start(kind, M):
        t = np.linspace(0.0, 1.0, M + 1)
        if kind == "zero":
            return np.zeros(M + 1)
        if kind == "minus-zero":  # -0.0 at every other node
            return np.where(np.arange(M + 1) % 2 == 1, -0.0, 1.0 / (1.0 + t * t))
        return np.full(M + 1, 1e-200)  # |x|^3 underflows: the q-norm of the start reads 0

    def check(self, trace, held, expected):
        assert trace.nfe == len(held) == len(expected)
        cols = [trace.columns[k] for k in ("residual", "residual_dual") if k in trace.columns]
        for i, (res, norm, phi, xn) in enumerate(expected):
            assert [c[i] for c in cols] == res
            assert trace.columns["iterate_norm"][i] == norm
            assert trace.columns["phi_to_target"][i] == phi
            for got, want in zip(held[i], xn):
                assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["zero", "minus-zero", "tiny"])
    def test_lp(self, ctx, kind):
        A = zero_op() if kind == "zero" else mult_op()
        x1 = GridFunction(self.start(kind, ctx.M))
        cfg = config(ctx, tol=1e-300, max_iter=3, target=GridFunction.from_callable(INV_QUAD, ctx.M))
        held = []
        _, trace = solve_zero(A, x1, cfg, callback=lambda n, x: held.append((x,)))
        expected = self.transcribe(lambda x: [A(x[0])], (x1,), ctx, cfg)
        self.check(trace, held, expected)

    @pytest.mark.parametrize("kind", ["zero", "minus-zero", "tiny"])
    def test_product_space(self, ctx, kind):
        F = K = zero_op() if kind == "zero" else mult_op()
        u1 = GridFunction(self.start(kind, ctx.M))
        v1 = GridFunction(self.start(kind, ctx.M)[::-1])
        target = ProductPoint(GridFunction.from_callable(INV_QUAD, ctx.M), GridFunction.full(ctx.M, 0.5))
        cfg = config(ctx, tol=1e-300, max_iter=3, target=target)
        held = []
        *_, trace = solve_hammerstein(HammersteinPair(F, K), u1, v1, cfg,
                                      callback=lambda n, u, v: held.append((u, v)))
        expected = self.transcribe(lambda x: [F(x[0]) - x[1], K(x[1]) + x[0]], (u1, v1), ctx, cfg)
        self.check(trace, held, expected)


class TestHeldIterates:
    """Iterates handed to the callback, and the one returned, stay as they were:
    each equals its step of the dual-form recursion, bit for bit."""

    @staticmethod
    def check(solve, args, cfg, A):
        held = []
        *final, trace = solve(*args, cfg, callback=lambda n, *xs: held.append(xs))
        expected = TestEdgeBranches.transcribe(A, args[1:], cfg.ctx, cfg)
        assert len(held) == len(expected) == trace.nfe >= 5
        for xs, row, (_, norm, _, xn) in zip(held, trace.rows, expected):
            assert row.iterate_norm == norm
            assert [x.values.tobytes() for x in xs] == [v.tobytes() for v in xn]
        for a, b in zip(final, held[-1]):
            assert np.array_equal(a.values, b.values)

    def test_lp(self, ctx):
        x1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        A = mult_op()
        self.check(solve_zero, (A, x1), config(ctx, tol=1e-3), lambda x: [A(x[0])])

    def test_hilbert(self):
        ctx2 = LpContext(p=2.0, M=100)
        x1 = GridFunction.from_callable(INV_QUAD, ctx2.M)
        A = mult_op()
        self.check(solve_zero_hilbert, (A, x1), config(ctx2, tol=1e-3), lambda x: [A(x[0])])

    def test_product_space(self, ctx):
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda t: np.exp(-t), ctx.M)
        pair = hammerstein_example()
        A = lambda x: [pair.F(x[0]) - x[1], pair.K(x[1]) + x[0]]
        self.check(solve_hammerstein, (pair, u1, v1), config(ctx, tol=1e-3), A)


class TestAllocations:
    """A step wraps no iterate: GridFunction constructions do not grow with
    the step count, only the returned components are built."""

    @staticmethod
    def constructions(monkeypatch, solve, max_iter: int) -> int:
        count = []
        init = GridFunction.__init__

        def counting(self, values):
            count.append(None)
            init(self, values)

        with monkeypatch.context() as m:
            m.setattr(GridFunction, "__init__", counting)
            solve(max_iter)
        return len(count)

    def test_lp(self, monkeypatch, ctx):
        A, x1 = mult_op(), GridFunction.from_callable(INV_QUAD, ctx.M)
        zero = GridFunction.zeros(ctx.M)

        def solve(k):
            solve_zero(A, x1, config(ctx, tol=1e-30, max_iter=k, target=zero))

        assert [self.constructions(monkeypatch, solve, k) for k in (10, 100)] == [1, 1]

    def test_kernel_hammerstein(self, monkeypatch, ctx):
        t = np.linspace(0.0, 1.0, ctx.M + 1)
        pair = HammersteinPair(F=mult_op(), K=hammerstein_kernel_op(np.exp(-np.abs(t[:, None] - t))))
        u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
        v1 = GridFunction.from_callable(lambda s: np.exp(-s), ctx.M)
        zero = GridFunction.zeros(ctx.M)

        def solve(k):
            cfg = config(ctx, tol=1e-30, max_iter=k, target=ProductPoint(zero, zero))
            solve_hammerstein(pair, u1, v1, cfg)

        assert [self.constructions(monkeypatch, solve, k) for k in (10, 100)] == [2, 2]
