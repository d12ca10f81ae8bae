"""Grid kernel: quadrature, norms, pairing, and value/grid validation."""

import math

import numpy as np
import pytest

from lpmono import (
    GridFunction,
    GridMismatchError,
    LpContext,
    MonotoneOp,
    NonFiniteValuesError,
    SolveConfig,
    default_schedule,
    lp_norm,
    pairing,
    random_smooth,
    solve_vi,
)
from lpmono.grid import trapezoid_integral, trapezoid_weights


def from_rule(rule, M=100):
    return GridFunction.from_callable(rule, M)


class TestTrapezoidIntegral:
    def test_constant_one(self):
        assert trapezoid_integral(GridFunction.full(100, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        assert trapezoid_integral(from_rule(lambda t: t)) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_m4_hand_value(self):
        # nodes 0, 1/4, 1/2, 3/4, 1: (1/4)(0/2 + 1/16 + 1/4 + 9/16 + 1/2) = 0.34375
        f = from_rule(lambda t: t * t, M=4)
        assert trapezoid_integral(f) == pytest.approx(0.34375, abs=1e-16)

    def test_linearity(self, rng):
        for _ in range(20):
            f = random_smooth(rng, 50, scale=3.0)
            g = random_smooth(rng, 50, scale=3.0)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = trapezoid_integral(a * f + b * g)
            rhs = a * trapezoid_integral(f) + b * trapezoid_integral(g)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_weights_shape_and_sum(self):
        w = trapezoid_weights(4)
        assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == 1.0


class TestLpNorm:
    def test_constant(self):
        for r in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(GridFunction.full(100, -2.5), r) == pytest.approx(2.5, rel=1e-14)

    def test_zero_function(self):
        assert lp_norm(GridFunction.zeros(100), 1.5) == 0.0

    def test_linear_against_analytic(self):
        # integral of t^{3/2} over [0,1] is 2/5
        f = from_rule(lambda t: t)
        assert abs(lp_norm(f, 1.5) - (2.0 / 5.0) ** (2.0 / 3.0)) <= 1e-4

    def test_homogeneity(self, rng):
        for _ in range(20):
            f = random_smooth(rng, 64, scale=5.0)
            c = rng.uniform(-4, 4)
            assert lp_norm(c * f, 1.5) == pytest.approx(abs(c) * lp_norm(f, 1.5), rel=1e-13)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            lp_norm(GridFunction.full(10, 1.0), 0.5)


class TestPairing:
    def test_with_zero(self, rng):
        f = random_smooth(rng, 100)
        assert pairing(f, GridFunction.zeros(100)) == 0.0

    def test_t_with_t(self):
        f = from_rule(lambda t: t)
        assert abs(pairing(f, f) - 1.0 / 3.0) <= 1e-4

    def test_one_with_t_exact_for_linear(self):
        one = GridFunction.full(100, 1.0)
        t = from_rule(lambda s: s)
        assert pairing(one, t) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_and_bilinear(self, rng):
        f = random_smooth(rng, 80, scale=2.0)
        g = random_smooth(rng, 80, scale=2.0)
        h = random_smooth(rng, 80, scale=2.0)
        assert pairing(f, g) == pairing(g, f)
        assert pairing(2.0 * f + g, h) == pytest.approx(
            2.0 * pairing(f, h) + pairing(g, h), abs=1e-13
        )

    def test_hoelder(self, rng, ctx):
        for _ in range(100):
            f = random_smooth(rng, ctx.M, scale=4.0)
            g = random_smooth(rng, ctx.M, scale=4.0)
            assert abs(pairing(f, g)) <= lp_norm(f, ctx.p) * lp_norm(g, ctx.q) + 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            pairing(GridFunction.zeros(10), GridFunction.zeros(20))


class TestGridFunction:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValuesError):
            GridFunction([0.0, np.nan, 1.0])
        with pytest.raises(NonFiniteValuesError):
            GridFunction([0.0, np.inf, 1.0])

    def test_rejects_tiny_grids_and_bad_shape(self):
        with pytest.raises(ValueError):
            GridFunction([1.0, 2.0])
        with pytest.raises(ValueError):
            GridFunction(np.zeros((3, 3)))

    def test_binary_ops_need_equal_grids(self):
        with pytest.raises(GridMismatchError):
            GridFunction.zeros(10) + GridFunction.zeros(12)

    def test_values_frozen(self):
        f = GridFunction.zeros(10)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_arithmetic(self):
        f = GridFunction.full(4, 2.0)
        g = GridFunction.full(4, 3.0)
        assert np.all((f + g).values == 5.0)
        assert np.all((f - g).values == -1.0)
        assert np.all((f * g).values == 6.0)
        assert np.all((2.0 * f).values == 4.0)
        assert np.all((f / 2.0).values == 1.0)
        assert np.all((-f).values == -2.0)

    def test_from_callable_scalar_only_rule(self):
        f = GridFunction.from_callable(lambda t: math.sin(t), 10)
        assert f.values[3] == pytest.approx(math.sin(0.3))

    def test_from_callable_wrong_shape_sampled_per_node(self):
        # the array call returns one scalar, not M+1 values
        f = GridFunction.from_callable(lambda t: 2.0, 10)
        assert np.array_equal(f.values, np.full(11, 2.0))

    def test_nodes_and_m(self):
        f = GridFunction.zeros(4)
        assert f.M == 4
        assert np.allclose(f.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestLpContext:
    def test_conjugate_exponent(self):
        ctx = LpContext(p=1.5)
        assert 1.0 / ctx.p + 1.0 / ctx.q == pytest.approx(1.0, abs=1e-15)
        assert ctx.q == pytest.approx(3.0)
        assert ctx.lipschitz_L == pytest.approx(2.0)

    def test_p_two_allowed(self):
        ctx = LpContext(p=2.0, M=10)
        assert ctx.q == pytest.approx(2.0)
        assert ctx.lipschitz_L == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5, 3.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            LpContext(p=p)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            LpContext(p=1.5, M=1)

    def test_float_m_rejected_at_construction(self):
        with pytest.raises(ValueError, match="M must be an integer"):
            LpContext(1.5, 100.0)
        with pytest.raises(ValueError, match="M must be an integer"):
            LpContext(1.5, True)
        assert LpContext(1.5, np.int64(100)).M == 100


def _vi_with_magnitude(ctx, magnitude):
    never = MonotoneOp(kernel=lambda v, out: pytest.fail("a step ran"), name="never")
    cfg = SolveConfig(ctx, default_schedule())
    return solve_vi(never, (-2.0, 2.0), GridFunction.zeros(ctx.M), cfg, magnitude=magnitude)


class TestNumberRule:
    """Every constructor refuses a str or a bool where a number belongs, naming the value."""

    @pytest.mark.parametrize("build, message", [
        (lambda ctx: LpContext(p="1.5"), "p must be a number, got '1.5'"),
        (lambda ctx: SolveConfig(ctx, default_schedule(), tol=True), "tol must be a number, got True"),
        (lambda ctx: default_schedule(gamma=True), "gamma must be a number, got True"),
        (lambda ctx: SolveConfig(ctx, default_schedule(), divergence_guard="1e6"),
         "divergence_guard must be a number, got '1e6'"),
        (lambda ctx: default_schedule(theta_log_base="10"),
         "theta_log_base must be a number, got '10'"),
        (lambda ctx: _vi_with_magnitude(ctx, True), "magnitude must be a number, got True"),
    ], ids=["LpContext-p", "SolveConfig-tol", "schedule-gamma", "SolveConfig-guard",
            "schedule-log-base", "solve_vi-magnitude"])
    def test_probe_fails_when_built(self, ctx, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(ctx)
