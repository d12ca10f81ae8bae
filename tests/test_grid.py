"""Grid kernel: quadrature, norms, pairing, and value/grid validation."""

import gc
import math
import tracemalloc
from fractions import Fraction
from functools import partial

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
    hammerstein_kernel_op,
    lp_norm,
    nodes,
    pairing,
    mult_op,
    sample_monotonicity,
    solve_vi,
    solve_zero,
)
from lpmono.cli import example_config, execute, resolve_init
from lpmono.duality import weighted_duality
from lpmono.grid import (_SCALAR_WEIGHTS_FROM, _smooth_basis, _smooth_values, _weigher,
                         random_smooth, trapezoid_integral, trapezoid_weights, weighted_norm,
                         weighted_sum)


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

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, 0.5])
    def test_exponent_must_be_finite_and_at_least_one(self, r):
        # at r = inf the sum of terms read 1.0 for 3 + t (sup norm 4), at r = nan it read nan
        with pytest.raises(ValueError, match=r"norm exponent r must be finite and >= 1, got"):
            lp_norm(from_rule(lambda t: 3.0 + t, M=10), r)

    @pytest.mark.parametrize("r", ["2", True, None])
    def test_exponent_must_be_a_number(self, r):
        with pytest.raises(ValueError, match=r"^r must be a number, got"):
            lp_norm(from_rule(lambda t: 3.0 + t, M=10), r)

    def test_exponent_one_and_an_integer_exponent(self):
        f = from_rule(lambda t: 3.0 + t, M=10)
        assert lp_norm(f, 1) == lp_norm(f, 1.0) == trapezoid_integral(f)
        assert lp_norm(f, np.int64(2)) == lp_norm(f, 2.0)


class TestWeighting:
    """Both forms of _weigher give the weight array's terms bit for bit: the array itself
    below _SCALAR_WEIGHTS_FROM subintervals, a scalar h with recomputed end terms from there."""

    SIZES = (_SCALAR_WEIGHTS_FROM - 1, _SCALAR_WEIGHTS_FROM, _SCALAR_WEIGHTS_FROM + 1, 10**5)

    @staticmethod
    def sample(M, rng):
        v = rng.standard_normal(M + 1) * 10.0 ** rng.uniform(-3.0, 3.0, M + 1)
        v[rng.choice(M + 1, 20, replace=False)] = 0.0
        return v

    def check(self, v):
        M = v.size - 1
        w, weigh = trapezoid_weights(M), _weigher(M)
        terms = w * v
        assert np.array_equal(weigh(v, None), terms) and np.array_equal(weigh(v), terms)
        out = v.copy()
        assert weigh(out, out) is out and np.array_equal(out, terms)  # in place, ends read first
        assert weighted_sum(v, weigh) == float(np.add.reduce(terms))
        m = np.abs(v)
        powers = {1.1: np.power(m, 1.1), 1.5: m * np.sqrt(m), 2.0: np.power(m, 2.0), 3.0: m * m * m}
        for r, m_r in powers.items():  # grid._power's forms
            norm = float(np.add.reduce(w * m_r)) ** (1.0 / r)
            assert weighted_norm(r, weigh)(m, np.empty_like(m)) == norm
            out_w, out = np.empty_like(v), np.empty_like(v)
            norm_w = weighted_duality(r, partial(np.multiply, w))(v, out_w, np.empty_like(v))
            assert weighted_duality(r, weigh)(v, out, np.empty_like(v)) == norm_w
            assert np.array_equal(out, out_w)

    @pytest.mark.parametrize("M", SIZES)
    def test_forms_agree_bit_for_bit(self, M, rng):
        self.check(self.sample(M, rng))

    def test_subnormal_end_term(self, rng):
        # at M = 10^5 both end terms are subnormal; halving h * t_M would round twice
        v = self.sample(10**5, rng)
        v[0], v[-1] = 3e-308, 3.1e-308
        end = trapezoid_weights(10**5)[-1]
        assert end * v[-1] != 0.5 * (1e-5 * v[-1]) and 0.0 < end * v[0] < 2.0**-1022
        self.check(v)

    @pytest.mark.parametrize("M", SIZES)
    @pytest.mark.parametrize("i", [0, 1, -1])
    def test_non_finite_nodes_stay_non_finite(self, M, i, rng):
        for bad in (math.inf, -math.inf, math.nan):
            v = self.sample(M, rng)
            v[i] = bad
            terms = _weigher(M)(v)
            assert np.array_equal(terms, trapezoid_weights(M) * v, equal_nan=True)
            total = weighted_sum(v, _weigher(M))
            assert math.isnan(total) if math.isnan(bad) else total == bad


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


class TestSmoothValues:
    """The probe functions of sample_monotonicity and random_smooth."""

    def test_zero_coefficients_shift_to_a_constant(self):
        # the all-zero sum is shifted by 1 before scaling, so a probe is never 0
        vals = _smooth_values(_smooth_basis(10), [0.0] * 6, 2.5)
        assert np.all(vals == 2.5)


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

    def test_repr_names_the_grid(self):
        assert repr(GridFunction.zeros(4)) == "GridFunction(M=4)"

    def test_values_frozen(self):
        f = GridFunction.zeros(10)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    @pytest.mark.parametrize("build, value", [
        (lambda M: GridFunction.zeros(M), 0.0),
        (lambda M: GridFunction.full(M, 2.5), 2.5),
    ], ids=["zeros", "full"])
    def test_constants_are_zero_stride_views(self, build, value):
        # one float at any M, where a node array at M = 10^6 is 8 MB; the peak is numpy's
        # bookkeeping for the finiteness check of that float
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = build(10**6)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held < 1024 and peak < 2048
        assert f.M == 10**6 and f.values.strides == (0,) and not f.values.flags.writeable
        assert f.values[0] == f.values[-1] == value

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_full_rejects_non_finite(self, value):
        with pytest.raises(NonFiniteValuesError):
            GridFunction.full(4, value)

    def test_in_place_construction_rejects_non_finite(self):
        # the solvers return their final buffers through it: no copy, the same check
        with pytest.raises(NonFiniteValuesError):
            GridFunction._frozen(np.array([0.0, np.nan, 1.0]))
        v = np.array([0.0, 0.5, 1.0])
        assert GridFunction._frozen(v).values is v and not v.flags.writeable

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


class TestGridSize:
    """One rule for the subinterval count M, reached by every maker of grid arrays."""

    @pytest.mark.parametrize("build, message", [
        (lambda: nodes(0), "M must be an integer >= 2, got 0"),
        (lambda: trapezoid_weights(0), "M must be an integer >= 2, got 0"),
        (lambda: nodes(True), "M must be an integer, got True"),
        (lambda: sample_monotonicity(mult_op(), 1), "M must be an integer >= 2, got 1"),
        (lambda: GridFunction([0.0, 1.0]), "M must be an integer >= 2, got 1"),
        (lambda: GridFunction.zeros(2.5), "M must be an integer, got 2.5"),
        (lambda: GridFunction.full(True, 1.0), "M must be an integer, got True"),
        (lambda: hammerstein_kernel_op(np.zeros((2, 2))), "M must be an integer >= 2, got 1"),
        (lambda: LpContext(1.5, 1), "M must be an integer >= 2, got 1"),
    ], ids=["nodes-0", "weights-0", "nodes-bool", "sampled-check-1", "GridFunction-2-nodes",
            "zeros-fraction", "full-bool", "kernel-2-nodes", "LpContext-1"])
    def test_probe_is_refused_naming_m(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_no_grid_arrays_outlive_a_sweep_over_m(self):
        # per-size caches of the nodes, the weights and mult_op's 1 + t held about 40 MB here
        tracemalloc.start()
        try:
            for M in (10**5, 2 * 10**5, 4 * 10**5, 10**6):
                lp_norm(GridFunction.full(M, 1.0), 1.5)
                sample_monotonicity(mult_op(), M, pairs=2)
                execute(example_config(1, grid=M, max_iter=3))
            sample_monotonicity(mult_op(), 100, pairs=2)  # mult_op's one-grid cache moves on
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1e6


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

    @pytest.mark.parametrize("build, message", [
        (lambda f: GridFunction.full(4, "1.5"), "value must be a number, got '1.5'"),
        (lambda f: GridFunction.full(4, True), "value must be a number, got True"),
        (lambda f: f * "2", "scalar must be a number, got '2'"),
        (lambda f: f * True, "scalar must be a number, got True"),
        (lambda f: "3" * f, "scalar must be a number, got '3'"),
        (lambda f: f / "2", "scalar must be a number, got '2'"),
    ], ids=["full-str", "full-bool", "mul-str", "mul-bool", "rmul-str", "div-str"])
    def test_grid_function_scalars(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(GridFunction.full(4, 2.0))

    def test_checked_numbers_are_stored_converted(self):
        # a Fraction p once reached numpy's power as an object array; a Fraction tol was compared
        # as a Fraction every step and recorded on the trace
        ctx = LpContext(p=Fraction(3, 2), M=np.int64(100))
        cfg = SolveConfig(ctx, default_schedule(), tol=Fraction(1, 10**6),
                          max_iter=np.int64(10**6), divergence_guard=np.float32(1e6))
        assert [type(v) for v in (ctx.p, ctx.M, ctx.q)] == [float, int, float]
        assert [type(v) for v in (cfg.tol, cfg.max_iter, cfg.divergence_guard)] == [float, int, float]
        _, trace = solve_zero(mult_op(), resolve_init("inv-quad", ctx.M), cfg)
        expected = execute(example_config(1)).trace
        assert trace.columns["residual"].tobytes() == expected.columns["residual"].tobytes()
        assert type(trace.tol) is float
