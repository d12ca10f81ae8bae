"""Operator catalog: pointwise behavior, sampled monotonicity, normal-cone
selections, and the monotone <-> J-pseudocontractive passage.  The
``duality`` subgradient is J x divided by the norm J computes with it, from
one power |x|^(p-1), bit for bit."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpmono
from lpmono import (
    GridFunction,
    GridMismatchError,
    InfeasiblePointError,
    LpContext,
    MonotoneOp,
    NonFiniteValuesError,
    ProductPoint,
    SolveConfig,
    default_schedule,
    duality_map,
    hammerstein_example,
    hammerstein_kernel_op,
    j_pseudo_from_monotone,
    lp_norm,
    mult_op,
    norm_subgradient_op,
    pairing,
    sample_monotonicity,
    solve_jfixed,
    solve_zero,
    zero_op,
)
from lpmono.duality import duality_values, product_pairing
from lpmono.cli import RunConfig, execute
from lpmono.grid import nodes, random_smooth, trapezoid_integral, trapezoid_weights
from lpmono.operators import (_one_plus_t, feasibility_violation, identity_op, product_op,
                              vi_normal_cone_selection)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, so that -0.0 and +0.0 differ."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def kernel_inputs(rng, M: int) -> list[GridFunction]:
    """50 seeded smooth functions and one with a -0.0 node."""
    xs = [random_smooth(rng, M, scale=3.0) for _ in range(50)]
    signed_zero = xs[0].values.copy()
    signed_zero[7] = -0.0
    return xs + [GridFunction(signed_zero)]


def test_overflowing_input_warns_nothing(ctx):
    # a kernel on a GridFunction sets its own error state; overflow shows as a value, not a warning
    x = GridFunction.full(ctx.M, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(norm_subgradient_op(ctx, "literal")(x).values == 0.0)
        with pytest.raises(NonFiniteValuesError):
            norm_subgradient_op(ctx, "duality")(x)
        with pytest.raises(NonFiniteValuesError):
            j_pseudo_from_monotone(mult_op(), ctx)(x)


@pytest.mark.parametrize("maps, name", [
    ({}, "empty"),
    ({"fn": lambda x: x, "kernel": lambda v, out: v}, "both"),
], ids=["neither", "both"])
def test_monotone_op_takes_exactly_one_map(maps, name):
    with pytest.raises(TypeError, match=f"^operator '{name}' takes exactly one of fn and kernel$"):
        MonotoneOp(name=name, **maps)


class TestMultOp:
    def test_zero_to_zero(self):
        A = mult_op()
        assert np.all(A(GridFunction.zeros(100)).values == 0.0)

    def test_one_maps_to_one_plus_t(self):
        A = mult_op()
        out = A(GridFunction.full(100, 1.0))
        assert np.allclose(out.values, 1.0 + out.nodes, rtol=0, atol=0)

    def test_one_plus_t_is_built_in_one_array(self):
        M = 10**5
        _one_plus_t.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one_plus_t = _one_plus_t(M + 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * one_plus_t.nbytes
        assert one_plus_t.tobytes() == (1.0 + nodes(M)).tobytes()

    def test_sampled_monotonicity(self):
        # integrand (1+t)(f-g)^2 is pointwise nonnegative
        assert sample_monotonicity(mult_op(), M=100) >= -1e-10


class TestNormSubgradient:
    def test_zero_selection_at_zero(self, ctx):
        for variant in ("literal", "duality"):
            g = norm_subgradient_op(ctx, variant)(GridFunction.zeros(ctx.M))
            assert np.all(g.values == 0.0)

    def test_positive_constant_gives_one(self, ctx):
        x = GridFunction.full(ctx.M, 2.5)
        for variant in ("literal", "duality"):
            g = norm_subgradient_op(ctx, variant)(x)
            assert np.allclose(g.values, 1.0, rtol=1e-13)

    def test_literal_variant_is_normalized_point(self, rng, ctx):
        x = random_smooth(rng, ctx.M, scale=3.0)
        g = norm_subgradient_op(ctx, "literal")(x)
        assert np.allclose(g.values, x.values / lp_norm(x, ctx.p), rtol=1e-14)

    def test_duality_selection_identities(self, rng, ctx):
        for _ in range(20):
            x = random_smooth(rng, ctx.M, scale=3.0)
            g = norm_subgradient_op(ctx, "duality")(x)
            assert pairing(x, g) == pytest.approx(lp_norm(x, ctx.p), rel=1e-8)
            assert lp_norm(g, ctx.q) == pytest.approx(1.0, rel=1e-10)

    def test_duality_variant_is_j_over_norm_bitwise(self, rng, ctx):
        # the norm J yields, from |x|^(p-1) |x|; lp_norm's pow(|x|, p) may differ in the last bit
        op = norm_subgradient_op(ctx, "duality")
        for x in kernel_inputs(rng, ctx.M):
            jx, norm = duality_values(x.values, ctx.p)
            assert same_bits(op(x).values, jx / norm)
        zero = op(GridFunction.zeros(ctx.M)).values
        assert same_bits(zero, np.zeros(ctx.M + 1))  # +0.0, not -0.0

    def test_unknown_variant(self, ctx):
        with pytest.raises(ValueError, match="variant"):
            norm_subgradient_op(ctx, "other")

    def test_op_wrapper_monotone(self, ctx):
        assert sample_monotonicity(norm_subgradient_op(ctx, "duality"), M=100) >= -1e-10


class TestHammersteinExample:
    def test_components(self):
        pair = hammerstein_example()
        one = GridFunction.full(100, 1.0)
        assert np.allclose(pair.F(one).values, 1.0 + one.nodes)
        u = GridFunction.from_callable(lambda t: np.cos(t), 100)
        assert np.all(pair.K(u).values == u.values)

    def test_composite_equation_is_two_plus_t_times_u(self, rng):
        pair = hammerstein_example()
        u = random_smooth(rng, 100, scale=2.0)
        lhs = u + pair.K(pair.F(u))
        assert np.allclose(lhs.values, (2.0 + u.nodes) * u.values, rtol=1e-14)

    def test_only_solution_is_zero(self):
        pair = hammerstein_example()
        z = GridFunction.zeros(100)
        assert np.all((z + pair.K(pair.F(z))).values == 0.0)


# the package's import and a kernel operator's build, in a fresh interpreter; numpy.random
# (about 6 MB of RSS) is imported by neither
BUILD_KERNEL_OP = """
import sys
import numpy as np
import lpmono, lpmono.cli
t = np.linspace(0.0, 1.0, 101)
lpmono.hammerstein_kernel_op(np.exp(-np.abs(t[:, None] - t[None, :])))
print("numpy.random" in sys.modules)
"""


class TestKernelOp:
    def test_zero_kernel(self):
        K = hammerstein_kernel_op(np.zeros((11, 11)))
        v = GridFunction.from_callable(lambda t: np.sin(t), 10)
        assert np.all(K(v).values == 0.0)

    def test_constant_kernel_integrates(self, rng):
        K = hammerstein_kernel_op(np.ones((101, 101)))
        v = random_smooth(rng, 100, scale=2.0)
        out = K(v)
        assert np.allclose(out.values, trapezoid_integral(v), rtol=1e-13)

    def test_separable_kernel_analytic(self):
        # k(t,s) = t*s applied to v(s) = s gives t * integral(s^2) = t/3
        t = np.linspace(0.0, 1.0, 101)
        K = hammerstein_kernel_op(np.outer(t, t))
        v = GridFunction(t)
        assert np.max(np.abs(K(v).values - t / 3.0)) <= 1e-4

    def test_monotone_kernel_has_no_warning(self):
        t = np.linspace(0.0, 1.0, 101)
        K = hammerstein_kernel_op(np.outer(t, t))
        assert K.monotonicity_warning is None

    def test_non_monotone_kernel_warns(self):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.warns(UserWarning, match="monotonicity"):
            K = hammerstein_kernel_op(-np.outer(t, t))
        assert K.monotonicity_warning is not None

    def test_check_samples_more_than_one_pair(self):
        # k = -g g^T gives <K e, e> = -<g, e>^2: with g orthogonal to the first probe pair's
        # difference e, the first pair reads 0 and the later ones read negative
        M, w = 100, trapezoid_weights(100)
        seen = []

        def record(v, out):
            seen.append(v.copy())
            return v

        sample_monotonicity(MonotoneOp(kernel=record), M, pairs=1, scale=1.0)
        e = seen[0] - seen[1]
        g = 1.0 - (w @ e) / (w @ (e * e)) * e
        with pytest.warns(UserWarning, match="monotonicity"):
            K = hammerstein_kernel_op(-np.outer(g, g))
        assert sample_monotonicity(K, M, pairs=1, scale=1.0) >= -1e-10

    def test_sampled_check_is_deterministic(self):
        t = np.linspace(0.0, 1.0, 101)
        K = hammerstein_kernel_op(np.exp(-np.abs(t[:, None] - t[None, :])))
        first = sample_monotonicity(K, 100, pairs=50, scale=1.0)
        assert first >= -1e-10
        assert sample_monotonicity(K, 100, pairs=50, scale=1.0) == first

    def test_sampled_check_takes_any_callable(self):
        # a map of grid functions, a kernel that returns its input, and the array kernel agree
        double = MonotoneOp(kernel=lambda v, out: np.multiply(v, 2.0, out), name="double")
        assert sample_monotonicity(lambda f: f * 2.0, 100) == sample_monotonicity(double, 100)
        assert sample_monotonicity(identity_op(), 100) > 0.0

    def test_sampled_check_refuses_a_non_finite_pairing(self):
        infinite = MonotoneOp(kernel=lambda v, out: np.multiply(v, np.inf, out), name="inf")
        with pytest.raises(NonFiniteValuesError, match="'inf' gave the pairing nan"):
            sample_monotonicity(infinite, 100)

    @pytest.mark.parametrize("kwargs, message", [
        ({"pairs": 0}, "pairs must be >= 1, got 0"),
        ({"pairs": 2.5}, "pairs must be an integer, got 2.5"),
        ({"scale": 0.0}, "scale must be finite and > 0, got 0.0"),
        ({"scale": math.inf}, "scale must be finite and > 0, got inf"),
        ({"scale": "1"}, "scale must be a number, got '1'"),
    ], ids=["pairs-0", "pairs-fraction", "scale-0", "scale-inf", "scale-str"])
    def test_sampled_check_refuses_bad_pairs_and_scale(self, kwargs, message):
        # no pairs read inf and a zero scale 0.0, so -I passed the >= -1e-10 verdict
        minus = MonotoneOp(kernel=lambda v, out: np.negative(v, out), name="minus-identity")
        assert sample_monotonicity(minus, 100, pairs=1) < -1e-10
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_monotonicity(minus, 100, **kwargs)

    def test_build_does_not_import_numpy_random(self):
        src = str(Path(lpmono.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_KERNEL_OP], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert proc.stdout == "False\n"

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            hammerstein_kernel_op(np.zeros((5, 6)))
        with pytest.raises(ValueError):
            hammerstein_kernel_op(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="NaN"):
            hammerstein_kernel_op(np.full((5, 5), np.nan))

    def test_grid_mismatch_on_apply(self):
        K = hammerstein_kernel_op(np.ones((11, 11)))
        with pytest.raises(ValueError, match="M = 10"):
            K(GridFunction.zeros(20))


class TestProductOp:
    def test_zero_point(self):
        A = product_op(hammerstein_example())
        z = ProductPoint(GridFunction.zeros(100), GridFunction.zeros(100))
        out = A(z)
        assert np.all(out.u.values == 0.0) and np.all(out.v.values == 0.0)

    def test_structured_point(self):
        # [u, v] = [1, 1+t]: Fu - v = 0 and Kv + u = 2 + t
        A = product_op(hammerstein_example())
        one = GridFunction.full(100, 1.0)
        v = GridFunction.from_callable(lambda t: 1.0 + t, 100)
        out = A(ProductPoint(one, v))
        assert np.allclose(out.u.values, 0.0, atol=1e-15)
        assert np.allclose(out.v.values, 2.0 + one.nodes, rtol=1e-15)

    def test_monotone_in_product_pairing(self, rng):
        # the +u / -v cross terms cancel, leaving the F and K terms
        A = product_op(hammerstein_example())
        for _ in range(100):
            z1 = ProductPoint(random_smooth(rng, 50, 5.0), random_smooth(rng, 50, 5.0))
            z2 = ProductPoint(random_smooth(rng, 50, 5.0), random_smooth(rng, 50, 5.0))
            gap = product_pairing(z1 - z2, A(z1) - A(z2))
            assert gap >= -1e-10


class TestNormalConeSelection:
    def test_interior_gives_zero(self):
        x = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), 100)
        beta = vi_normal_cone_selection(x, (-1.0, 1.5))
        assert np.all(beta.values == 0.0)

    def test_active_upper_bound(self):
        x = GridFunction.full(100, 1.0)
        beta = vi_normal_cone_selection(x, (-1.0, 1.0), magnitude=0.25)
        assert np.all(beta.values == 0.25)

    def test_active_lower_bound(self):
        x = GridFunction.full(100, -1.0)
        beta = vi_normal_cone_selection(x, (-1.0, 1.0), magnitude=2.0)
        assert np.all(beta.values == -2.0)

    def test_mixed_activity(self):
        x = GridFunction([1.0, 0.0, -1.0])
        beta = vi_normal_cone_selection(x, (-1.0, 1.0))
        assert list(beta.values) == [1.0, 0.0, -1.0]

    def test_infeasible_point_rejected(self):
        x = GridFunction.full(10, 2.0)
        with pytest.raises(InfeasiblePointError):
            vi_normal_cone_selection(x, (-1.0, 1.0))

    def test_tiny_violation_tolerated(self):
        x = GridFunction.full(10, 1.0 + 5e-13)
        beta = vi_normal_cone_selection(x, (-1.0, 1.0))
        assert np.all(beta.values == 1.0)

    @pytest.mark.parametrize("gap, rejected", [(1e-10, True), (1e-13, False)])
    def test_violation_tolerance_is_1e_12(self, gap, rejected):
        # the upper bound 0 makes the violation the gap itself, exactly
        x = GridFunction.full(10, gap)
        assert feasibility_violation(x, (-1.0, 0.0)) == gap
        if rejected:
            with pytest.raises(InfeasiblePointError, match=r"by 1\.000e-10 \(> 1\.0e-12\)"):
                vi_normal_cone_selection(x, (-1.0, 0.0))
        else:
            assert np.all(vi_normal_cone_selection(x, (-1.0, 0.0)).values == 1.0)

    def test_box_and_magnitude_validation(self):
        x = GridFunction.zeros(10)
        # one check of the box for the selection, the violation and a vi run, before any step
        for refuse in (vi_normal_cone_selection, feasibility_violation,
                       lambda x, box: execute(RunConfig("vi", "mult", box=box))):
            with pytest.raises(ValueError, match="^box requires lo < hi nodewise$"):
                refuse(x, (1.0, -1.0))
        with pytest.raises(ValueError, match="magnitude"):
            vi_normal_cone_selection(x, (-1.0, 1.0), magnitude=-1.0)

    def test_nodewise_bounds_match_the_masks(self, rng):
        # bounds touched exactly at some nodes, as the selection and violation read when
        # each was computed from its own masks and temporaries
        lo, hi = -1.0 - rng.uniform(0.0, 1.0, 51), 1.0 + rng.uniform(0.0, 1.0, 51)
        v = rng.uniform(-1.0, 1.0, 51)
        v[:5], v[5:10], v[10] = lo[:5], hi[5:10], hi[10] + 1e-13
        expected = np.zeros_like(v)
        expected[v >= hi] = 0.5
        expected[v <= lo] = -0.5
        assert np.array_equal(vi_normal_cone_selection(v, (lo, hi), magnitude=0.5), expected)
        violation = float(max(np.max(lo - v, initial=0.0), np.max(v - hi, initial=0.0), 0.0))
        assert feasibility_violation(v, (lo, hi)) == violation > 0.0

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="magnitude"):
            vi_normal_cone_selection(GridFunction.zeros(10), (-1.0, 1.0), magnitude=magnitude)

    def test_feasibility_violation_values(self):
        assert feasibility_violation(GridFunction.full(10, 0.5), (-1.0, 1.0)) == 0.0
        assert feasibility_violation(GridFunction.full(10, 1.25), (-1.0, 1.0)) == pytest.approx(0.25)
        assert feasibility_violation(GridFunction.full(10, -3.0), (-1.0, 1.0)) == pytest.approx(2.0)


class TestJPseudoFromMonotone:
    def test_zero_is_j_fixed_point(self, ctx):
        T = j_pseudo_from_monotone(mult_op(), ctx)
        z = GridFunction.zeros(ctx.M)
        assert np.all(T(z).values == 0.0)
        assert np.all(duality_map(z, ctx).values == 0.0)

    def test_j_minus_t_recovers_operator(self, rng, ctx):
        A = mult_op()
        T = j_pseudo_from_monotone(A, ctx)
        for _ in range(10):
            x = random_smooth(rng, ctx.M, scale=3.0)
            recovered = duality_map(x, ctx) - T(x)
            assert np.allclose(recovered.values, A(x).values, rtol=1e-12, atol=1e-14)

    def test_equals_j_minus_a_bitwise(self, rng, ctx):
        A = mult_op()
        T = j_pseudo_from_monotone(A, ctx)
        for x in kernel_inputs(rng, ctx.M) + [GridFunction.zeros(ctx.M)]:
            assert same_bits(T(x).values, duality_map(x, ctx).values - A(x).values)

    def test_j_pseudocontractivity_sampled(self, rng, ctx):
        T = j_pseudo_from_monotone(mult_op(), ctx)
        for _ in range(100):
            x = random_smooth(rng, ctx.M, scale=5.0)
            y = random_smooth(rng, ctx.M, scale=5.0)
            lhs = pairing(T(x) - T(y), x - y)
            rhs = pairing(duality_map(x, ctx) - duality_map(y, ctx), x - y)
            assert lhs <= rhs + 1e-10

    def test_zero_operator_gives_pure_j(self, rng, ctx):
        T = j_pseudo_from_monotone(zero_op(), ctx)
        x = random_smooth(rng, ctx.M, scale=2.0)
        assert np.allclose(T(x).values, duality_map(x, ctx).values, rtol=0, atol=0)


# operators built from an LpContext of M = 50, run in an M = 100 solve
GRID_BOUND = {
    "literal": lambda ctx: (solve_zero, norm_subgradient_op(ctx, "literal")),
    "duality": lambda ctx: (solve_zero, norm_subgradient_op(ctx, "duality")),
    "J-minus-A": lambda ctx: (solve_jfixed, j_pseudo_from_monotone(mult_op(), ctx)),
}


class TestBoundToContextGrid:
    @pytest.mark.parametrize("case", list(GRID_BOUND))
    def test_other_grid_fails_at_step_one(self, ctx, case):
        solve, op = GRID_BOUND[case](LpContext(ctx.p, 50))
        cfg = SolveConfig(ctx, default_schedule(1.0), max_iter=5)
        x1 = GridFunction.full(ctx.M, 1.0)
        with pytest.raises(ValueError, match="at step 1: kernel built for M = 50, got .* M = 100"):
            solve(op, x1, cfg)

    @pytest.mark.parametrize("case", list(GRID_BOUND))
    def test_other_grid_fails_on_apply(self, ctx, case):
        _, op = GRID_BOUND[case](ctx)
        with pytest.raises(GridMismatchError, match="M = 100"):
            op(GridFunction.full(50, 1.0))
