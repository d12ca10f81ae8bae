"""Duality maps, Lyapunov/V functionals, product duality, and the
two-point inequality constants, checked against their defining identities
and the geometry inequalities of L_p with 1 < p <= 2."""

import math

import numpy as np
import pytest

from lpmono import (
    GridFunction,
    LpContext,
    ProductPoint,
    duality_map,
    lp_norm,
    pairing,
    product_duality,
)
from lpmono.duality import (
    NoRootError,
    duality_map_inverse,
    lyapunov_phi,
    product_norm,
    product_norm_dual,
    product_duality_inverse,
    product_pairing,
    v_functional,
    weighted_duality,
    xu_constants,
)
from lpmono.grid import _weigher, random_smooth, trapezoid_weights


class TestDualityMap:
    def test_defining_identities_random(self, rng, ctx):
        for _ in range(100):
            f = random_smooth(rng, ctx.M, scale=5.0)
            jf = duality_map(f, ctx)
            n = lp_norm(f, ctx.p)
            assert pairing(f, jf) == pytest.approx(n * n, rel=1e-10)
            assert lp_norm(jf, ctx.q) == pytest.approx(n, rel=1e-10)

    def test_constant_is_fixed_point(self, ctx):
        f = GridFunction.full(ctx.M, 3.25)
        assert np.allclose(duality_map(f, ctx).values, 3.25, rtol=1e-13)
        g = GridFunction.full(ctx.M, -1.5)
        assert np.allclose(duality_map(g, ctx).values, -1.5, rtol=1e-13)

    def test_zero_maps_to_zero(self, ctx):
        assert np.all(duality_map(GridFunction.zeros(ctx.M), ctx).values == 0.0)

    def test_linear_function_analytic(self, ctx):
        # J(t) = ||t||_{3/2}^{1/2} sqrt(t) with ||t||_{3/2} = (2/5)^{2/3}
        f = GridFunction.from_callable(lambda t: t, ctx.M)
        expected = (2.0 / 5.0) ** (1.0 / 3.0) * np.sqrt(f.nodes)
        assert np.max(np.abs(duality_map(f, ctx).values - expected)) <= 1e-3

    def test_positive_homogeneity(self, rng, ctx):
        f = random_smooth(rng, ctx.M, scale=2.0)
        lhs = duality_map(2.5 * f, ctx).values
        rhs = 2.5 * duality_map(f, ctx).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_zero_nodes_map_to_zero_nodes(self, ctx):
        f = GridFunction.from_callable(lambda t: np.where(t < 0.5, 0.0, t), ctx.M)
        jf = duality_map(f, ctx)
        assert np.all(jf.values[f.values == 0.0] == 0.0)

    @staticmethod
    def signed_sample(rng) -> np.ndarray:
        """101 nodes over six decades, with 20 nodes at 0.0 and 20 at -0.0."""
        v = rng.standard_normal(101) * 10.0 ** rng.uniform(-3.0, 3.0, 101)
        v[rng.choice(101, 20, replace=False)] = 0.0
        v[rng.choice(101, 20, replace=False)] = -0.0
        return v

    @staticmethod
    def one_power_norm(v: np.ndarray, r: float) -> float:
        """(sum of w |v|^(r-1) |v|)^(1/r), the norm as the map documents it."""
        a = np.abs(v)
        return float(np.add.reduce(trapezoid_weights(100) * (np.power(a, r - 1.0) * a))) ** (1.0 / r)

    def check_formula(self, v: np.ndarray, r: float) -> None:
        # norm^(2-r) |v|^(r-1) sign v, as it read before the sign was copied in one pass
        norm = self.one_power_norm(v, r)
        expected = norm ** (2.0 - r) * np.abs(v) ** (r - 1.0) * np.sign(v)
        out, scratch = np.empty_like(v), np.empty_like(v)
        assert weighted_duality(r, _weigher(100))(v, out, scratch) == norm
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(v))  # -0.0 maps to -0.0
        ctx = LpContext(p=r) if r <= 2.0 else LpContext(p=r / (r - 1.0))
        jmap = duality_map if r <= 2.0 else duality_map_inverse
        assert np.array_equal(jmap(GridFunction(v), ctx).values, expected)

    @pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 3.0])
    def test_one_pass_sign_equals_formula(self, rng, r):
        self.check_formula(self.signed_sample(rng), r)

    @pytest.mark.parametrize("seed, r", [(2, 1.5), (5, 3.0)])
    def test_one_pass_norm_is_lp_norm(self, seed, r):
        # at r = 3/2 and 3, lp_norm's |v|^r is |v| sqrt|v| and (|v| |v|) |v|, the map's
        # |v|^(r-1) |v| bit for bit; a one-pow |v|^r differed from it in the last bit on these
        # vectors
        v = self.signed_sample(np.random.default_rng(seed))
        assert lp_norm(GridFunction(v), r) == self.one_power_norm(v, r)
        self.check_formula(v, r)


class TestDualityMapInverse:
    def test_formula_on_constants(self, ctx):
        g = GridFunction.full(ctx.M, 1.75)
        assert np.allclose(duality_map_inverse(g, ctx).values, 1.75, rtol=1e-13)

    def test_zero(self, ctx):
        assert np.all(duality_map_inverse(GridFunction.zeros(ctx.M), ctx).values == 0.0)

    def test_round_trip_inverse_of_map(self, ctx):
        f = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
        back = duality_map_inverse(duality_map(f, ctx), ctx)
        assert lp_norm(back - f, ctx.p) <= 1e-8

    def test_round_trip_map_of_inverse(self, rng, ctx):
        for _ in range(20):
            g = random_smooth(rng, ctx.M, scale=3.0)
            back = duality_map(duality_map_inverse(g, ctx), ctx)
            assert lp_norm(back - g, ctx.q) <= 1e-8 * max(1.0, lp_norm(g, ctx.q))

    def test_norm_identity(self, rng, ctx):
        g = random_smooth(rng, ctx.M, scale=4.0)
        assert lp_norm(duality_map_inverse(g, ctx), ctx.p) == pytest.approx(
            lp_norm(g, ctx.q), rel=1e-12
        )


class TestLyapunovPhi:
    def test_phi_of_x_x_vanishes(self, rng, ctx):
        for _ in range(10):
            x = random_smooth(rng, ctx.M, scale=5.0)
            assert abs(lyapunov_phi(x, x, ctx)) <= 1e-10

    def test_phi_from_zero(self, rng, ctx):
        y = random_smooth(rng, ctx.M, scale=5.0)
        n = lp_norm(y, ctx.p)
        assert lyapunov_phi(GridFunction.zeros(ctx.M), y, ctx) == pytest.approx(n * n, rel=1e-12)

    def test_sandwich_bounds(self, rng, ctx):
        for _ in range(100):
            x = random_smooth(rng, ctx.M, scale=5.0)
            y = random_smooth(rng, ctx.M, scale=5.0)
            phi = lyapunov_phi(x, y, ctx)
            nx, ny = lp_norm(x, ctx.p), lp_norm(y, ctx.p)
            assert phi >= (nx - ny) ** 2 - 1e-10
            assert phi <= (nx + ny) ** 2 + 1e-10

    def test_nonnegative(self, rng, ctx):
        for _ in range(50):
            x = random_smooth(rng, ctx.M)
            y = random_smooth(rng, ctx.M)
            assert lyapunov_phi(x, y, ctx) >= -1e-10


class TestVFunctional:
    def test_v_of_x_jx_vanishes(self, rng, ctx):
        x = random_smooth(rng, ctx.M, scale=3.0)
        assert abs(v_functional(x, duality_map(x, ctx), ctx)) <= 1e-10

    def test_v_from_zero(self, rng, ctx):
        xs = random_smooth(rng, ctx.M, scale=3.0)
        n = lp_norm(xs, ctx.q)
        assert v_functional(GridFunction.zeros(ctx.M), xs, ctx) == pytest.approx(n * n, rel=1e-12)

    def test_equals_phi_through_inverse_map(self, rng, ctx):
        for _ in range(50):
            x = random_smooth(rng, ctx.M, scale=3.0)
            xs = random_smooth(rng, ctx.M, scale=3.0)
            v = v_functional(x, xs, ctx)
            phi = lyapunov_phi(x, duality_map_inverse(xs, ctx), ctx)
            assert abs(v - phi) <= 1e-8 * max(1.0, abs(v))


class TestGeometryInequalities:
    """The L_p inequalities (1 < p <= 2) behind the convergence argument."""

    def test_strong_monotonicity_of_j(self, rng, ctx):
        mu = ctx.p - 1.0
        for _ in range(100):
            x = random_smooth(rng, ctx.M, scale=5.0)
            y = random_smooth(rng, ctx.M, scale=5.0)
            lhs = pairing(x - y, duality_map(x, ctx) - duality_map(y, ctx))
            assert lhs >= mu * lp_norm(x - y, ctx.p) ** 2 - 1e-10

    def test_inverse_map_lipschitz(self, rng, ctx):
        L = ctx.lipschitz_L
        for _ in range(100):
            a = random_smooth(rng, ctx.M, scale=5.0)
            b = random_smooth(rng, ctx.M, scale=5.0)
            lhs = lp_norm(duality_map_inverse(a, ctx) - duality_map_inverse(b, ctx), ctx.p)
            assert lhs <= L * lp_norm(a - b, ctx.q) + 1e-10

    def test_domination_is_an_equality_at_p_two(self, rng):
        # ||x - y||^2 = phi(x, y) in the Hilbert case
        ctx2 = LpContext(p=2.0, M=100)
        for _ in range(100):
            x = random_smooth(rng, ctx2.M, scale=5.0)
            y = random_smooth(rng, ctx2.M, scale=5.0)
            assert lp_norm(x - y, 2.0) ** 2 == pytest.approx(
                lyapunov_phi(x, y, ctx2), abs=1e-10
            )

    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.8, 2.0])
    def test_phi_dominates_scaled_distance(self, rng, p):
        # 2-uniform convexity of L_p: phi(x, y) >= (p - 1) ||x - y||^2,
        # with equality at p = 2
        ctxp = LpContext(p=p, M=100)
        for _ in range(100):
            x = random_smooth(rng, ctxp.M, scale=5.0)
            y = random_smooth(rng, ctxp.M, scale=5.0)
            assert lyapunov_phi(x, y, ctxp) >= (p - 1.0) * lp_norm(x - y, p) ** 2 - 1e-10

    def test_domination_fails_below_p_two_counterexample(self, ctx):
        # ||x - y||^2 >= phi(x, y) does NOT extend to p < 2.  Hand check at
        # p = 3/2, M = 2: x = (1,1,1), y = (1,-1,1) have unit norms and
        # <x, Jy> = (1/4) - (1/2) + (1/4) = 0 by weight symmetry, so
        # phi = 2, while ||x-y||^2 = ||(0,2,0)||^2 = 2^(2/3) < 2.  The
        # bound phi >= (p - 1) ||x - y||^2 still holds: 2 >= 2^(2/3) / 2.
        small = LpContext(p=1.5, M=2)
        x = GridFunction([1.0, 1.0, 1.0])
        y = GridFunction([1.0, -1.0, 1.0])
        assert lyapunov_phi(x, y, small) == pytest.approx(2.0, abs=1e-12)
        assert lp_norm(x - y, 1.5) ** 2 == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
        assert lyapunov_phi(x, y, small) > lp_norm(x - y, 1.5) ** 2
        assert lyapunov_phi(x, y, small) >= 0.5 * lp_norm(x - y, 1.5) ** 2

    def test_alber_perturbation_inequality(self, rng, ctx):
        for _ in range(100):
            x = random_smooth(rng, ctx.M, scale=3.0)
            xs = random_smooth(rng, ctx.M, scale=3.0)
            ys = random_smooth(rng, ctx.M, scale=3.0)
            lhs = v_functional(x, xs, ctx) + 2.0 * pairing(
                duality_map_inverse(xs, ctx) - x, ys
            )
            assert lhs <= v_functional(x, xs + ys, ctx) + 1e-10


class TestXuConstants:
    def test_p_three_halves_root_at_one(self):
        c = xu_constants(1.5)
        assert c.t_p == 1.0
        assert c.c_p == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.3, 1.4, 1.49])
    def test_residual_small_on_supported_range(self, p):
        c = xu_constants(p)
        residual = (p - 1) * c.t_p ** (p - 1) + (p - 1) * c.t_p ** (p - 2) - 1.0
        assert abs(residual) <= 1e-12
        assert 0.0 < c.t_p < 1.0
        assert c.c_p >= 1.0

    @pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.3, 1.4, 1.49, 1.5])
    def test_root_bracketed_to_one_ulp(self, p):
        g = lambda t: (p - 1) * t ** (p - 1) + (p - 1) * t ** (p - 2) - 1.0
        t_p = xu_constants(p).t_p
        assert g(math.nextafter(t_p, 0.0)) >= 0.0 >= g(t_p)

    def test_root_increases_with_p(self):
        roots = [xu_constants(p).t_p for p in (1.1, 1.2, 1.3, 1.4, 1.5)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    @pytest.mark.parametrize("p", [1.51, 1.6, 1.9, 1.99, 2.0])
    def test_no_root_beyond_three_halves(self, p):
        # the equation's left side stays positive on (0,1] for p > 3/2
        with pytest.raises(NoRootError):
            xu_constants(p)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            xu_constants(2.5)


class TestProductDuality:
    def test_zero_point(self, ctx):
        z = ProductPoint(GridFunction.zeros(ctx.M), GridFunction.zeros(ctx.M))
        jz = product_duality(z, ctx)
        assert np.all(jz.u.values == 0.0) and np.all(jz.v.values == 0.0)

    def test_constants_fixed(self, ctx):
        c = GridFunction.full(ctx.M, 1.3)
        jz = product_duality(ProductPoint(c, c), ctx)
        assert np.allclose(jz.u.values, 1.3, rtol=1e-13)
        assert np.allclose(jz.v.values, 1.3, rtol=1e-13)

    def test_pairing_identity(self, rng, ctx):
        for _ in range(50):
            z = ProductPoint(random_smooth(rng, ctx.M, 3.0), random_smooth(rng, ctx.M, 3.0))
            n = product_norm(z, ctx)
            assert product_pairing(z, product_duality(z, ctx)) == pytest.approx(
                n * n, rel=1e-8
            )

    def test_norm_identity(self, rng, ctx):
        z = ProductPoint(random_smooth(rng, ctx.M, 3.0), random_smooth(rng, ctx.M, 3.0))
        assert product_norm_dual(product_duality(z, ctx), ctx) == pytest.approx(
            product_norm(z, ctx), rel=1e-8
        )

    def test_inverse_round_trip(self, rng, ctx):
        z = ProductPoint(random_smooth(rng, ctx.M, 3.0), random_smooth(rng, ctx.M, 3.0))
        back = product_duality_inverse(product_duality(z, ctx), ctx)
        assert np.allclose(back.u.values, z.u.values, rtol=1e-10, atol=1e-13)
        assert np.allclose(back.v.values, z.v.values, rtol=1e-10, atol=1e-13)

    def test_component_grids_must_match(self, ctx):
        with pytest.raises(Exception):
            ProductPoint(GridFunction.zeros(10), GridFunction.zeros(20))
