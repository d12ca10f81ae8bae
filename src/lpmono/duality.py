"""Duality geometry of the discrete L_p space.

Implements the normalized duality map J : L_p -> L_q and its inverse, the
Lyapunov functional phi, the V functional, the product-space duality map
for X x X*, and the constants (t_p, c_p) appearing in the L_p geometry
inequalities.

Because norms and pairings carry the trapezoid weights (see
:mod:`lpmono.grid`), the defining identities

    <f, Jf> = ||f||_p^2 = ||Jf||_q^2,    J^{-1}(Jf) = f

hold to machine precision in the discrete norms, not merely up to
quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, LpContext, lp_norm, pairing, trapezoid_weights, weighted_sum

class NoRootError(ValueError):
    """The t_p equation has no root on (0, 1] for the requested exponent."""


def duality_into(v: np.ndarray, r: float, w: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> float:
    """The normalized duality map of the weighted l_r space, into ``out``.

    Writes ||v||_r^{2-r} |v(t)|^{r-1} sign v(t) (zero for v = 0) into
    ``out`` (not v) and returns ||v||_r, both from one power: the norm's
    |v|^r is |v|^{r-1} |v|.  ``w`` is the grid's weights, and ``scratch``
    (not v) receives |v| and the norm's terms.  With r = p this is J, with
    r = q it is J^{-1}; the engine's step repeats this arithmetic bit for
    bit.  The sign is copied from v in one pass, which equals multiplying
    by sign v bit for bit except at a -0.0 node, which maps to -0.0.
    Overflow gives inf or nan values.
    """
    np.power(np.abs(v, scratch), r - 1.0, out)
    norm = weighted_sum(np.multiply(out, scratch, scratch), w, scratch) ** (1.0 / r)
    if norm == 0.0:
        out.fill(0.0)
    else:  # norm^(2-r) * |v|^(r-1), grouped as the formula reads, then v's sign
        np.multiply(out, norm ** (2.0 - r), out)
        np.copysign(out, v, out)
    return norm


def duality_values(v: np.ndarray, r: float) -> tuple[np.ndarray, float]:
    """The r-duality map of nodal values ``v`` as a new array, and ||v||_r (overflow gives inf or nan)."""
    out = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = duality_into(v, r, trapezoid_weights(v.size - 1), out, np.empty_like(v))
    return out, norm


def duality_map(f: GridFunction, ctx: LpContext) -> GridFunction:
    """Normalized duality map J : L_p -> L_q.

    Evaluates (Jf)(t) = ||f||_p^{2-p} |f(t)|^{p-1} sign f(t), the exponent
    arrangement satisfying <f, Jf> = ||f||_p^2 and ||Jf||_q = ||f||_p.
    Zero maps to zero.  Overflow surfaces as NonFiniteValuesError.
    """
    return GridFunction(duality_values(f.values, ctx.p)[0])


def duality_map_inverse(g: GridFunction, ctx: LpContext) -> GridFunction:
    """Inverse duality map J^{-1} : L_q -> L_p.

    Evaluates (J^{-1}g)(t) = ||g||_q^{2-q} |g(t)|^{q-1} sign g(t); this is
    also the duality map of L_q viewed as a primal space.
    """
    return GridFunction(duality_values(g.values, ctx.q)[0])


def lyapunov_phi(x: GridFunction, y: GridFunction, ctx: LpContext) -> float:
    """Lyapunov functional phi(x, y) = ||x||^2 - 2<x, Jy> + ||y||^2.

    Nonnegative, zero iff x = y.  For 1 < p <= 2 it controls the norm
    distance from below, (p - 1) ||x - y||^2 <= phi(x, y), with equality
    at p = 2; for p < 2 no bound phi(x, y) <= C ||x - y||^2 holds.
    """
    x._check_grid(y)
    nx = lp_norm(x, ctx.p)
    jy, ny = duality_values(y.values, ctx.p)
    return nx * nx - 2.0 * weighted_sum(x.values * jy, trapezoid_weights(y.M)) + ny * ny


def v_functional(x: GridFunction, xstar: GridFunction, ctx: LpContext) -> float:
    """V(x, x*) = ||x||_p^2 - 2<x, x*> + ||x*||_q^2 = phi(x, J^{-1}x*)."""
    nx = lp_norm(x, ctx.p)
    ns = lp_norm(xstar, ctx.q)
    return nx * nx - 2.0 * pairing(x, xstar) + ns * ns


@dataclass(frozen=True)
class XuConstants:
    """Constants of the two-point L_p inequality: root t_p and factor c_p."""

    t_p: float
    c_p: float


def xu_constants(p: float) -> XuConstants:
    """Solve (p-1) t^{p-1} + (p-1) t^{p-2} - 1 = 0 on (0, 1] by bisection.

    On (0, 1] the left side falls from +inf to 2p - 3 for p <= 3/2, so the
    root exists (t = 1 at p = 3/2); for larger p it stays above its
    minimum ((2-p)/(p-1))^{p-2} - 1 > 0 and :class:`NoRootError` is raised.
    t_p is the right end of a bracket of two adjacent floats.  From the
    root, c_p = (1 + t_p^{p-1}) (1 + t_p)^{-(p-1)}.
    """
    LpContext(p)  # p is a number in (1, 2]
    if p > 1.5:
        raise NoRootError(
            f"t_p equation has no sign change on (0, 1] for p = {p}; "
            "the root exists only for 1 < p <= 1.5"
        )
    g = lambda t: (p - 1.0) * t ** (p - 1.0) + (p - 1.0) * t ** (p - 2.0) - 1.0
    lo, hi = 0.0, 1.0  # g(0+) = +inf, g(1) = 2p - 3 <= 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    t_p = hi
    c_p = (1.0 + t_p ** (p - 1.0)) * (1.0 + t_p) ** (-(p - 1.0))
    return XuConstants(t_p=t_p, c_p=c_p)


@dataclass(frozen=True)
class ProductPoint:
    """A point [u, v] of the product space E = X x X* (X = L_p, X* = L_q).

    The same container also carries points of E* = X* x X, where the
    first component is dual-valued; the component spaces are tracked by
    usage, the data is just a pair of grid functions on one grid.
    """

    u: GridFunction
    v: GridFunction

    def __post_init__(self) -> None:
        self.u._check_grid(self.v)

    def __sub__(self, other: "ProductPoint") -> "ProductPoint":
        return ProductPoint(self.u - other.u, self.v - other.v)


def product_norm(z: ProductPoint, ctx: LpContext) -> float:
    """Norm of E = X x X*: (||u||_p^2 + ||v||_q^2)^(1/2)."""
    return float(np.hypot(lp_norm(z.u, ctx.p), lp_norm(z.v, ctx.q)))


def product_norm_dual(w: ProductPoint, ctx: LpContext) -> float:
    """Norm of E* = X* x X: (||a||_q^2 + ||b||_p^2)^(1/2) for w = [a, b]."""
    return float(np.hypot(lp_norm(w.u, ctx.q), lp_norm(w.v, ctx.p)))


def product_pairing(z: ProductPoint, w: ProductPoint) -> float:
    """Pairing of z = [u, v] in E with w = [a, b] in E*: <u, a> + <v, b>."""
    return pairing(z.u, w.u) + pairing(z.v, w.v)


def product_duality(z: ProductPoint, ctx: LpContext) -> ProductPoint:
    """Product duality map J_E [u, v] = [J_X u, J_{X*} v] from E to E*.

    J_X is the L_p map, J_{X*} the L_q map (formula of the inverse map).
    Preserves the norm: ||J_E z||_{E*} = ||z||_E.
    """
    return ProductPoint(duality_map(z.u, ctx), duality_map_inverse(z.v, ctx))


def product_duality_inverse(w: ProductPoint, ctx: LpContext) -> ProductPoint:
    """Inverse of the product duality map, from E* = X* x X back to E."""
    return ProductPoint(duality_map_inverse(w.u, ctx), duality_map(w.v, ctx))
