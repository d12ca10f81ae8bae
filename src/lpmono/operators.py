"""Catalog of monotone operators and problem builders.

Operators map the discrete L_p space into its dual; monotonicity
(<Ax - Ay, x - y> >= 0) is checked by sampling, not proved.  The catalog
covers the multiplication operator (t+1)f(t), the subdifferential of the
p-norm, Hammerstein pairs (superposition F plus integral K), box
normal-cone selections for variational inequalities, and the passage
between monotone maps and J-pseudocontractive maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .duality import ProductPoint, duality_map
from .grid import GridFunction, LpContext, lp_norm, nodes, pairing, random_smooth, trapezoid_weights

SUBGRADIENT_VARIANTS = ("literal", "duality")


class InfeasiblePointError(ValueError):
    """A point violated the variational-inequality box beyond tolerance."""


@dataclass(frozen=True)
class MonotoneOp:
    """A single-valued map of grid functions, semantically E -> E*.

    ``monotonicity_warning`` carries the message of a failed
    sampled-monotonicity check (see :func:`hammerstein_kernel_op`).
    """

    fn: Callable[[GridFunction], GridFunction]
    name: str = "operator"
    monotonicity_warning: str | None = None

    def __call__(self, f: GridFunction) -> GridFunction:
        return self.fn(f)


@dataclass(frozen=True)
class HammersteinPair:
    """The two maps of a Hammerstein equation u + KFu = 0."""

    F: MonotoneOp
    K: MonotoneOp


def sample_monotonicity(
    op: Callable[[GridFunction], GridFunction],
    M: int,
    pairs: int = 100,
    scale: float = 10.0,
    seed: int = 1234,
) -> float:
    """Minimum of <Ax - Ay, x - y> over random smooth pairs.

    A monotone operator yields a nonnegative minimum up to roundoff
    (>= -1e-10 is the acceptance threshold used by the tests).
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(pairs):
        x = random_smooth(rng, M, scale)
        y = random_smooth(rng, M, scale)
        worst = min(worst, pairing(op(x) - op(y), x - y))
    return float(worst)


def mult_op() -> MonotoneOp:
    """The multiplication operator (Af)(t) = (t + 1) f(t)."""

    def apply(f: GridFunction) -> GridFunction:
        return GridFunction((1.0 + nodes(f.M)) * f.values)

    return MonotoneOp(apply, name="mult")


def zero_op() -> MonotoneOp:
    """The zero operator; every point is a zero."""
    return MonotoneOp(lambda f: GridFunction.zeros(f.M), name="zero-op")


def identity_op() -> MonotoneOp:
    """The identity, used as K in the bundled Hammerstein example."""
    return MonotoneOp(lambda f: f, name="identity")


def norm_subgradient(
    x: GridFunction, ctx: LpContext, variant: str = "literal"
) -> GridFunction:
    """A selection from the subdifferential of f(x) = ||x||_p.

    ``literal`` takes the Hilbert-space formula at face value and returns
    x / ||x||_p; ``duality`` returns J(x) / ||x||_p, the selection with
    <x, g> = ||x||_p and ||g||_q = 1 that is the honest subgradient in
    L_p.  At x = 0 the subdifferential is the closed unit dual ball and
    the selection returned is 0.
    """
    if variant not in SUBGRADIENT_VARIANTS:
        raise ValueError(f"unknown subgradient variant {variant!r}")
    norm = lp_norm(x, ctx.p)
    if norm == 0.0:
        return GridFunction.zeros(x.M)
    if variant == "literal":
        return x / norm
    return duality_map(x, ctx) / norm


def norm_subgradient_op(ctx: LpContext, variant: str = "literal") -> MonotoneOp:
    """The selection of :func:`norm_subgradient` packaged as an operator."""
    if variant not in SUBGRADIENT_VARIANTS:
        raise ValueError(f"unknown subgradient variant {variant!r}")
    return MonotoneOp(
        lambda x: norm_subgradient(x, ctx, variant),
        name=f"norm-subgrad[{variant}]",
    )


def hammerstein_example() -> HammersteinPair:
    """The bundled pair (Fu)(t) = (t+1) u(t), K = identity.

    The composite equation u + KFu = (2 + t) u = 0 has the unique
    solution u = 0 with v = Fu = 0.
    """
    return HammersteinPair(F=mult_op(), K=identity_op())


def hammerstein_kernel_op(kernel) -> MonotoneOp:
    """Integral operator (Kv)(t_i) = integral of k(t_i, s) v(s) ds.

    ``kernel`` is the (M+1) x (M+1) sample matrix k(t_i, s_j); the s
    integral uses the trapezoid weights.  Construction runs a sampled
    monotonicity check; on failure a warning is emitted and recorded on
    the returned operator rather than raising, since some kernels of
    practical interest are only conditionally monotone.
    """
    k = np.array(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel must be square (M+1) x (M+1), got shape {k.shape}")
    if k.shape[0] < 3:
        raise ValueError("kernel needs at least M = 2 subintervals (3 nodes)")
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel has NaN or Inf entries")
    M = k.shape[0] - 1
    w = trapezoid_weights(M)
    kw = k * w  # fold quadrature weights into the matrix

    def apply(v: GridFunction) -> GridFunction:
        if v.M != M:
            raise ValueError(f"kernel built for M = {M}, got function with M = {v.M}")
        return GridFunction(kw @ v.values)

    slack = sample_monotonicity(apply, M, pairs=50, scale=1.0)
    warning = None
    if slack < -1e-10:
        warning = (
            f"kernel operator failed the sampled monotonicity check "
            f"(min pairing {slack:.3e})"
        )
        warnings.warn(warning, stacklevel=2)
    return MonotoneOp(apply, name="kernel", monotonicity_warning=warning)


def product_op(pair: HammersteinPair) -> Callable[[ProductPoint], ProductPoint]:
    """The product-space operator A[u, v] = [Fu - v, Kv + u] on E = X x X*.

    Its zeros are exactly the pairs [u*, Fu*] with u* solving u + KFu = 0;
    the F/K cross terms cancel in the product pairing, so A inherits
    monotonicity from F and K.
    """

    def apply(z: ProductPoint) -> ProductPoint:
        return ProductPoint(pair.F(z.u) - z.v, pair.K(z.v) + z.u)

    return apply


def feasibility_violation(x: GridFunction, box) -> float:
    """Largest nodewise violation of lo <= x <= hi (0 if feasible)."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    v = x.values
    return float(max(np.max(lo - v, initial=0.0), np.max(v - hi, initial=0.0), 0.0))


def vi_normal_cone_selection(
    x: GridFunction,
    box,
    magnitude: float = 1.0,
    feas_tol: float = 1e-12,
) -> GridFunction:
    """A bounded selection from the normal cone of a nodewise box at x.

    Returns +magnitude where the upper bound is active, -magnitude where
    the lower bound is active, 0 at interior nodes.  Raises
    :class:`InfeasiblePointError` if x leaves the box by more than
    ``feas_tol``.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if not np.all(lo < hi):
        raise ValueError("box requires lo < hi nodewise")
    if not (math.isfinite(magnitude) and magnitude >= 0.0):
        raise ValueError(f"magnitude must be finite and nonnegative, got {magnitude}")
    violation = feasibility_violation(x, box)
    if violation > feas_tol:
        raise InfeasiblePointError(
            f"point leaves the box by {violation:.3e} (> {feas_tol:.1e})"
        )
    v = x.values
    beta = np.zeros_like(v)
    beta[v >= hi] = magnitude
    beta[v <= lo] = -magnitude
    return GridFunction(beta)


def j_pseudo_from_monotone(A: MonotoneOp, ctx: LpContext) -> MonotoneOp:
    """The J-pseudocontractive map T = J - A paired with a monotone A.

    x is a J-fixed point of T (Tx = Jx) exactly when Ax = 0, which is
    what lets the J-fixed-point solver reuse the zero-finding engine.
    """

    def apply(x: GridFunction) -> GridFunction:
        return duality_map(x, ctx) - A(x)

    return MonotoneOp(apply, name=f"J-minus-{A.name}")
