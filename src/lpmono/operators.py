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
from functools import lru_cache
from typing import Callable

import numpy as np

from .duality import ProductPoint, duality_into
from .grid import (GridFunction, LpContext, _number, abs_norm, nodes, pairing, random_smooth,
                   trapezoid_weights)

SUBGRADIENT_VARIANTS = ("literal", "duality")
_FEAS_TOL = 1e-12  # box violation that vi_normal_cone_selection still accepts


class InfeasiblePointError(ValueError):
    """A point violated the variational-inequality box beyond tolerance."""


@dataclass(frozen=True)
class MonotoneOp:
    """A single-valued map of grid functions, semantically E -> E*.

    Exactly one of ``fn`` and ``kernel`` is given: ``fn`` maps a
    GridFunction to a GridFunction, ``kernel(v, out)`` nodal values to
    nodal values, written into ``out`` (an array like v, not v) or an
    array of its own; the operator maps each type to itself.
    ``monotonicity_warning`` carries the message of a failed
    sampled-monotonicity check (see :func:`hammerstein_kernel_op`).
    """

    fn: Callable[[GridFunction], GridFunction] | None = None
    name: str = "operator"
    monotonicity_warning: str | None = None
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.fn is None) == (self.kernel is None):
            raise TypeError(f"operator {self.name!r} takes exactly one of fn and kernel")

    def __call__(self, x, out=None):
        if self.kernel is None:  # a map of grid functions, also on nodal values
            return self.fn(x) if isinstance(x, GridFunction) else self.fn(GridFunction(x)).values
        if isinstance(x, GridFunction):
            with np.errstate(over="ignore", invalid="ignore"):  # as lp_norm; arrays keep the caller's
                return GridFunction(self.kernel(x.values, np.empty_like(x.values)))
        return self.kernel(x, np.empty_like(x) if out is None else out)


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
) -> float:
    """Minimum of <Ax - Ay, x - y> over random smooth pairs.

    A monotone operator yields a nonnegative minimum up to roundoff
    (>= -1e-10 is the acceptance threshold used by the tests).  The pairs
    come from a fixed seed, so the check is deterministic.
    """
    rng = np.random.default_rng(1234)
    worst = np.inf
    for _ in range(pairs):
        x = random_smooth(rng, M, scale)
        y = random_smooth(rng, M, scale)
        worst = min(worst, pairing(op(x) - op(y), x - y))
    return float(worst)


@lru_cache(maxsize=None)
def _one_plus_t(size: int) -> np.ndarray:
    return 1.0 + nodes(size - 1)


def _zeros(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    out.fill(0.0)
    return out


def _check_size(v: np.ndarray, M: int) -> None:
    """Reject nodal values from a grid other than the M-subinterval one a kernel was built for."""
    if v.size != M + 1:
        raise ValueError(f"kernel built for M = {M}, got function with M = {v.size - 1}")


def mult_op() -> MonotoneOp:
    """The multiplication operator (Af)(t) = (t + 1) f(t)."""
    return MonotoneOp(kernel=lambda v, out: np.multiply(_one_plus_t(v.size), v, out), name="mult")


def zero_op() -> MonotoneOp:
    """The zero operator; every point is a zero."""
    return MonotoneOp(kernel=_zeros, name="zero-op")


def identity_op() -> MonotoneOp:
    """The identity, used as K in the bundled Hammerstein example."""
    return MonotoneOp(kernel=lambda v, out: v, name="identity")


def norm_subgradient_op(ctx: LpContext, variant: str = "literal") -> MonotoneOp:
    """A selection from the subdifferential of f(x) = ||x||_p, as an operator.

    ``literal`` takes the Hilbert-space formula at face value and returns
    x / ||x||_p; ``duality`` returns J(x) / ||x||_p, the selection with
    <x, g> = ||x||_p and ||g||_q = 1 that is the honest subgradient in
    L_p.  At x = 0 the subdifferential is the closed unit dual ball and
    the selection returned is 0.  The operator works on ctx's grid only.
    """
    if variant not in SUBGRADIENT_VARIANTS:
        raise ValueError(f"unknown subgradient variant {variant!r}")
    M, p, w, s = ctx.M, ctx.p, trapezoid_weights(ctx.M), np.empty(ctx.M + 1)

    def literal(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        _check_size(v, M)
        norm = abs_norm(np.abs(v, out), p, w, out)
        return _zeros(v, out) if norm == 0.0 else np.divide(v, norm, out)

    def duality(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        _check_size(v, M)
        norm = duality_into(v, p, w, out, s)
        return out if norm == 0.0 else np.divide(out, norm, out)

    kernel = literal if variant == "literal" else duality
    return MonotoneOp(kernel=kernel, name=f"norm-subgrad[{variant}]")


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

    def kernel(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        _check_size(v, M)
        return np.matmul(kw, v, out)

    slack = sample_monotonicity(MonotoneOp(kernel=kernel), M, pairs=50, scale=1.0)
    warning = None
    if slack < -1e-10:
        warning = (
            f"kernel operator failed the sampled monotonicity check "
            f"(min pairing {slack:.3e})"
        )
        warnings.warn(warning, stacklevel=2)
    return MonotoneOp(name="kernel", monotonicity_warning=warning, kernel=kernel)


def product_op(pair: HammersteinPair) -> Callable[[ProductPoint], ProductPoint]:
    """The product-space operator A[u, v] = [Fu - v, Kv + u] on E = X x X*.

    Its zeros are exactly the pairs [u*, Fu*] with u* solving u + KFu = 0;
    the F/K cross terms cancel in the product pairing, so A inherits
    monotonicity from F and K.
    """

    def apply(z: ProductPoint) -> ProductPoint:
        return ProductPoint(pair.F(z.u) - z.v, pair.K(z.v) + z.u)

    return apply


def _gaps(v: np.ndarray, lo, hi, out: np.ndarray) -> tuple[float, float]:
    """max(lo - v) and max(v - hi) over the nodes, each >= 0 exactly where its bound is active."""
    top = np.maximum.reduce
    return float(top(np.subtract(lo, v, out))), float(top(np.subtract(v, hi, out)))


def feasibility_violation(x, box) -> float:
    """Largest nodewise violation of lo <= x <= hi (0 if feasible); x a GridFunction or array."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    v = x.values if isinstance(x, GridFunction) else x
    return max(0.0, *_gaps(v, lo, hi, np.empty_like(v)))


def _box_selection(box, magnitude: float) -> Callable[[np.ndarray, np.ndarray], float]:
    """Check ``box`` and ``magnitude`` once; ``select(v, out)`` then writes the selection at
    nodal values v into ``out`` (not v) and returns v's box violation, computed once for both."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if not np.all(lo < hi):
        raise ValueError("box requires lo < hi nodewise")
    magnitude = _number("magnitude", magnitude, float)
    if not (math.isfinite(magnitude) and magnitude >= 0.0):
        raise ValueError(f"magnitude must be finite and nonnegative, got {magnitude}")

    def select(v: np.ndarray, out: np.ndarray) -> float:
        below, above = _gaps(v, lo, hi, out)
        violation = max(0.0, below, above)
        if violation > _FEAS_TOL:
            raise InfeasiblePointError(
                f"point leaves the box by {violation:.3e} (> {_FEAS_TOL:.1e})"
            )
        out.fill(0.0)
        if above >= 0.0:
            out[v >= hi] = magnitude
        if below >= 0.0:
            out[v <= lo] = -magnitude
        return violation

    return select


def vi_normal_cone_selection(x, box, magnitude: float = 1.0):
    """A bounded selection from the normal cone of a nodewise box at x.

    Returns +magnitude where the upper bound is active, -magnitude where
    the lower bound is active, 0 at interior nodes, in x's type.  Raises
    :class:`InfeasiblePointError` if x leaves the box by more than
    1e-12.
    """
    v = x.values if isinstance(x, GridFunction) else x
    beta = np.empty_like(v)
    _box_selection(box, magnitude)(v, beta)
    return GridFunction(beta) if isinstance(x, GridFunction) else beta


def j_pseudo_from_monotone(A: MonotoneOp, ctx: LpContext) -> MonotoneOp:
    """The J-pseudocontractive map T = J - A paired with a monotone A.

    x is a J-fixed point of T (Tx = Jx) exactly when Ax = 0, which is
    what lets the J-fixed-point solver reuse the zero-finding engine.  T
    works on ctx's grid only.
    """
    M, p, w, s = ctx.M, ctx.p, trapezoid_weights(ctx.M), np.empty(ctx.M + 1)

    def kernel(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        _check_size(v, M)
        duality_into(v, p, w, out, s)
        return np.subtract(out, A(v, s), out)

    return MonotoneOp(kernel=kernel, name=f"J-minus-{A.name}")
