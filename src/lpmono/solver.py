"""One-step iteration for zeros of bounded maximal monotone maps on L_p.

The core recursion walks in the dual space and pulls back through the
inverse duality map,

    x_{n+1} = J^{-1}( J x_n - alpha_n A x_n - alpha_n theta_n J x_n ),

with acceptably paired (alpha_n, theta_n): the alpha term is a dual-space
step along A, the theta term is a vanishing Tikhonov-style pull toward 0
that selects the zero of minimal norm.  The iteration stops when
||x_n - x_{n-1}|| drops below the configured tolerance.

One loop runs every solver.  It works on raw nodal arrays and is
parametrized by the space it runs in: L_p, where J and J^{-1} are the p-
and q-maps; a Hilbert space (p = 2), where both are the identity; and the
product space E = X x X*, where J = [J_p, J_q].  The Hammerstein system
u + KFu = 0 is the core recursion on E with A[u, v] = [Fu - v, Kv + u];
minimization and variational inequalities run it with a subgradient
selection, or T plus a normal-cone selection, as the operator.  The
J-fixed-point form keeps its own (1 - alpha) grouping of the update so its
reduction to the core recursion stays checkable as a test oracle.

All solvers are deterministic: identical inputs reproduce identical
iterate and residual sequences bit for bit (wall-clock columns aside).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# duality_map_inverse, lyapunov_phi and product_duality are not called
# here; perfbench/tracer.py patches them by name on this module
from .duality import (
    ProductPoint,
    duality_map,
    duality_map_inverse,
    duality_values,
    lyapunov_phi,
    product_duality,
)
from .grid import (
    GridFunction,
    GridMismatchError,
    LpContext,
    NonFiniteValuesError,
    lp_norm,
    weighted_norm,
    weighted_sum,
)
from .operators import (
    HammersteinPair,
    feasibility_violation,
    vi_normal_cone_selection,
)
from .schedule import ParamSchedule


class DivergenceError(RuntimeError):
    """An iterate norm exceeded the divergence guard."""


class NonFiniteIterateError(RuntimeError):
    """An iterate acquired NaN or Inf nodes."""


@dataclass(frozen=True)
class SolveConfig:
    """Everything a solve needs besides the operator and starting point.

    ``target``, when given, declares a known zero; the trace then carries
    the Lyapunov distance phi(target, x_n) per step.  The divergence
    guard fails the run loudly once ||x_n||_p exceeds it, which signals a
    schedule/operator pairing outside the convergence regime.
    """

    ctx: LpContext
    schedule: ParamSchedule
    tol: float = 1e-6
    max_iter: int = 1_000_000
    divergence_guard: float = 1e6
    target: GridFunction | ProductPoint | None = None

    def __post_init__(self) -> None:
        for name in ("tol", "divergence_guard"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class TraceRow:
    """One iteration record; optional columns stay None when undefined."""

    n: int
    residual: float
    iterate_norm: float
    residual_dual: float | None = None
    phi_to_target: float | None = None
    feasibility_violation: float | None = None
    elapsed: float = 0.0


@dataclass
class IterationTrace:
    """Per-step history of a solve.

    ``nfe`` counts operator applications (one per step).  ``converged``
    is False when the run stopped on max_iter instead of the residual
    test.
    """

    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    tol: float = 0.0

    @property
    def nfe(self) -> int:
        return len(self.rows)

    @property
    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("trace is empty")
        return self.rows[-1]

    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.rows])

    def prefix(self, tol: float) -> "IterationTrace":
        """The trace of this solve stopped at ``tol`` >= ``self.tol``, a prefix of this one."""
        if tol < self.tol:
            raise ValueError(f"a run to tol {self.tol:g} holds no run to tol {tol:g}")
        stops = (max(r.residual, r.residual_dual or 0.0) < tol for r in self.rows)
        end = next((i + 1 for i, stop in enumerate(stops) if stop), None)  # as the engine stops
        return IterationTrace(self.rows[:end], converged=end is not None, tol=tol)


@dataclass(frozen=True)
class _Space:
    """The space the recursion runs in, one weighted-norm exponent per component.

    Component i of an iterate has norm exponent ``exps[i]``, the matching
    dual component ``dual_exps[i]``: J maps component i by the
    exps[i]-duality map and J^{-1} by the dual_exps[i]-map.  In a Hilbert
    space both maps are the identity.
    """

    exps: tuple[float, ...]
    dual_exps: tuple[float, ...]
    hilbert: bool = False

    def norms(self, x: list) -> tuple[list[float], float]:
        """The component norms and ||x||; on X x X*, (||u||_p^2 + ||v||_q^2)^(1/2)."""
        ns = [weighted_norm(xi, r) for xi, r in zip(x, self.exps)]
        return ns, ns[0] if len(ns) == 1 else float(np.hypot(*ns))

    def J(self, x: list, norms: list[float]) -> list:
        if self.hilbert:
            return x
        return [duality_values(xi, ni, r) for xi, ni, r in zip(x, norms, self.exps)]

    def Jinv(self, w: list) -> list:
        if self.hilbert:
            return w
        return [duality_values(wi, weighted_norm(wi, r), r) for wi, r in zip(w, self.dual_exps)]


def _lp_space(ctx: LpContext) -> _Space:
    return _Space((ctx.p,), (ctx.q,))


def _core_step(jx, ax, a: float, th: float):
    return jx - a * ax - (a * th) * jx


def _jfixed_step(jx, tx, a: float, th: float):
    return (1.0 - a) * jx + a * tx - (a * th) * jx


def _check_grid(points, M: int, what: str) -> None:
    for f in points:
        if f.M != M:
            raise GridMismatchError(f"{what} has M = {f.M}, the context grid has M = {M}")


@np.errstate(over="ignore", invalid="ignore")  # once per solve, see the wrap below
def _iterate(
    space: _Space,
    op: Callable,
    x1: tuple[GridFunction, ...],
    cfg: SolveConfig,
    callback: Callable | None,
    step: Callable = _core_step,
    feasibility: Callable | None = None,
) -> tuple:
    """The per-step loop behind every solver: stepping, stopping, tracing, guards.

    ``x1`` holds the starting point's components.  ``op(*xs)`` returns the
    operator's nodal values at x_n, one array per component;
    ``step(jx, ax, alpha, theta)`` forms the dual-space vector of one
    component; ``feasibility(*xs)``, when given, fills the feasibility
    column.  The run stops once every component residual is below tol.
    Returns the final components followed by the trace.
    """
    ctx = cfg.ctx
    _check_grid(x1, ctx.M, "initial point")
    target = cfg.target
    if target is not None:
        t = (target.u, target.v) if isinstance(target, ProductPoint) else (target,)
        if len(t) != len(x1):
            raise TypeError(f"a {len(x1)}-component solve received a {len(t)}-component target")
        _check_grid(t, ctx.M, "target")
        t = [f.values for f in t]
        nt = space.norms(t)[1]
    t0 = time.perf_counter()
    trace = IterationTrace(tol=cfg.tol)
    xs = x1
    x = [f.values for f in xs]
    jx = space.J(x, space.norms(x)[0])
    for n, a, th in cfg.schedule.steps(cfg.max_iter):
        feas = None if feasibility is None else feasibility(*xs)
        try:
            ax = op(*xs)
            w = [step(ji, ai, a, th) for ji, ai in zip(jx, ax)]
            # the wrap is the non-finite check of the new iterate, overflow included
            xs_next = [GridFunction(v) for v in space.Jinv(w)]
        except NonFiniteValuesError as exc:
            raise NonFiniteIterateError(f"iterate became non-finite at step {n}") from exc
        x_next = [f.values for f in xs_next]
        res = [weighted_norm(b - c, r) for b, c, r in zip(x_next, x, space.exps)]
        norms, norm = space.norms(x_next)
        if norm > cfg.divergence_guard:
            raise DivergenceError(
                f"||x_{n + 1}|| = {norm:.3e} exceeded the guard {cfg.divergence_guard:.1e} "
                f"at step {n}; check the schedule/operator pairing"
            )
        jx = space.J(x_next, norms)
        phi = None
        if target is not None:
            phi = nt * nt - 2.0 * sum(weighted_sum(ti * ji) for ti, ji in zip(t, jx)) + norm * norm
        trace.rows.append(
            TraceRow(
                n=n + 1,
                residual=res[0],
                iterate_norm=norm,
                residual_dual=res[1] if len(res) > 1 else None,
                phi_to_target=phi,
                feasibility_violation=feas,
                elapsed=time.perf_counter() - t0,
            )
        )
        xs, x = xs_next, x_next
        if callback is not None:
            callback(n + 1, *xs)
        if max(res) < cfg.tol:
            trace.converged = True
            break
    return (*xs, trace)


def solve_zero(
    A: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """Approximate a zero of a bounded maximal monotone map A : E -> E*.

    Runs x_{n+1} = J^{-1}(J x_n - alpha_n A x_n - alpha_n theta_n J x_n)
    from x1 until ||x_{n+1} - x_n||_p < cfg.tol or max_iter steps.

    Parameters
    ----------
    A : callable
        The operator; one application per step (this is the NFE count).
    x1 : GridFunction
        Starting point on cfg's grid.
    cfg : SolveConfig
    callback : callable, optional
        Invoked as callback(n, x_n) after each new iterate.

    Returns
    -------
    (GridFunction, IterationTrace)
        Final iterate and the full per-step trace.
    """
    return _iterate(_lp_space(cfg.ctx), lambda x: (A(x).values,), (x1,), cfg, callback)


def solve_zero_hilbert(
    A: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """The J-free form x_{n+1} = x_n - alpha_n A x_n - alpha_n theta_n x_n.

    Valid only at p = 2, where the duality map is the identity; agrees
    with :func:`solve_zero` there to roundoff.
    """
    if cfg.ctx.p != 2.0:
        raise ValueError(f"the Hilbert recursion requires p = 2, got p = {cfg.ctx.p}")
    space = _Space((2.0,), (2.0,), hilbert=True)
    return _iterate(space, lambda x: (A(x).values,), (x1,), cfg, callback)


def solve_min(
    subgrad: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """Minimize a convex functional given a subgradient selection.

    Identical engine to :func:`solve_zero` with the operator replaced by
    the selection x -> some element of the subdifferential at x.
    """
    return solve_zero(subgrad, x1, cfg, callback)


def solve_vi(
    T: Callable[[GridFunction], GridFunction],
    box,
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
    magnitude: float = 1.0,
) -> tuple[GridFunction, IterationTrace]:
    """Approximate a solution of the variational inequality over a box.

    Each step applies T plus a bounded normal-cone selection beta_n at
    x_n (zero at interior points, +/- ``magnitude`` on active bounds), so
    interior trajectories coincide with :func:`solve_zero` on T.  The
    trace records the box violation of each x_n; a point leaving the box
    beyond the selection tolerance raises
    :class:`~lpmono.operators.InfeasiblePointError`.
    """

    def op(x):
        beta = vi_normal_cone_selection(x, box, magnitude=magnitude)
        return (T(x).values + beta.values,)

    return _iterate(
        _lp_space(cfg.ctx), op, (x1,), cfg, callback,
        feasibility=lambda x: feasibility_violation(x, box),
    )


def solve_jfixed(
    T: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """Approximate a J-fixed point (Tx = Jx) of a map T : E -> E*.

    Runs x_{n+1} = J^{-1}((1 - alpha_n) J x_n + alpha_n T x_n
    - alpha_n theta_n J x_n), which rearranges to the zero-finding
    recursion for A = J - T; per-iterate agreement with
    solve_zero(J - T) is a test oracle, so the arithmetic here keeps the
    (1 - alpha) grouping instead of delegating.
    """
    return _iterate(
        _lp_space(cfg.ctx), lambda x: (T(x).values,), (x1,), cfg, callback, step=_jfixed_step
    )


def solve_hammerstein(
    pair: HammersteinPair,
    u1: GridFunction,
    v1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, GridFunction, IterationTrace]:
    """Approximate a solution of u + KFu = 0 via the coupled recursion.

    Runs the core recursion on the product space E = X x X* with
    A[u, v] = [Fu - v, Kv + u] and J = [J_p, J_q]: the primal sequence
    u_n is driven by Fu_n - v_n through the L_p duality map, the dual
    sequence v_n by Kv_n + u_n through the L_q map.  Stops when both
    ||u_n - u_{n-1}||_p and ||v_n - v_{n-1}||_q are below tol; the trace
    carries both residual columns, the product-space iterate norm, and,
    when a product-space target is declared, the product Lyapunov
    distance to it.  The callback is invoked as callback(n, u_n, v_n).
    """
    ctx = cfg.ctx

    def op(u, v):
        return pair.F(u).values - v.values, pair.K(v).values + u.values

    space = _Space((ctx.p, ctx.q), (ctx.q, ctx.p))
    return _iterate(space, op, (u1, v1), cfg, callback)


def regularization_path_residual(
    A: Callable[[GridFunction], GridFunction],
    y: GridFunction,
    theta: float,
    ctx: LpContext,
) -> float:
    """Residual ||theta * J(y) + A(y)||_q of the regularized equation.

    The equation theta J y + A y = 0 defines the path the iteration
    shadows as theta decreases; this diagnostic measures how nearly y
    sits on the path at the given theta.  No solve is performed.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    return lp_norm(theta * duality_map(y, ctx) + A(y), ctx.q)
