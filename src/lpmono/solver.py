"""One-step iteration for zeros of bounded maximal monotone maps on L_p.

The core recursion walks in the dual space and pulls back through the
inverse duality map,

    x_{n+1} = J^{-1}( J x_n - alpha_n A x_n - alpha_n theta_n J x_n ),

with acceptably paired (alpha_n, theta_n): the alpha term is a dual-space
step along A, the theta term is a vanishing Tikhonov-style pull toward 0
that selects the zero of minimal norm.  The iteration stops when
||x_n - x_{n-1}|| drops below the configured tolerance.

One loop runs every solver.  It works on raw nodal arrays in one of two
spaces, read from the starting point's number of components: L_p, where
J and J^{-1} are the p- and q-maps (the identity at p = 2, the Hilbert
case), and the product space E = X x X*, where J = [J_p, J_q].  A step
carries the dual vector y_{n+1} it forms as J x_{n+1} (Alber's dual form;
J inverts J^{-1}), takes ||x_{n+1}|| = ||y_{n+1}|| from J^{-1}, and hands
the operator x_n read-only.  The Hammerstein system u + KFu = 0 is
the core recursion on E with A[u, v] = [Fu - v, Kv + u]; minimization
and variational inequalities take a subgradient selection, or T plus a
normal-cone selection, as A.  The J-fixed-point form keeps its own
(1 - alpha) grouping; its reduction to the core recursion is a test oracle.

All solvers are deterministic: identical inputs reproduce identical
iterate and residual sequences bit for bit (wall-clock columns aside).
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from operator import eq
from typing import Callable

import numpy as np

# duality_map_inverse, lyapunov_phi and product_duality are not called
# here; perfbench/tracer.py patches them by name on this module
from .duality import (
    ProductPoint,
    duality_map,
    duality_map_inverse,
    lyapunov_phi,
    product_duality,
    weighted_duality,
)
from .grid import (GridFunction, LpContext, NonFiniteValuesError, _check_grid, _number, _weigher,
                   lp_norm, weighted_norm, weighted_sum)
from .operators import HammersteinPair, MonotoneOp, _box_selection
from .schedule import ParamSchedule


def _finite_positive(name: str, value) -> float:
    """``value`` as a float, refused by name unless it is a finite number > 0."""
    value = _number(name, value, float)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


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
            object.__setattr__(self, name, _finite_positive(name, getattr(self, name)))
        object.__setattr__(self, "max_iter", _number("max_iter", self.max_iter, int))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class TraceRow:
    """One step of a trace, read from its columns; None where a column is undefined."""

    n: int
    residual: float
    iterate_norm: float
    residual_dual: float | None = None
    phi_to_target: float | None = None
    feasibility_violation: float | None = None
    elapsed: float = 0.0


class TraceRows(Sequence):
    """A read-only sequence of a trace's rows over its columns.

    A row is built when it is read, by index or by iteration, and is not
    kept, so walking the rows holds one at a time beside the columns.  A
    slice is a view with the same step numbers; ``==`` compares row by row
    with any sequence of rows.
    """

    _FIELDS = tuple(f.name for f in fields(TraceRow))[1:]

    def __init__(self, columns: dict[str, np.ndarray], n: range) -> None:
        self._cols, self._n = [columns.get(k) for k in self._FIELDS], n

    def __len__(self) -> int:
        return len(self._n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceRows({k: c[i] for k, c in zip(self._FIELDS, self._cols) if c is not None},
                             self._n[i])
        n = self._n[i]  # raises IndexError as a tuple would
        return TraceRow(n, *(None if c is None else float(c[i]) for c in self._cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


@dataclass
class IterationTrace:
    """Per-step history of a solve, one read-only float64 array per column.

    ``columns`` always holds ``residual``, ``iterate_norm`` and
    ``elapsed``; ``residual_dual``, ``phi_to_target`` and
    ``feasibility_violation`` only where the run defines them; the arrays
    passed in are made read-only.  Entry i is step n = i + 2.  ``nfe``
    counts operator applications (one per step).  ``converged`` is False
    when the run stopped on max_iter instead of the residual test.
    """

    columns: dict[str, np.ndarray] = field(
        default_factory=lambda: dict.fromkeys(("residual", "iterate_norm", "elapsed"), np.empty(0))
    )
    converged: bool = False
    tol: float = 0.0

    def __post_init__(self) -> None:
        for values in self.columns.values():
            values.flags.writeable = False

    @property
    def nfe(self) -> int:
        return len(self.columns["residual"])

    @property
    def rows(self) -> TraceRows:
        """The steps as :class:`TraceRow` objects, each built from the columns when read."""
        return TraceRows(self.columns, range(2, 2 + self.nfe))

    @property
    def final(self) -> TraceRow:
        if not self.nfe:
            raise ValueError("trace is empty")
        return self.rows[-1]

    def prefix(self, tol: float) -> "IterationTrace":
        """The trace of this solve stopped at a finite ``tol`` >= ``self.tol``, a prefix of this one."""
        tol = _finite_positive("tol", tol)
        if tol < self.tol:
            raise ValueError(f"a run to tol {self.tol:g} holds no run to tol {tol:g}")
        res = [self.columns[k] for k in ("residual", "residual_dual") if k in self.columns]
        stops = np.flatnonzero(np.maximum.reduce(res) < tol)  # as the engine stops
        end = stops[0] + 1 if stops.size else None
        return IterationTrace(
            {k: v[:end] for k, v in self.columns.items()}, converged=end is not None, tol=tol
        )


def _norm(ns: list[float]) -> float:
    """||x|| from the component norms; on X x X*, (||u||_p^2 + ||v||_q^2)^(1/2)."""
    return ns[0] if len(ns) == 1 else float(np.hypot(*ns))


# a step writes its dual-space vector but the Tikhonov term into ``out``, which may be ax
# (tx); ``s`` is scratch and ``a`` a 0-d array holding alpha_n, so 1.0 - a is 1 - alpha_n
def _core_step(jx, ax, a, out, s) -> None:
    np.subtract(jx, np.multiply(ax, a, out), out)


def _jfixed_step(jx, tx, a, out, s) -> None:
    np.add(np.multiply(jx, 1.0 - a, s), np.multiply(tx, a, out), out)


def _array_ops(M: int, *ops) -> list:
    """The operators as the engine calls them, on nodal arrays (see MonotoneOp); entry i
    makes operator i's first call, checks it, then gives its place to the operator."""

    def first(i: int, A: MonotoneOp) -> Callable:
        def call(v, out):  # v is a read-only view of x_n
            try:
                y = A(v, out)
            except ValueError as exc:  # such as a write into x_n
                exc.args = (f"operator {A.name!r} at step 1: {exc}",)
                raise
            got = getattr(y, "shape", type(y).__name__)
            if got != (M + 1,):
                raise TypeError(f"operator {A.name!r} returned {got} at step 1, not shape ({M + 1},)")
            calls[i] = A
            return y
        return call

    calls = [first(i, A if isinstance(A, MonotoneOp) else MonotoneOp(A)) for i, A in enumerate(ops)]
    return calls


def _own(M: int, *starts: GridFunction) -> list[np.ndarray]:
    """Copies of the start components' nodal values for the engine to own, each refused
    unless it lies on the M-subinterval grid.

    A solver passes its start arguments here and then deletes them, so that unless its caller
    keeps a start, the engine's copy is the only one the solve holds: from CPython 3.11 on, a
    call moves its arguments into the callee's frame and keeps no reference of its own.
    """
    for f in starts:
        _check_grid(M, f.values.size, "context", "initial point")
    return [f.values.copy() for f in starts]


def _underflow_remedy(x: np.ndarray, i: int, ctx: LpContext, weigh: Callable, n: int) -> str:
    """What can keep J^{-1} of a nonzero y_{n+1} from underflowing at step n, from component i
    of x_n, ``x`` (read, not written): a shorter step, which keeps y_{n+1} near J x_n, unless
    J^{-1}(J x_n) underflows as well, where no step is short enough.  Error path only."""
    jx, s = np.empty_like(x), np.empty_like(x)
    weighted_duality((ctx.p, ctx.q)[i], weigh)(x, jx, s)
    if weighted_duality((ctx.q, ctx.p)[i], weigh)(jx, s, np.empty_like(x)) > 0.0:
        return "a smaller gamma (--gamma) shortens the step"
    return (f"p is too close to 1 (q - 1 = {ctx.q - 1.0:g}): J^-1 of J x_{n} underflows as well, "
            "so no gamma helps")


@np.errstate(over="ignore", invalid="ignore")  # once per solve; the norm check reports overflow
def _iterate(
    op: Callable,
    x: list[np.ndarray],
    cfg: SolveConfig,
    callback: Callable | None,
    step: Callable = _core_step,
) -> tuple:
    """The per-step loop behind every solver: stepping, stopping, tracing, guards.

    ``x`` holds the starting point's components as arrays the loop owns (see :func:`_own`)
    and writes over: one in L_p, two on X x X*, where component i has norm exponent
    (p, q)[i] and J^{-1} maps it by the (q, p)[i]-duality map.  ``op(x, out)`` returns A x_n from
    read-only views ``x`` of the component arrays, one per component, into
    the buffers ``out`` or arrays of its own; ``step`` forms one dual-space
    component but its Tikhonov term alpha_n theta_n J x_n, which the loop
    subtracts.  The run stops once every component residual is below tol.
    Each step appends its trace values to one buffer per column, which
    becomes the trace's column at the end.  Returns the final component
    arrays, which callers freeze in place once the other buffers are gone, then the trace.
    J and J^{-1} are :func:`~lpmono.duality.weighted_duality` maps, the
    residual a :func:`~lpmono.grid.weighted_norm`.  J x_{n+1} is the dual
    vector y_{n+1} itself and ||x_{n+1}|| is J^{-1}'s ||y_{n+1}||, both
    exact in exact arithmetic, so J is evaluated once per solve.
    """
    ctx = cfg.ctx
    exps = (ctx.p, ctx.q)[: len(x)]
    target = cfg.target
    if target is not None:
        t = (target.u, target.v) if isinstance(target, ProductPoint) else (target,)
        if len(t) != len(x):
            raise TypeError(f"a {len(x)}-component solve received a {len(t)}-component target")
        for f in t:
            _check_grid(ctx.M, f.values.size, "context", "target")
        # a zero component pairs to exactly +/-0 and adds norm 0.0 to hypot: skip it
        t = [(i, f, r) for i, (f, r) in enumerate(zip(t, exps)) if f.values.any()]
        nt = _norm([lp_norm(f, r) for _, f, r in t] or [0.0])
    weigh = _weigher(ctx.M)  # no weight array at large M
    # four arrays per component: x_n (the start's buffer) and x_{n+1}, swapped, with read-only
    # views; J x_n; A x_n.  The step writes y_{n+1} over A x_n with scratch x_{n-1}, J^{-1} maps
    # it into that buffer as x_{n+1}, and y_{n+1} is J x_{n+1}: the J x and A x buffers swap, and
    # the spent J x_n is scratch for J^{-1} and the residual until the next operator writes over
    # it; the residual's powers go into x_n, spent once x_{n+1} - x_n is formed
    xn, jx, ax = ([np.empty_like(v) for v in x] for _ in range(3))
    xv, xnv = ([np.lib.stride_tricks.as_strided(v, writeable=False) for v in b] for b in (x, xn))
    ns = [0.0] * len(x)
    names = ("residual", "residual_dual")[: len(x)] + ("iterate_norm",)
    names += ("phi_to_target",) * (target is not None) + ("elapsed",)
    cols = {k: array("d") for k in names}  # one buffer per trace column
    for v, r, jv, s in zip(x, exps, jx, ax):
        if weighted_duality(r, weigh)(v, jv, s) == 0.0 and v.any():  # J x_1 would read 0
            raise FloatingPointError(f"J of the nonzero initial point underflowed to 0 (p = "
                                     f"{ctx.p!r}): its weighted |x_1|^{r!r} is 0 at every node")
    # per component: index, residual column, the residual's norm and J^{-1}
    comps = [(i, cols[k].append, weighted_norm(r, weigh), weighted_duality(rd, weigh))
             for i, r, rd, k in zip(range(len(x)), exps, (ctx.q, ctx.p), names)]
    push_norm, push_time = cols["iterate_norm"].append, cols["elapsed"].append
    # the step's scalars, written per step into 0-d arrays made once: numpy takes a 0-d array
    # in about half the time it takes to convert a float
    alpha, alpha_theta = np.empty(()), np.empty(())
    tol, guard, clock, t0 = cfg.tol, cfg.divergence_guard, time.perf_counter, time.perf_counter()
    # below p = 1.2 the default gamma overshoots (README): a failure names p and gamma
    hint = (f" (p = {ctx.p!r}, gamma = {cfg.schedule.gamma:g}); a smaller gamma (--gamma) "
            "shortens the step") if ctx.p < 1.2 else ""
    for n, a, th in cfg.schedule.steps(cfg.max_iter):
        alpha[()], alpha_theta[()] = a, a * th
        try:
            y = op(xv, ax)
        except NonFiniteValuesError as exc:
            raise NonFiniteIterateError(f"iterate became non-finite at step {n}{hint}") from exc
        top = 0.0
        for i, push, norm_r, jinv in comps:
            xni, yi, jxi = xn[i], ax[i], jx[i]
            step(jxi, y[i], alpha, yi, xni)
            np.subtract(yi, np.multiply(jxi, alpha_theta, xni), yi)  # - alpha_n theta_n J x_n
            nd = jinv(yi, xni, jxi)
            if nd == 0.0 and yi.any():  # |y|^(r-1) underflowed at every node: x_{n+1} is not 0
                raise FloatingPointError(
                    f"J^-1 of a nonzero y_{n + 1} underflowed to 0 at step {n} (p = {ctx.p!r}); "
                    + _underflow_remedy(x[i], i, ctx, weigh, n)
                )
            jx[i], ax[i] = yi, jxi
            res = norm_r(np.abs(np.subtract(xni, x[i], jxi), jxi), x[i])
            push(res)
            ns[i], top = nd, max(top, res)
        norm = _norm(ns)
        # a NaN or inf node of y_{n+1} makes J^{-1}'s norm non-finite
        if not norm <= guard:
            if not all(np.isfinite(v).all() for v in xn):
                raise NonFiniteIterateError(f"iterate became non-finite at step {n}{hint}")
            raise DivergenceError(
                f"||x_{n + 1}|| = {norm:.3e} exceeded the guard {guard:.1e} "
                f"at step {n}; check the schedule/operator pairing{hint}"
            )
        x, xn, xv, xnv = xn, x, xnv, xv
        push_norm(norm)
        if target is not None:
            tj = sum(weighted_sum(np.multiply(f.values, jx[i], ax[i]), weigh, ax[i])
                     for i, f, _ in t) if t else 0.0
            cols["phi_to_target"].append(nt * nt - 2.0 * tj + norm * norm)
        push_time(clock() - t0)
        if callback is not None:
            callback(n + 1, *(GridFunction(v) for v in x))
        if top < tol:
            break
    # each column copies its buffer, freed as it is popped (the bound appends would hold it):
    # the trace peaks at one buffer above its retained size, not twice it
    del comps, push, push_norm, push_time
    columns = {k: np.array(cols.pop(k)) for k in names}
    return (*x, IterationTrace(columns, top < tol, cfg.tol))


def solve_zero(
    A: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """Approximate a zero of a bounded maximal monotone map A : E -> E*.

    Runs x_{n+1} = J^{-1}(J x_n - alpha_n A x_n - alpha_n theta_n J x_n)
    from x1 until ||x_{n+1} - x_n||_p < cfg.tol or max_iter steps.  A
    subgradient selection of a convex functional f as A (say
    :func:`~lpmono.operators.norm_subgradient_op`) approximates a
    minimizer of f: the paper's convex-minimization application.

    Parameters
    ----------
    A : callable
        The operator; one application per step (this is the NFE count).
    x1 : GridFunction
        Starting point on cfg's grid; the solve copies it and keeps no
        reference to it.
    cfg : SolveConfig
    callback : callable, optional
        Invoked as callback(n, x_n) after each new iterate.

    Returns
    -------
    (GridFunction, IterationTrace)
        Final iterate and the full per-step trace.
    """
    A, x = _array_ops(cfg.ctx.M, A), _own(cfg.ctx.M, x1)
    del x1
    x, trace = _iterate(lambda x, out: (A[0](x[0], out[0]),), x, cfg, callback)
    return GridFunction._frozen(x), trace


def solve_zero_hilbert(
    A: Callable[[GridFunction], GridFunction],
    x1: GridFunction,
    cfg: SolveConfig,
    callback: Callable | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """The J-free form x_{n+1} = x_n - alpha_n A x_n - alpha_n theta_n x_n.

    Valid only at p = 2, where the duality map is the identity, so this
    is the core recursion at p = 2 and runs :func:`solve_zero`.
    """
    if cfg.ctx.p != 2.0:
        raise ValueError(f"the Hilbert recursion requires p = 2, got p = {cfg.ctx.p}")
    return solve_zero(A, x1, cfg, callback)


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
    trace's ``feasibility_violation`` column holds the box violation of
    each x_n; a point leaving the box beyond the selection tolerance
    raises :class:`~lpmono.operators.InfeasiblePointError`.
    """

    T = _array_ops(cfg.ctx.M, T)
    select = _box_selection(box, magnitude)
    beta = np.empty(cfg.ctx.M + 1)
    feas = array("d")

    def op(x, out):  # the selection first: it rejects an infeasible x_n before T runs
        feas.append(select(x[0], beta))
        return (np.add(T[0](x[0], out[0]), beta, out[0]),)

    x = _own(cfg.ctx.M, x1)
    del x1
    x, trace = _iterate(op, x, cfg, callback)
    columns = {**trace.columns, "feasibility_violation": np.array(feas)}
    return GridFunction._frozen(x), replace(trace, columns=columns)


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
    T, x = _array_ops(cfg.ctx.M, T), _own(cfg.ctx.M, x1)
    del x1
    x, trace = _iterate(lambda x, out: (T[0](x[0], out[0]),), x, cfg, callback, step=_jfixed_step)
    return GridFunction._frozen(x), trace


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
    FK = _array_ops(cfg.ctx.M, pair.F, pair.K)

    def op(x, out):
        u, v = x
        return np.subtract(FK[0](u, out[0]), v, out[0]), np.add(FK[1](v, out[1]), u, out[1])

    x = _own(cfg.ctx.M, u1, v1)
    del u1, v1
    u, v, trace = _iterate(op, x, cfg, callback)
    return GridFunction._frozen(u), GridFunction._frozen(v), trace


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
    theta = _finite_positive("theta", theta)
    return lp_norm(theta * duality_map(y, ctx) + A(y), ctx.q)
