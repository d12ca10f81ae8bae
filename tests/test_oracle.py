"""The engine's trace columns against the recursion replayed in exact arithmetic.

Each run is replayed in ``mpmath`` at 40 significant digits from the
library's own float64 data: the start, the grid nodes and weights, and the
schedule's alpha_n and theta_n, each lifted exactly.  The replay writes the
recursion as the paper does, x_{n+1} = J^{-1}(J x_n - alpha_n A x_n -
alpha_n theta_n J x_n), with J x_{n+1} and ||x_{n+1}|| evaluated from
x_{n+1}; the engine carries the dual vector as J x_{n+1} and takes the norm
from J^{-1}, which is the same in exact arithmetic.  The exact run stops on
the engine's step, and every column is compared step by step as the
relative deviation |engine - exact| / |exact|, whose maximum and median
over the run are bounded.

Each bound is ``MARGIN`` times the larger deviation measured on numpy's two
float64 power loops (conftest.power_loop).  The engine that recomputed
J x_{n+1} and ||x_{n+1}|| from x_{n+1} was further from exact on every
column of all three runs (its figures are in the comments), and it fails
these bounds on every run.  A change that must alter the engine's bits
shows here that its columns are no further from exact.

Example 2's 1e-3 rung is checked another way: its NFE is set by rounding.
The engine follows the exact run closely until the exact residual itself
jumps, a few steps before the exact run stops, and then parts from it on
either power loop; the case pins the exact NFE and the agreement before the
jump.
"""

import numpy as np
import pytest

from lpmono import GridFunction, LpContext, SolveConfig, default_schedule, solve_zero
from lpmono.cli import example_config, execute
from lpmono.grid import nodes, trapezoid_weights
from lpmono.operators import mult_op

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

pytestmark = pytest.mark.slow


def _lp(v, w, r):
    return sum(wk * abs(x) ** r for wk, x in zip(w, v)) ** (1 / r)


def _dual(v, w, r):
    """The normalized r-duality map of the nodal values v, and ||v||_r."""
    n = _lp(v, w, r)
    if n == 0:
        return [mpf(0)] * len(v), n
    c = n ** (2 - r)
    return [c * abs(x) ** (r - 1) * mpmath.sign(x) for x in v], n


def mult(x, t1, w, p):
    """A x = (1 + t) x on L_p."""
    return [[ti * u for ti, u in zip(t1, x[0])]]


def hammerstein(x, t1, w, p):
    """The bundled Hammerstein operator on X x X*: A[u, v] = [(1 + t) u - v, v + u]."""
    (fu,), (u, v) = mult(x, t1, w, p), x
    return [[f - b for f, b in zip(fu, v)], [b + a for b, a in zip(v, u)]]


def norm_subgrad(x, t1, w, p):
    """Example 2's ``literal`` subgradient of ||x||_p: x / ||x||_p, and 0 at x = 0."""
    n = _lp(x[0], w, p)
    return [[u / n if n else mpf(0) for u in x[0]]]


@mpmath.workdps(40)
def replay(x1, p, M, schedule, steps, op):
    """The exact trace of ``steps`` steps of ``op`` from the start components ``x1``.

    One component is L_p, two are X x X*; ``op(x, 1 + t, w, p)`` returns
    A x from the components, the nodes and the weights.  Returns the columns
    the engine writes, with a zero target.
    """
    p = mpf(p)
    q = p / (p - 1)
    exps = (p, q)[: len(x1)]
    t1 = [1 + mpf(t) for t in nodes(M).tolist()]
    w = [mpf(v) for v in trapezoid_weights(M).tolist()]
    x = [[mpf(v) for v in c.tolist()] for c in x1]
    jx = [_dual(v, w, r)[0] for v, r in zip(x, exps)]
    cols = {"residual": [], "residual_dual": [], "iterate_norm": [], "phi_to_target": []}
    for n, a, th in schedule.steps(steps):
        a, ath = mpf(a), mpf(a) * mpf(th)
        ax = op(x, t1, w, p)
        xn = []
        for j, ai, rd in zip(jx, ax, (q, p)):
            xn.append(_dual([jk - a * ak - ath * jk for jk, ak in zip(j, ai)], w, rd)[0])
        res = [_lp([u - v for u, v in zip(un, uo)], w, r) for un, uo, r in zip(xn, x, exps)]
        jx, ns = zip(*(_dual(v, w, r) for v, r in zip(xn, exps)))
        norm = mpmath.sqrt(sum(c * c for c in ns))
        for k, value in zip(("residual", "residual_dual"), res):
            cols[k].append(value)
        cols["iterate_norm"].append(norm)
        cols["phi_to_target"].append(norm * norm)
        x = xn
    return {k: v for k, v in cols.items() if v}


def deviations(trace, exact):
    """Per column: the max and median relative deviation from the exact replay."""
    out = {}
    for k, ref in exact.items():
        got = trace.columns[k].tolist()
        assert len(got) == len(ref)
        dev = np.array([float(abs(mpf(g) - e) / abs(e)) for g, e in zip(got, ref)])
        out[k] = (dev.max(), float(np.median(dev)))
    return out


MARGIN = 1.25

# (max, median) relative deviation per column, the larger of the two power loops
MEASURED = {
    # the recomputing engine read 1.36e-13 / 2.95e-14, 1.86e-13 / 8.52e-14, 3.72e-13 / 1.70e-13
    "example-1": {
        "residual": (7.23e-14, 8.57e-15),
        "iterate_norm": (6.21e-15, 4.87e-15),
        "phi_to_target": (1.24e-14, 9.76e-15),
    },
    # the recomputing engine read 4.84e-14 / 5.55e-15, 3.74e-13 / 5.79e-15, 3.26e-14 / 1.34e-14,
    # 6.52e-14 / 2.68e-14
    "example-3": {
        "residual": (2.93e-14, 3.92e-15),
        "residual_dual": (9.64e-14, 2.51e-15),
        "iterate_norm": (1.08e-15, 5.99e-16),
        "phi_to_target": (2.15e-15, 1.21e-15),
    },
    # the recomputing engine read 8.78e-13 / 3.35e-13, 1.86e-12 / 8.37e-13
    "mult-p1.2": {
        "residual": (2.06e-13, 2.72e-14),
        "iterate_norm": (2.06e-14, 3.53e-15),
    },
}


def check(trace, exact, run):
    res = [max(r) for r in zip(*(exact[k] for k in ("residual", "residual_dual") if k in exact))]
    assert [r < trace.tol for r in res] == [False] * (trace.nfe - 1) + [True]
    dev = deviations(trace, exact)
    assert set(dev) == set(MEASURED[run])
    for k, (hi, mid) in dev.items():
        print(f"{run} {k}: max {hi:.3g}, median {mid:.3g}")
        bound_hi, bound_mid = (MARGIN * v for v in MEASURED[run][k])
        assert hi <= bound_hi and mid <= bound_mid, k


def test_example_1():
    # 509 steps to 1e-9
    rec = execute(example_config(1, tol=1e-9))
    ctx = LpContext(1.5, 100)
    x1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M).values
    exact = replay([x1], ctx.p, ctx.M, default_schedule(), rec.trace.nfe, mult)
    check(rec.trace, exact, "example-1")


def test_example_3():
    # X x X*, 157 steps to 1e-6
    rec = execute(example_config(3, tol=1e-6))
    ctx = LpContext(1.5, 100)
    u1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M).values
    v1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * np.sin(t)), ctx.M).values
    exact = replay([u1, v1], ctx.p, ctx.M, default_schedule(), rec.trace.nfe, hammerstein)
    check(rec.trace, exact, "example-3")


def test_mult_at_p_1_2():
    # an exponent far from 3/2: p = 1.2, q = 6, 461 steps to 1e-9
    ctx = LpContext(1.2, 100)
    x1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
    cfg = SolveConfig(ctx=ctx, schedule=default_schedule(), tol=1e-9)
    _, trace = solve_zero(mult_op(), x1, cfg)
    assert trace.converged and trace.nfe == 461
    exact = replay([x1.values], ctx.p, ctx.M, cfg.schedule, trace.nfe, mult)
    del exact["phi_to_target"]  # no target
    check(trace, exact, "mult-p1.2")


def test_example_2_rung_1e_3():
    # the x / ||x||_p subgradient from 1/(1+t^2): the exact run stops at NFE 2876 (60 digits
    # give the same), the engine at 2882 on both power loops (tests/test_cli.py).  The engine
    # matches the exact residual to 1e-12 up to entry 2868 and is more than 1e-2 off at entry
    # 2873, where the exact residual jumps from 2.035e-3 to 1.614e-3 and, two entries on, to
    # 3.49e-4: rounding decides where the engine stops
    rec = execute(example_config(2, tol=1e-3))
    ctx = LpContext(1.5, 100)
    x1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M).values
    exact = replay([x1], ctx.p, ctx.M, default_schedule(), 2876, norm_subgrad)["residual"]
    assert [r < 1e-3 for r in exact] == [False] * 2875 + [True]
    got = rec.trace.columns["residual"].tolist()
    dev = [float(abs(mpf(g) - e) / abs(e)) for g, e in zip(got, exact)]
    print(f"example-2 residual: max {max(dev[:2869]):.3g} over entries 0..2868, "
          f"then {', '.join(f'{d:.3g}' for d in dev[2869:])}")
    assert max(dev[:2869]) <= 1e-12
