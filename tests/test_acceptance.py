"""Acceptance gate: the nine binding criteria, one test per criterion.

Each test prints one `ACCEPTANCE <k>: ...` line with its wall time (run
`pytest tests/test_acceptance.py -v -s` to see the lines live).  The
1e-12 / 1e-15 tolerance rungs of criterion 5 are optional long tests,
marked `slow` and deselected by default.

Criterion 2's domination clause is the 2-uniform-convexity bound of L_p,
phi(x, y) >= (p - 1) ||x - y||^2 for 1 < p <= 2 (an equality at p = 2).
Since phi(x, y) + phi(y, x) = 2 <x - y, Jx - Jy>, it implies the
strong-monotonicity clause asserted next to it with the same constant.
The reversed bound ||x - y||^2 >= phi(x, y) is false for p < 2; see
tests/test_duality.py::TestGeometryInequalities for a three-node
counterexample checkable by hand.
"""

import time

import numpy as np
import pytest

from lpmono import (
    GridFunction,
    LpContext,
    ProductPoint,
    SolveConfig,
    default_schedule,
    duality_map,
    hammerstein_example,
    j_pseudo_from_monotone,
    lp_norm,
    mult_op,
    norm_subgradient_op,
    pairing,
    product_duality,
    solve_hammerstein,
    solve_jfixed,
    solve_zero,
)
from lpmono.cli import example_config, execute
from lpmono.duality import duality_map_inverse, lyapunov_phi, product_duality_inverse, v_functional
from lpmono.grid import random_smooth
from lpmono.operators import product_op
from lpmono.schedule import ParamSchedule, check_acceptably_paired
from lpmono.solver import solve_zero_hilbert

SEED = 20260810

INV_QUAD = lambda t: 1.0 / (1.0 + t * t)
INV_TSIN = lambda t: 1.0 / (1.0 + t * np.sin(t))


def report(k, status, elapsed, detail):
    print(f"ACCEPTANCE {k}: {status} ({elapsed:.3f}s) {detail}")


def test_criterion_1_duality_identities(ctx):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_pairing = worst_norm = worst_roundtrip = 0.0
    for _ in range(100):
        f = random_smooth(rng, ctx.M, scale=5.0)
        jf = duality_map(f, ctx)
        n = lp_norm(f, ctx.p)
        worst_pairing = max(worst_pairing, abs(pairing(f, jf) - n * n) / (n * n))
        worst_norm = max(worst_norm, abs(lp_norm(jf, ctx.q) - n) / n)
        worst_roundtrip = max(worst_roundtrip, lp_norm(duality_map_inverse(jf, ctx) - f, ctx.p))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "PASS",
        elapsed,
        f"pairing rel {worst_pairing:.2e}, norm rel {worst_norm:.2e}, "
        f"round-trip {worst_roundtrip:.2e} over 100 random functions",
    )
    assert worst_pairing <= 1e-10
    assert worst_norm <= 1e-10
    assert worst_roundtrip <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_geometry_inequalities(ctx):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    sandwich = strong_mono = lipschitz = alber = domination = np.inf
    for _ in range(100):
        x = random_smooth(rng, ctx.M, scale=5.0)
        y = random_smooth(rng, ctx.M, scale=5.0)
        zs = random_smooth(rng, ctx.M, scale=5.0)
        phi = lyapunov_phi(x, y, ctx)
        nx, ny = lp_norm(x, ctx.p), lp_norm(y, ctx.p)
        sandwich = min(sandwich, phi - (nx - ny) ** 2, (nx + ny) ** 2 - phi)
        jx, jy = duality_map(x, ctx), duality_map(y, ctx)
        strong_mono = min(
            strong_mono,
            pairing(x - y, jx - jy) - (ctx.p - 1.0) * lp_norm(x - y, ctx.p) ** 2,
        )
        lipschitz = min(
            lipschitz,
            ctx.lipschitz_L * lp_norm(jx - jy, ctx.q)
            - lp_norm(duality_map_inverse(jx, ctx) - duality_map_inverse(jy, ctx), ctx.p),
        )
        alber = min(
            alber,
            v_functional(x, jy + zs, ctx)
            - v_functional(x, jy, ctx)
            - 2.0 * pairing(duality_map_inverse(jy, ctx) - x, zs),
        )
        domination = min(domination, phi - (ctx.p - 1.0) * lp_norm(x - y, ctx.p) ** 2)
    elapsed = time.perf_counter() - t0
    ok = min(sandwich, strong_mono, lipschitz, alber, domination) >= -1e-10
    report(
        2,
        "PASS" if ok else "FAIL",
        elapsed,
        f"worst slacks: sandwich {sandwich:.2e}, strong-monotonicity {strong_mono:.2e}, "
        f"inverse-Lipschitz {lipschitz:.2e}, perturbation {alber:.2e}, "
        f"domination phi >= (p-1)||x-y||^2 {domination:.2e}",
    )
    assert elapsed < 1.0
    assert sandwich >= -1e-10
    assert strong_mono >= -1e-10
    assert lipschitz >= -1e-10
    assert alber >= -1e-10
    assert domination >= -1e-10, (
        "domination clause: phi(x,y) >= (p-1)||x-y||^2 fails, so phi no longer "
        "controls the norm distance in L_p"
    )


def test_criterion_3_hilbert_oracle_equivalence():
    t0 = time.perf_counter()
    ctx2 = LpContext(p=2.0, M=100)
    sched = default_schedule(1.0)
    cfg = SolveConfig(ctx=ctx2, schedule=sched, tol=1e-30, max_iter=50)
    x1 = GridFunction.from_callable(INV_QUAD, 100)
    A = mult_op()
    general, hilbert = [], []
    solve_zero(A, x1, cfg, callback=lambda n, x: general.append(x.values))
    solve_zero_hilbert(A, x1, cfg, callback=lambda n, x: hilbert.append(x.values))
    t = x1.nodes
    vals = x1.values.copy()
    worst = 0.0
    for n in range(1, 51):
        al, th = float(sched.alpha(n)), float(sched.theta(n))
        vals = vals * (1.0 - al * (1.0 + t + th))
        worst = max(
            worst,
            float(np.max(np.abs(general[n - 1] - vals))),
            float(np.max(np.abs(hilbert[n - 1] - vals))),
            float(np.max(np.abs(general[n - 1] - hilbert[n - 1]))),
        )
    elapsed = time.perf_counter() - t0
    report(3, "PASS", elapsed, f"three-way max nodewise gap {worst:.2e} over 50 steps at p = 2")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_4_recursion_equivalences(ctx):
    t0 = time.perf_counter()
    sched = default_schedule(1.0)
    cfg = SolveConfig(ctx=ctx, schedule=sched, tol=1e-30, max_iter=20)
    x1 = GridFunction.from_callable(INV_QUAD, ctx.M)

    A = mult_op()
    zero_path, jfixed_path = [], []
    solve_zero(A, x1, cfg, callback=lambda n, x: zero_path.append(x.values))
    solve_jfixed(
        j_pseudo_from_monotone(A, ctx), x1, cfg, callback=lambda n, x: jfixed_path.append(x.values)
    )
    gap_jfixed = max(
        float(np.max(np.abs(a - b))) for a, b in zip(zero_path, jfixed_path)
    )

    pair = hammerstein_example()
    v1 = GridFunction.from_callable(INV_TSIN, ctx.M)
    coupled = []
    solve_hammerstein(pair, x1, v1, cfg, callback=lambda n, u, v: coupled.append((u, v)))
    A_E = product_op(pair)
    w = ProductPoint(x1, v1)
    gap_ham = 0.0
    for n in range(1, 21):
        al, th = float(sched.alpha(n)), float(sched.theta(n))
        jw = product_duality(w, ctx)
        aw = A_E(w)
        wd = ProductPoint(
            jw.u - al * aw.u - (al * th) * jw.u,
            jw.v - al * aw.v - (al * th) * jw.v,
        )
        w = product_duality_inverse(wd, ctx)
        un, vn = coupled[n - 1]
        gap_ham = max(
            gap_ham,
            float(np.max(np.abs(w.u.values - un.values))),
            float(np.max(np.abs(w.v.values - vn.values))),
        )
    elapsed = time.perf_counter() - t0
    report(
        4,
        "PASS",
        elapsed,
        f"J-fixed vs zero gap {gap_jfixed:.2e}; coupled vs product-space gap "
        f"{gap_ham:.2e} over 20 steps",
    )
    assert gap_jfixed <= 1e-10
    assert gap_ham <= 1e-10
    assert elapsed < 1.0


def test_criterion_5_example_one_reproduction():
    t0 = time.perf_counter()
    rung_nfe = {}
    rung_elapsed = {}
    for tol in (1e-3, 1e-6, 1e-9):
        t1 = time.perf_counter()
        rec = execute(example_config(1, tol=tol))
        rung_elapsed[tol] = time.perf_counter() - t1
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < tol
        rung_nfe[tol] = rec.summary["nfe"]
        assert rung_elapsed[tol] < 10.0
    rec6 = execute(example_config(1, tol=1e-6))
    elapsed = time.perf_counter() - t0
    nfes = [rung_nfe[t] for t in (1e-3, 1e-6, 1e-9)]
    report(
        5,
        "PASS",
        elapsed,
        f"NFE ladder e-3/e-6/e-9 = {nfes} (reference 15/112/1114), final norm "
        f"{rec6.summary['final_iterate_norm']:.2e}",
    )
    # factor-10 band around the reference count 112 at tol 1e-6
    assert 12 <= rung_nfe[1e-6] <= 1120
    assert rec6.summary["final_iterate_norm"] <= 0.05
    assert nfes == sorted(nfes)


@pytest.mark.slow
def test_criterion_5_long_rungs():
    t0 = time.perf_counter()
    nfes = []
    for tol in (1e-9, 1e-12, 1e-15):
        rec = execute(example_config(1, tol=tol, max_iter=5_000_000))
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < tol
        nfes.append(rec.summary["nfe"])
    elapsed = time.perf_counter() - t0
    report(
        "5-long",
        "PASS",
        elapsed,
        f"NFE e-9/e-12/e-15 = {nfes} (reference 1114/12266/142097), monotone",
    )
    assert nfes == sorted(nfes)


def test_criterion_6_example_two_reproduction():
    t0 = time.perf_counter()
    results = {}
    for init in ("exp", "quad", "cos-exp", "inv-tsin"):
        rec = execute(example_config(2, tol=1e-2, init=init))
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < 1e-2
        first_norm = rec.trace.rows[0].iterate_norm
        final_norm = rec.summary["final_iterate_norm"]
        assert final_norm < first_norm
        assert final_norm < 0.05
        # factor-10 band around the reference 465..586 counts
        assert 47 <= rec.summary["nfe"] <= 5860
        results[init] = rec.summary["nfe"]
    elapsed = time.perf_counter() - t0
    report(6, "PASS", elapsed, f"NFE per start {results} (reference band 465-586)")
    assert elapsed < 10.0


def test_criterion_7_example_three_reproduction(ctx):
    t0 = time.perf_counter()
    pair = hammerstein_example()
    u1 = GridFunction.from_callable(INV_QUAD, ctx.M)
    v1 = GridFunction.from_callable(INV_TSIN, ctx.M)
    zero = GridFunction.zeros(ctx.M)
    cfg = SolveConfig(
        ctx=ctx,
        schedule=default_schedule(1.0),
        tol=1e-6,
        target=ProductPoint(zero, zero),
    )
    u, v, trace = solve_hammerstein(pair, u1, v1, cfg)
    elapsed = time.perf_counter() - t0
    norm_u, norm_v = lp_norm(u, ctx.p), lp_norm(v, ctx.q)
    report(
        7,
        "PASS",
        elapsed,
        f"NFE {trace.nfe} (reference 247), residuals "
        f"{trace.final.residual:.2e}/{trace.final.residual_dual:.2e}, norms "
        f"{norm_u:.2e}/{norm_v:.2e}",
    )
    assert trace.converged
    assert trace.final.residual < 1e-6
    assert trace.final.residual_dual < 1e-6
    assert norm_u <= 0.05 and norm_v <= 0.05
    assert 25 <= trace.nfe <= 2470  # factor-10 band around 247
    assert elapsed < 10.0


def test_criterion_8_schedule_validation():
    t0 = time.perf_counter()
    default_report = check_acceptably_paired(default_schedule(1.0), 6)

    def inv_n(n):
        v = 1.0 / np.asarray(n, dtype=float)
        return float(v) if v.ndim == 0 else v

    degenerate = ParamSchedule(alpha=inv_n, theta=inv_n, gamma=1.0)
    degenerate_report = check_acceptably_paired(degenerate, 6)
    elapsed = time.perf_counter() - t0
    report(
        8,
        "PASS",
        elapsed,
        f"default S1 {tuple(round(v, 4) for v in default_report.s1)} strictly "
        f"decreasing, min S2 {min(default_report.s2):.3f} >= 0.1, S3 decreasing "
        f"to {default_report.s3[-1]:.3f}; degenerate 1/n pair flagged on the "
        f"bounded-away condition (min S2 {min(degenerate_report.s2):.1e})",
    )
    assert all(a > b for a, b in zip(default_report.s1, default_report.s1[1:]))
    assert min(default_report.s2) >= 0.1
    assert default_report.s3_decreasing_to_zero
    assert default_report.s3[-1] < default_report.s3[0]
    assert not degenerate_report.s2_bounded_away
    assert elapsed < 5.0


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    first = execute(example_config(1))
    rerun = execute(dict(first.config))
    elapsed = time.perf_counter() - t0
    report(
        9,
        "PASS",
        elapsed,
        f"rerun reproduced NFE {rerun.summary['nfe']} and final residual "
        f"{rerun.summary['final_residual']:.17g} bit-identically",
    )
    assert rerun.summary["nfe"] == first.summary["nfe"]
    assert rerun.summary["final_residual"] == first.summary["final_residual"]
    assert [r.residual for r in rerun.trace.rows] == [r.residual for r in first.trace.rows]
