"""Plain-numpy reference recursions the benchmark checks lpmono against.

Nothing here imports lpmono: the trapezoid weights, the duality maps, the
default schedule and the starting functions are written out again from
their definitions, so a fault in lpmono's math cannot hide in the
reference.  Sums use ``np.sum`` (pairwise) where lpmono uses a BLAS dot, so
the two agree to rounding, not bit for bit; the checks compare residual
columns within ``RTOL`` and iteration counts exactly.
"""

from __future__ import annotations

import math

import numpy as np

# Largest relative difference allowed between a residual (or norm) column
# and the reference.  Example 1 at tol 1e-12 differs by about 1.4e-12; an
# altered recursion differs by orders of magnitude more.
RTOL = 1e-8

STARTS = {"inv-quad": lambda t: 1.0 / (1.0 + t * t)}


def grid(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes i/M and trapezoid weights (1/M)[1/2, 1, ..., 1, 1/2]."""
    t = np.arange(M + 1) / M
    w = np.full(M + 1, 1.0 / M)
    w[0] = w[-1] = 0.5 / M
    return t, w


def norm(w: np.ndarray, f: np.ndarray, r: float) -> float:
    return float(np.sum(w * np.abs(f) ** r) ** (1.0 / r))


def duality(w: np.ndarray, f: np.ndarray, r: float) -> np.ndarray:
    """Normalized duality map of the weighted l_r space.

    With r = p it is J; with r = q it is J^{-1} (and the dual-side map).
    """
    n = norm(w, f, r)
    if n == 0.0:
        return np.zeros_like(f)
    return n ** (2.0 - r) * np.abs(f) ** (r - 1.0) * np.sign(f)


def schedule(n: int) -> tuple[float, float]:
    """(alpha_n, theta_n) of the default schedule with gamma = 1, n0 = 16.

    theta = 1/ln(ln(n + n0)), alpha = min(1/(n+1), gamma theta).
    """
    theta = 1.0 / math.log(math.log(n + 16))
    return min(1.0 / (n + 1.0), theta), theta


def lp_zero(
    start: str,
    M: int,
    tol: float,
    p: float = 1.5,
    max_iter: int = 1_000_000,
) -> dict:
    """Zero of (Af)(t) = (1+t) f(t) on L_p by the core recursion (example 1).

    Returns the per-step columns ``residual`` and ``iterate_norm``.
    """
    q = p / (p - 1.0)
    t, w = grid(M)
    a_mult = 1.0 + t
    x = STARTS[start](t).astype(float)
    res, nrm = [], []
    for n in range(1, max_iter + 1):
        alpha, theta = schedule(n)
        jx = duality(w, x, p)
        x_next = duality(w, jx - alpha * (a_mult * x) - alpha * theta * jx, q)
        res.append(norm(w, x_next - x, p))
        nrm.append(norm(w, x_next, p))
        x = x_next
        if res[-1] < tol:
            break
    return {"residual": np.array(res), "iterate_norm": np.array(nrm)}


def hammerstein(
    kernel: np.ndarray,
    u_start: np.ndarray,
    v_start: np.ndarray,
    tol: float,
    p: float = 1.5,
    max_iter: int = 1_000_000,
) -> dict:
    """u + KFu = 0 with (Fu)(t) = (1+t) u(t), (Kv)(t) = int k(t, s) v(s) ds.

    The coupled recursion: u walks in L_q through J_p, v walks in L_p
    through J_q, stopping once both step sizes are below tol.  Returns the
    columns ``residual`` (primal), ``residual_dual`` and ``iterate_norm``
    (the product norm (||u||_p^2 + ||v||_q^2)^(1/2)).
    """
    M = kernel.shape[0] - 1
    q = p / (p - 1.0)
    t, w = grid(M)
    u, v = u_start.astype(float), v_start.astype(float)
    res, res_dual, nrm = [], [], []
    for n in range(1, max_iter + 1):
        alpha, theta = schedule(n)
        ju = duality(w, u, p)
        jv = duality(w, v, q)
        wu = ju - alpha * ((1.0 + t) * u - v) - alpha * theta * ju
        wv = jv - alpha * (kernel @ (w * v) + u) - alpha * theta * jv
        u_next, v_next = duality(w, wu, q), duality(w, wv, p)
        res.append(norm(w, u_next - u, p))
        res_dual.append(norm(w, v_next - v, q))
        nrm.append(math.hypot(norm(w, u_next, p), norm(w, v_next, q)))
        u, v = u_next, v_next
        if res[-1] < tol and res_dual[-1] < tol:
            break
    return {
        "residual": np.array(res),
        "residual_dual": np.array(res_dual),
        "iterate_norm": np.array(nrm),
    }
