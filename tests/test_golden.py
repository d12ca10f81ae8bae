"""Golden traces: the NFE and a sha256 fingerprint of every trace column.

Each run pins the little-endian float64 bytes of ``residual``,
``iterate_norm`` and, where the run defines them, ``residual_dual`` and
``phi_to_target``.  A change that alters any iterate by one bit fails
here; a change that is meant to alter the arithmetic updates these values
and says why.  All runs use M = 100 but one, example 1 at M = 10^5.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpmono
from lpmono import (
    GridFunction,
    LpContext,
    ProductPoint,
    SolveConfig,
    default_schedule,
    hammerstein_example,
    mult_op,
    solve_hammerstein,
    solve_zero,
)
from lpmono.cli import example_config, execute, make_config

COLUMNS = ("residual", "iterate_norm", "residual_dual", "phi_to_target")

GOLDEN = {
    "example-1": (509, {
        "residual": "4a30a20964bec7c5ae449c9bd2e284e01fc17a8a7b4c2d2237700c9988802a70",
        "iterate_norm": "9790b530e9cf24718927e95dc25472f996aba02fa919d8ae7f1216bc01cd6efc",
        "phi_to_target": "02fca96a2aa0ad65703a3a01147b051e5807ab44741ad784ee3ac13631a29301",
    }),
    # longer than one 4096-step schedule chunk
    "example-1-1e-12": (5482, {
        "residual": "61d0fecaa4cc1eb48ade3ae17d655492957cf001bd45bdb673e9f030318ca138",
        "iterate_norm": "a85c0fc35edcbca1feeea3ec6de6bca811a506c075e830b925ff9a8e37b6a4f8",
        "phi_to_target": "9b29d98423c1d3652e6fb10316859f5d68833cd45abad892556c40d8e6cec11b",
    }),
    # a fine grid, where every nodal pass dominates the step
    "example-1-M1e5": (53, {
        "residual": "19b897d1ba55e764db350c1cd30aa5e389cf92126c39b09c1fb2bb2c9f3ba4d2",
        "iterate_norm": "651ce70ecfc393e4fc52c369de70f1c610783cb39ef67f38014301e9bdd28694",
        "phi_to_target": "4b0d8387a8c040b372dcd3f0283657dd2f2e850f88ee1be92c1c12a519fc0ac5",
    }),
    "example-2": (584, {
        "residual": "8e6fd2773195d7758ccbb2b0c1491719e84637946846491a34d08e44f6e7ef8a",
        "iterate_norm": "3761fa0d3da2325c0aace5059f89fcdff1b91ef4b669ed8ba4570ce76a6c78e4",
        "phi_to_target": "177af0a385334b2586cfbdf81b51d4c17e22733c7ea16873c3b1b524866b4b52",
    }),
    "example-3": (2040, {
        "residual": "e4df5ffcfce8425bb20d0d0a04abfdb6f89e432f483d879cb3c4e5b0764df963",
        "iterate_norm": "cd2e4fd5e33f062bc8198bae512c62707e204f7417af2a0fabfeb4e0b907fe2e",
        "residual_dual": "1a277bdd5457aea032e1724dc78aa94dcc5e56ba150c5e977fbd053b827d4198",
        "phi_to_target": "b5d0de98bd150c73976c5eeffb6a36368e31050f0c63811ac5fb71365cc011c0",
    }),
    "hilbert": (546, {
        "residual": "b410a8bd0cc686560e4f7ddfae6eb96397cd7f05c3eebf3e50b340c104b24884",
        "iterate_norm": "c107190afebaa5f51a40aa9941f886b1544b8a27f82a51ade362b54e0f47745f",
    }),
    # the L_p engine at p = 2 is the Hilbert recursion, bit for bit
    "zero-p2": (546, {
        "residual": "b410a8bd0cc686560e4f7ddfae6eb96397cd7f05c3eebf3e50b340c104b24884",
        "iterate_norm": "c107190afebaa5f51a40aa9941f886b1544b8a27f82a51ade362b54e0f47745f",
    }),
    "jfixed": (509, {
        "residual": "dae4333a0a7703704d729a57fa131d97a8cc54ce5e275b5d00b6117197b90f7c",
        "iterate_norm": "c22cdb9ef95a6c22e85471f5f1800a28dbd73003ee4ddf05ce3a92647aad6e10",
    }),
    "vi": (509, {
        "residual": "4a30a20964bec7c5ae449c9bd2e284e01fc17a8a7b4c2d2237700c9988802a70",
        "iterate_norm": "9790b530e9cf24718927e95dc25472f996aba02fa919d8ae7f1216bc01cd6efc",
    }),
    "hammerstein-kernel": (2773, {
        "residual": "b2fc0abf4eb420089f1641f5d601387abb239cb207b3aa234e18ff0a0a03b528",
        "iterate_norm": "010ac246ab02d85e7074a33a7b433634a196ff13794a13c346b20efe8a81ee9b",
        "residual_dual": "6cac87478e5fd9b5a275fa1b81a764116dabac4a8dc77e3210f1577b96840cbb",
    }),
    # target [u*, 0] with u* != 0 on X x X*: one component paired, one skipped
    "hammerstein-partial-target": (157, {
        "residual": "7c21c735485588bcc278e5dbae8bb43c1c2371a102fedc7131538611955b0bbf",
        "iterate_norm": "e9d4b6ab84b0a59028f16d7c17c46bd7cf69234499b1358873b9657b28a9e3d1",
        "residual_dual": "040bace4a29a11a6c9dafa13d5de96def508d4f4e1579d38e7114663ada6a926",
        "phi_to_target": "478fdcdc5e828d13fab93e6babc50a2fba0b5eb43c66ee0f97618790d1a1a402",
    }),
    "nonzero-target": (53, {
        "residual": "c9da75ea41dce6ba9e0f8c681f9f3cf6e960518856db412541ef8319cd0a0a7b",
        "iterate_norm": "0a2eda92eb376fedd0d537f51d450a463476aebc887a8927cb8fda7ffa4afaa5",
        "phi_to_target": "19bae2a2406f6173e99d41ccae949d0fb83feb8937161363cc754be9624aeba9",
    }),
}


def fingerprint(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def run_trace(name, tmp_path):
    if name == "example-1":
        return execute(example_config(1, tol=1e-9)).trace
    if name == "example-1-1e-12":
        return execute(example_config(1, tol=1e-12)).trace
    if name == "example-1-M1e5":
        return execute(example_config(1, grid=100_000, tol=1e-6)).trace
    if name == "example-2":
        return execute(example_config(2, tol=1e-2)).trace
    if name == "example-3":
        return execute(example_config(3, tol=1e-9)).trace
    if name == "hilbert":
        return execute(make_config("hilbert", "mult", p=2.0, tol=1e-9)).trace
    if name == "zero-p2":
        return execute(make_config("zero", "mult", p=2.0, tol=1e-9)).trace
    if name == "jfixed":
        return execute(make_config("jfixed", "mult-as-T", tol=1e-9)).trace
    if name == "vi":
        return execute(make_config("vi", "mult", box=(-2.0, 2.0), tol=1e-9)).trace
    if name == "hammerstein-kernel":
        t = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.exp(-np.abs(t[:, None] - t[None, :])), delimiter=",")
        config = make_config("hammerstein", f"kernel:{path}", init_dual="inv-tsin", tol=1e-9)
        return execute(config).trace
    ctx = LpContext(p=1.5, M=100)
    target = GridFunction.from_callable(lambda t: 0.1 * np.cos(t), ctx.M)
    if name == "hammerstein-partial-target":
        cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-6,
                          target=ProductPoint(target, GridFunction.zeros(ctx.M)))
        u1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
        v1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * np.sin(t)), ctx.M)
        return solve_hammerstein(hammerstein_example(), u1, v1, cfg)[2]
    # solve_zero with a known non-zero target: the general phi path
    cfg = SolveConfig(ctx=ctx, schedule=default_schedule(1.0), tol=1e-6, target=target)
    x1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
    return solve_zero(mult_op(), x1, cfg)[1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name, tmp_path):
    nfe, expected = GOLDEN[name]
    trace = run_trace(name, tmp_path)
    assert trace.converged
    assert trace.nfe == nfe
    got = {}
    for col in COLUMNS:
        values = [getattr(row, col) for row in trace.rows]
        if values[0] is not None:
            got[col] = fingerprint(values)
    assert got == expected


RESIDUAL_BYTES = """
import sys
import numpy as np
from lpmono.cli import example_config, execute
trace = execute(example_config(1, grid=10_000, tol=1e-3)).trace
sys.stdout.write(np.asarray(trace.columns["residual"], dtype="<f8").tobytes().hex())
"""


def test_residuals_independent_of_blas_threads():
    # at M = 10^4 a BLAS dot sums in an order that follows its thread count
    src = str(Path(lpmono.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", RESIDUAL_BYTES], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        outs.append(proc.stdout)
    assert len(outs[0]) == 7 * 16  # 7 steps of 8 bytes
    assert outs[0] == outs[1]
