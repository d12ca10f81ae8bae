"""Golden traces: the NFE and a sha256 fingerprint of every trace column.

Each run pins the little-endian float64 bytes of ``residual``,
``iterate_norm`` and, where the run defines them, ``residual_dual`` and
``phi_to_target``.  A change that alters any iterate by one bit fails
here; a change that is meant to alter the arithmetic updates these values
and says why.  All runs use M = 100 but one, example 1 at M = 10^5.  The
fingerprints differ between numpy's two float64 power loops, so each run
pins one set per loop (``GOLDEN`` for AVX-512, ``GOLDEN_LIBM`` for libm);
the NFE is the same on both.
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
from lpmono.cli import RunConfig, example_config, execute

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

# the same runs on numpy's libm power loop (conftest.power_loop), where the
# bits differ; hilbert and zero-p2 run at p = 2, whose exponents take numpy's
# scalar fast paths, so one set holds on both loops
GOLDEN_LIBM = {
    "example-1": {
        "residual": "d7654bd12919560bf63a6db4419ccfad3c3dfcf4d57a99f4cc164cd830de8aef",
        "iterate_norm": "4245d49a5862bffaa1939a2be454f90d69ebd235a820677e49a8f21e360dac0c",
        "phi_to_target": "00aa91b4f5163573ae01f07e5b8d764d58cc2d12692524ba447562f13091ae4c",
    },
    "example-1-1e-12": {
        "residual": "d78488549f282b44562ae0395cb2f797370d3d72826905fed275f0e34012df72",
        "iterate_norm": "33253d4543d642d2229413241f3750e187f9b6846f02a0ec73111cef2059ba7e",
        "phi_to_target": "bac36bf62e26b86abf8e592372e089093a72e1b75d3c7162d0525382a148b74e",
    },
    "example-1-M1e5": {
        "residual": "7299daa0aa8165972e567ffcc9bda9b348c53fb1e3e14ad63dacf1c0c93559a9",
        "iterate_norm": "51adac96ce096a7637592a13b447aeaf517528bb899f90dc83dd63671a5d0fc2",
        "phi_to_target": "b7ee83a07266112c7b92c6f716fb4e6badd6de817273c64608b77b82bfad7ad5",
    },
    "example-2": {
        "residual": "63b07d302fa7acbc274bc6d4a7a4e358d4ab532cce21668e7ecd59aa556d13fa",
        "iterate_norm": "7051ed9817d261da08daf30dea0ec5b4dc6fbdd49ca00e402695507d2cfef8ce",
        "phi_to_target": "5aeacdf506082cb6df28c67a6da1c408f0d65524bdc96cc4708d86a099a077c4",
    },
    "example-3": {
        "residual": "7b72975891cae082d4c3d334bf5bdb3932e0abbe2c57cea8e58538259373ed30",
        "iterate_norm": "16256064b2b2dc03672f227b7ba72929fe67abd08a7bb7e5b388628b84a3bd7a",
        "residual_dual": "5c5b9714756ebb4185dad617435604dfee939c5e63fc25128dbf052cdaa397a7",
        "phi_to_target": "6b55e7861c952f31ea8a6c3223dbad7795e4142accd14b728ce4e2eeefb9ea84",
    },
    "hammerstein-kernel": {
        "residual": "28169a2094c6fac3b4a7e242668bc5c4abd47aac06f82e7d4155601ace9e5f59",
        "iterate_norm": "95152329151a30da44326789a7881cee8ffa7f9faf08ba3409c550cbd0861561",
        "residual_dual": "2e10f38acfdf45c1e1ba5be0c2d9f7551bddce308875c4e9dffb081b83f556f0",
    },
    "hammerstein-partial-target": {
        "residual": "5d7420ae7ab2ff0245a3bfd8a3da9688803d9af3ba9bf1fddabb5a7c35eb5389",
        "iterate_norm": "15ecd8985e71c77d44c1f000d9f274625fd781d7970b3f0127e0f5a4fb1fc563",
        "residual_dual": "488aecc1d3b1bccdb7264fc911f0129e5dbd18b6a615182ba0f1335826fcff6a",
        "phi_to_target": "24b1d58e9b7c5072d6683abf8aee01ae706ce504ae8e0bebf5b91acf0307f3b0",
    },
    "jfixed": {
        "residual": "f77c02cd933bdeaf134a40a76d8f029d4c291e27445980ac893507ab4efedb06",
        "iterate_norm": "9e47c0655f2badcad8aef813a7cda0d7fe99a8c50c18342364dfaa88c168d1a7",
    },
    "nonzero-target": {
        "residual": "acad9a31a35c88d757d926a844d00d3730fe057572a92105b2804a028c57b535",
        "iterate_norm": "f60222a5f18cf0c39e148721ba11b13391548bc7fb451aa9caa6ca7951220e86",
        "phi_to_target": "916ffeff75f2f21916af9f386bdd24faa2e77179a117637f2fbdafbbbd99043e",
    },
    "vi": {
        "residual": "d7654bd12919560bf63a6db4419ccfad3c3dfcf4d57a99f4cc164cd830de8aef",
        "iterate_norm": "4245d49a5862bffaa1939a2be454f90d69ebd235a820677e49a8f21e360dac0c",
    },
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
        return execute(RunConfig("hilbert", "mult", p=2.0, tol=1e-9)).trace
    if name == "zero-p2":
        return execute(RunConfig("zero", "mult", p=2.0, tol=1e-9)).trace
    if name == "jfixed":
        return execute(RunConfig("jfixed", "mult-as-T", tol=1e-9)).trace
    if name == "vi":
        return execute(RunConfig("vi", "mult", box=(-2.0, 2.0), tol=1e-9)).trace
    if name == "hammerstein-kernel":
        t = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.exp(-np.abs(t[:, None] - t[None, :])), delimiter=",")
        config = RunConfig("hammerstein", f"kernel:{path}", init_dual="inv-tsin", tol=1e-9)
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
def test_golden_trace(name, tmp_path, power_loop):
    nfe, expected = GOLDEN[name]
    if power_loop == "libm":
        expected = GOLDEN_LIBM.get(name, expected)
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
