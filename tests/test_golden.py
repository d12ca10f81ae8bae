"""Golden traces: the NFE and a sha256 fingerprint of every trace column.

Each run pins the little-endian float64 bytes of ``residual``,
``iterate_norm`` and, where the run defines them, ``residual_dual`` and
``phi_to_target``.  A change that alters any iterate by one bit fails
here; a change that is meant to alter the arithmetic updates these values
and says why.  All runs use M = 100 but one, example 1 at M = 10^5.  The
fingerprints differ between numpy's two float64 power loops, so each run
pins one set per loop (``GOLDEN`` for AVX-512, ``GOLDEN_LIBM`` for libm);
the NFE is the same on both.

The engine carries the step's dual vector y_{n+1} as J x_{n+1}, and the
``iterate_norm`` column is J^{-1}'s norm of it, ||y_{n+1}||_q; in exact
arithmetic these are J x_{n+1} and ||x_{n+1}||_p.  The pins were re-recorded
when those carried values replaced J and the norm recomputed from x_{n+1}:
every NFE stayed, and ``hilbert`` and ``zero-p2`` kept their bits.  The
exact replay in ``tests/test_oracle.py`` shows the carried columns closer
to exact than the recomputed ones.
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
        "residual": "60411e43d92f144351f290514039c43341cfd465ffc5442a5b90e9f56375eada",
        "iterate_norm": "ca37ae147da21a3816b7204296505c0b0862de72d82a06df7cc5687bfa67d2de",
        "phi_to_target": "9cb6952799543ed39c048a0dc9ca229e10060a65b2cea1638651bb081b667b2b",
    }),
    # longer than one 4096-step schedule chunk
    "example-1-1e-12": (5482, {
        "residual": "3b34099512146c09a896bc1aab03799cbe91921c25d987d679eba47807127455",
        "iterate_norm": "cbf5c33f4bdb5a08acbd21f5bd24126899aa4cd2f3f68c9d4dfd80cfc8687fb5",
        "phi_to_target": "8264098192849d932f191623ebd34f7e2eb7f486c8af82394988a909d53a056b",
    }),
    # a fine grid, where every nodal pass dominates the step
    "example-1-M1e5": (53, {
        "residual": "136efbb11d6ed92dfef4bde15bdf99315364909460b26625be37bf33d7005aa9",
        "iterate_norm": "52290086213314ac38db87d452646a5bd17b8cacf47c50db61c83488b4282cb4",
        "phi_to_target": "663ddccd234645c8f5a45495d53bdca1be95a558a27b1181d5e0ab50bc2a0475",
    }),
    "example-2": (584, {
        "residual": "c271636b5b8454acc835139906b1fcea96cb15dd4ea483dc752157a085081ba9",
        "iterate_norm": "ea8e8fe25a1e24c1e2f611c70e23156eecd1175fae80424406c043b3355f036e",
        "phi_to_target": "798b4bc7f5f934e46571a37fb2f6832ea3e164aa0fe32815f8d404c970c20c37",
    }),
    "example-3": (2040, {
        "residual": "db9b01a4ce19255f9e103c8be1731fa5d4566727bd6cf389f07b8b5d503f0c9e",
        "iterate_norm": "f1894555afb303935f72a8f2b232a9ea47989f3497fc9bbf2be43dd12d69dbdc",
        "residual_dual": "c29836090d4d1cfd96340126c041e863dabed7b80280edfa64c69c5a9df4cf94",
        "phi_to_target": "32af40751d3956d4e8e12b58873906e4313cca46803692ff2e9b9ca10f2c757c",
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
        "residual": "bb0d986f03bb5bfd373e20373a42d80a60cb8c10739eed73e669e1fa26cf6ea0",
        "iterate_norm": "9280e19707de12f6c87b1daad8747bafbe6df9922216771a904e058dd7e5653d",
    }),
    "vi": (509, {
        "residual": "60411e43d92f144351f290514039c43341cfd465ffc5442a5b90e9f56375eada",
        "iterate_norm": "ca37ae147da21a3816b7204296505c0b0862de72d82a06df7cc5687bfa67d2de",
    }),
    "hammerstein-kernel": (2773, {
        "residual": "3030fed44129d8c626f299249f95887a43b6d20da6b57a89e0c54c0d254ebe7c",
        "iterate_norm": "d601144c87d3a66e891ddebd9b21436e3750ecb7616615a0bb9949b172505053",
        "residual_dual": "d117e6ad43e7a3cb18324f4d7ee6664f88b4433f08ff9b587f0c95eaddb07896",
    }),
    # target [u*, 0] with u* != 0 on X x X*: one component paired, one skipped
    "hammerstein-partial-target": (157, {
        "residual": "70a6320553b6649a0c011e8400589c31bb5b28ac40bcfe2f712f7628263bc2f0",
        "iterate_norm": "c4d42a561ecbba7be6025aae4bf54bf5748d93c29a152656a0e90f019a521372",
        "residual_dual": "b2d3d8b96b10a5bb75d52355a83b9ee7319021fd2574f63f4dedeb79f7964efa",
        "phi_to_target": "92adc952705e911ef9ca4b9c4bca055609a0d95f5c57053183a27105a3b04a99",
    }),
    "nonzero-target": (53, {
        "residual": "19f2a5e4038e1b612d4ca601906c26d5acd5595eba520fa8bcab7b3f4936667e",
        "iterate_norm": "ae71c92ed330bc2ce74ad629243c9552f716ea13467b0bf879f52a9d8958dfd3",
        "phi_to_target": "3646b597d5716281b3b424ff091fee34c799c09c815e83b1cf5089c5c34195e5",
    }),
}

# the same runs on numpy's libm power loop (conftest.power_loop), where the
# bits differ; hilbert and zero-p2 run at p = 2, whose exponents take numpy's
# scalar fast paths, so one set holds on both loops
GOLDEN_LIBM = {
    "example-1": {
        "residual": "9248d7b7b1b626c1b5b0754ba8db86ecb098365e456facfa4a94309d6f7776c1",
        "iterate_norm": "b0418ac0bcd1c22e53cf914d3253a58bcaf781525677a74b1c69b3ce1165a019",
        "phi_to_target": "ac22d1eb4c3a508c03a1ddd4bd8caecc46adb952d20620f307f459628609ed23",
    },
    "example-1-1e-12": {
        "residual": "042310f5e6ddbd92e074cb2e98096c7a253fca848da51e2f0b2ccece39e20916",
        "iterate_norm": "b2805a98acb60db65a9db6eb07d06d5ace7aac970634cfa6b5ce337aef34c224",
        "phi_to_target": "5bfc94252e9609fa20ab205d0aa426eb9f846902c2789cc8a6d7494cbc59ac4a",
    },
    "example-1-M1e5": {
        "residual": "4d8fc3d73a59d7ebfd733fe22e32ff92d40a828c0b1414ccaf47089ce2b1f44e",
        "iterate_norm": "9b7dae1b353cf15be9b4d3d3988073e2d80ef653f331e7790e943e9b55de7cce",
        "phi_to_target": "2c4e50e6da302eac521fe0d85d57414dbfaa71988ab6fce30b51c173b21a6f8d",
    },
    "example-2": {
        "residual": "06e67e368fd85c294969fa01c0b2bc354d320476e874766da02f9818902877ec",
        "iterate_norm": "a1a18c607ff6b1662203c1254f7b7c5b1f12f5c61767ceb0829a908f8f6ebc2a",
        "phi_to_target": "eb51d1b22cfa966ab72af0fcfc8538db6f02ac95bdf7cb03e8e4039834c51d4b",
    },
    "example-3": {
        "residual": "78ccf8af4b856b7720e879c723a836717a3b778bc30ab6983f9ad2c12f41f963",
        "iterate_norm": "5711ba9e3580b56e13db1fdb5dd8c90ca2c51b3589ee1dc303e17cf19a58e2f0",
        "residual_dual": "c000ea35f5d35d318e098cbfeb8c04e48c27da9709364e98d264e1637de13b8d",
        "phi_to_target": "68c3d9ceae7e3f21d1ceed026b4895086326771acdaaca682b73c7a5fe7c02e4",
    },
    "hammerstein-kernel": {
        "residual": "a0478eee47cf62fe1ecac8d32a591bddbec61140fdc1eefd28b086214e762f2f",
        "iterate_norm": "2310e6571887e635aad4660dd5a69ef21c98396471bf337989fb70fb5e8baf76",
        "residual_dual": "98b2827ec7a12514ca2e46604e18fabf137d2d8faf1c946c37906a54f5c40d03",
    },
    "hammerstein-partial-target": {
        "residual": "4a4bca4f6672df6186d75286346956861ffbc7fa7f26267c0f7fea81b007bef2",
        "iterate_norm": "67f138b0de9b4b21c3dc6b0c0a7a2bab69eefe416a89f06f311a1655ae4e25ec",
        "residual_dual": "50303d581e7f588fd0b6e81d807ceaebdadab3b2be00ebaa59d48e3b2c65b3dc",
        "phi_to_target": "92adc952705e911ef9ca4b9c4bca055609a0d95f5c57053183a27105a3b04a99",
    },
    "jfixed": {
        "residual": "38e8e5aa6da1e4970a461647ee453b6e99eeff97a26275fc1cf718ec00feb131",
        "iterate_norm": "a06fc3c6de48c84db8813b76422e3eceebc8f82065aa7f99fac57f0a70f846ea",
    },
    "nonzero-target": {
        "residual": "ea009dc7b23638760c08dd786fc54ccbad3d6e5ebc72956c0992b2b274dd4275",
        "iterate_norm": "ba512fae952aab210cf752dc7784de50ee8e0b76e3352b50364432cf885abe6d",
        "phi_to_target": "3646b597d5716281b3b424ff091fee34c799c09c815e83b1cf5089c5c34195e5",
    },
    "vi": {
        "residual": "9248d7b7b1b626c1b5b0754ba8db86ecb098365e456facfa4a94309d6f7776c1",
        "iterate_norm": "b0418ac0bcd1c22e53cf914d3253a58bcaf781525677a74b1c69b3ce1165a019",
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
