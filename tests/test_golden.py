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
to exact than the recomputed ones.  They were re-recorded again when each
duality map came to take |y|^r as |y|^(r-1) |y|, one power per map instead
of two: every NFE and ``converged`` stayed, ``hilbert`` and ``zero-p2`` kept
their bits (at r = 2, |y|^1 |y| equals numpy's square), and the oracle's
bounds held on both loops.
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
        "residual": "8ed5a209d196168bb9287eca7fd01f9735c749e3100b0fb7629a687536d2d903",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
        "phi_to_target": "745c6d84871445b39c8204bdcd5ef3fac1fb4a654024e1053b32efc0700e497b",
    }),
    # longer than one 4096-step schedule chunk
    "example-1-1e-12": (5482, {
        "residual": "ffd195e90fdf5cb9a660c88f72965020c8fef8f3f39ab6f2e1f933fe5eeff46e",
        "iterate_norm": "c2a6e9206ea7100127443e4b5bdae6ea4ad3c7768d9986e35976dfe78784cd90",
        "phi_to_target": "ad3708c638f6dc37bfc6dd0b92a8e9d2df5563da7841fa1a350d1cb14579f2f6",
    }),
    # a fine grid, where every nodal pass dominates the step
    "example-1-M1e5": (53, {
        "residual": "7f8e6b476836b22500a3deac1fab83f6a4532647a3e33229fa8f5fa274f8cb0d",
        "iterate_norm": "6c7eec826c2f03193afc5df58549f0d3e57c8b9caad4c25200dceae4c34844d8",
        "phi_to_target": "d85701c28e391be0689e1ede7c7f2c872add66ea4533d3d568f8c110643705ae",
    }),
    "example-2": (584, {
        "residual": "b70ebc0ae0ef87e7a4a3a58579cf6ec4629837918c788e8585f618b6ef64c945",
        "iterate_norm": "4ee235d53a3104cca79c03a33f6a7cb00663df82dd9cc523f665ea550f13fd93",
        "phi_to_target": "abd157364290bebe0076bc23815c2b6d8c83e26bfcd4aeffcb90d5c318417d7f",
    }),
    "example-3": (2040, {
        "residual": "2cb937bea68afc62926c841ddf8e26eb4382a441e5cebcece6176c3a7b91e3e0",
        "iterate_norm": "f19fbf77506617a3f15244d8d53e8f213713461b7ccd4c78a4fc026737e1d30c",
        "residual_dual": "3b8a4d15d8d53ec594fb88968e761872df539643454d98a75d4505a185da60f0",
        "phi_to_target": "ed953a45e7ad141d9e55b8e1a27ba47885ea8d7ef93dd5660bff203683b95e17",
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
        "residual": "987395a0fd23b684628e9992c1c179f215d300492802ad1058cfae2e181b1e02",
        "iterate_norm": "7fcb035e647ea3223bb474964f75c2e54330dd8db45cd5361dfeea9a6efb5bff",
    }),
    "vi": (509, {
        "residual": "8ed5a209d196168bb9287eca7fd01f9735c749e3100b0fb7629a687536d2d903",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
    }),
    "hammerstein-kernel": (2773, {
        "residual": "76a273be0aa1594ed8c08bb03ec69455d9812593c41738453ff38c6617b32857",
        "iterate_norm": "237c3a947c1450e44d696d244798c62707f975293e8292204872510cff535068",
        "residual_dual": "4275b2a16d89b33665a075b0409c5a9910541a866995c8f7d8c47210dc0ad3d0",
    }),
    # target [u*, 0] with u* != 0 on X x X*: one component paired, one skipped
    "hammerstein-partial-target": (157, {
        "residual": "8af57c96b285ae834f1724e1cfa70e4b936c20bd1c6a922f5f2fc017d9d1384e",
        "iterate_norm": "b3160aa55967dd8cfb36f44caa66698abe0a3292e3deaae5e2cede4484f35a8d",
        "residual_dual": "676e89fc51980977593b8619467db2cb00f4084bffd15c809631d6da619b32c7",
        "phi_to_target": "92adc952705e911ef9ca4b9c4bca055609a0d95f5c57053183a27105a3b04a99",
    }),
    "nonzero-target": (53, {
        "residual": "fa58d06da52bd6159cad097034a3e3f9253b769d0a3432a876d1bf28f704039b",
        "iterate_norm": "badb4e70e2d356a3eea1e111e1a90ce7f22029f189d34895437a331a847e2974",
        "phi_to_target": "3646b597d5716281b3b424ff091fee34c799c09c815e83b1cf5089c5c34195e5",
    }),
}

# the same runs on numpy's libm power loop (conftest.power_loop), where the
# bits differ; hilbert and zero-p2 run at p = 2, whose exponents take numpy's
# scalar fast paths, so one set holds on both loops
GOLDEN_LIBM = {
    "example-1": {
        "residual": "80b884314b9d77d580e65466fc1c241a4c2ead8c19aed551ff1d067566da1399",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
        "phi_to_target": "745c6d84871445b39c8204bdcd5ef3fac1fb4a654024e1053b32efc0700e497b",
    },
    "example-1-1e-12": {
        "residual": "5082f881ea68b830b739c1c27cb954ac543ae64f11b4367a46a46b221fa4f2ee",
        "iterate_norm": "c2a6e9206ea7100127443e4b5bdae6ea4ad3c7768d9986e35976dfe78784cd90",
        "phi_to_target": "ad3708c638f6dc37bfc6dd0b92a8e9d2df5563da7841fa1a350d1cb14579f2f6",
    },
    "example-1-M1e5": {
        "residual": "aa6e27fd9addd94b867bd3d099735034e3f78ab7ac5f96ddaaaac7d05ac6062e",
        "iterate_norm": "6c7eec826c2f03193afc5df58549f0d3e57c8b9caad4c25200dceae4c34844d8",
        "phi_to_target": "d85701c28e391be0689e1ede7c7f2c872add66ea4533d3d568f8c110643705ae",
    },
    "example-2": {
        "residual": "b8d791e1c2a5272cd9982b0bb2a35f7b43b0dd91a43cd05471584d6332a01c09",
        "iterate_norm": "091e2b6d3e495ee383e4a5dbaccf7ea1ea65799ef4b377047dbf53ee1d254fcf",
        "phi_to_target": "d93612f98a2db5d7a50a75321b7d5c27be96351b75a7cb37fff7244dac0270a5",
    },
    "example-3": {
        "residual": "e1405c3f4b63ff3e82d3748e8ca2f3d24ee052a877573814527880032f4758b1",
        "iterate_norm": "10ac00841253ec9c210338ed7d8d2f58c21dbd494691a1e75747e8b4fbc4e557",
        "residual_dual": "12203ea4212b5c18898530d70341abd07014e2ecbc89b8529da5c4986113cf77",
        "phi_to_target": "adfb7ba831c4598ef419e2f76bd4f7b7b02f35e5e80a6e4e9ca76e8035cf15fa",
    },
    "hammerstein-kernel": {
        "residual": "fd5a7431cf455a7b0e9bcb7abca4afa61a03d013ab82e9599b7f8aa3058e2605",
        "iterate_norm": "80a09eb5be8a2785899d0875905b0e4e6009693e1dfdbd959cf4080848f14b42",
        "residual_dual": "c8c9b4c3706192ac9189b14ccbea415b3aee9e1b48b79fd276a5f6f215d1800b",
    },
    "hammerstein-partial-target": {
        "residual": "069eee43f8e15e672cf95cda403c9aa3ec832aea4651ecca4564d6349064c5b3",
        "iterate_norm": "b3160aa55967dd8cfb36f44caa66698abe0a3292e3deaae5e2cede4484f35a8d",
        "residual_dual": "5da8c0304dc4756c3c64656b321fc7199160d4f84bad0d2d6ae4b3192baecd4a",
        "phi_to_target": "92adc952705e911ef9ca4b9c4bca055609a0d95f5c57053183a27105a3b04a99",
    },
    "jfixed": {
        "residual": "862bb5f6c9aafe59dd774e12947a3a4688c9da2e16c5c8e320d174477ed4fb10",
        "iterate_norm": "7fcb035e647ea3223bb474964f75c2e54330dd8db45cd5361dfeea9a6efb5bff",
    },
    "nonzero-target": {
        "residual": "149dbd0dc5b5cb03f1be7d16c8ec3b9f56c09d59f76cf76cc7ad2d714ef95158",
        "iterate_norm": "badb4e70e2d356a3eea1e111e1a90ce7f22029f189d34895437a331a847e2974",
        "phi_to_target": "3646b597d5716281b3b424ff091fee34c799c09c815e83b1cf5089c5c34195e5",
    },
    "vi": {
        "residual": "80b884314b9d77d580e65466fc1c241a4c2ead8c19aed551ff1d067566da1399",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
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
