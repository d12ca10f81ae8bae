"""Golden traces: the NFE and a sha256 fingerprint of every trace column.

Each run pins the little-endian float64 bytes of ``residual``,
``iterate_norm`` and, where the run defines them, ``residual_dual`` and
``phi_to_target``.  A change that alters any iterate by one bit fails
here; a change that is meant to alter the arithmetic updates these values
and says why.  All runs use M = 100 but one, example 1 at M = 10^5.  One
set holds on both of numpy's float64 power loops (its AVX-512 loop, and the
one it runs with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``)
and on one OpenBLAS thread as on two: the runs take no ``np.power`` at an
exponent where the two loops round differently, the schedule's theta and the
kernel run's exp(-|t-s|) take libm's log and exp, and every integral sums
through numpy's pairwise reduce.

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
bounds held on both loops.  They were re-recorded once more, when the norms
at exponents 3/2 and 3 came to be taken as m sqrt(m) and (m m) m, theta_n
through libm's log and the kernel through libm's exp, which replaced a
second set of pins for numpy's libm power loop: every NFE and ``converged``
stayed, ``hilbert`` and ``zero-p2`` kept their bits, and the oracle's
figures fell or held.
"""

import hashlib
import math
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
        "residual": "b307eae924330a38072dbdbc186c61a24d490557857fa806474f1f5c11da3f95",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
        "phi_to_target": "745c6d84871445b39c8204bdcd5ef3fac1fb4a654024e1053b32efc0700e497b",
    }),
    # longer than one 4096-step schedule chunk
    "example-1-1e-12": (5482, {
        "residual": "e166b6e8022e3fda0b56435af6d01361afe2e11465ea16d0caf67e47098a032d",
        "iterate_norm": "c2a6e9206ea7100127443e4b5bdae6ea4ad3c7768d9986e35976dfe78784cd90",
        "phi_to_target": "ad3708c638f6dc37bfc6dd0b92a8e9d2df5563da7841fa1a350d1cb14579f2f6",
    }),
    # a fine grid, where every nodal pass dominates the step
    "example-1-M1e5": (53, {
        "residual": "586cebe5b9570d229012af8298a21be529994885f57a32575a2120237017a3ff",
        "iterate_norm": "6c7eec826c2f03193afc5df58549f0d3e57c8b9caad4c25200dceae4c34844d8",
        "phi_to_target": "d85701c28e391be0689e1ede7c7f2c872add66ea4533d3d568f8c110643705ae",
    }),
    "example-2": (584, {
        "residual": "48769f8545740c1faa421ff5092e8aba78c68d3c7bd77fcc48bda5b08377b173",
        "iterate_norm": "ee1a0156276503ac2f7c1b989c5fa187f62fd3e598a802a7ca9ec45fcf3a88bb",
        "phi_to_target": "a9c6c5acf127ab4a80478c3ba1d83b92d1bc835f84183c32208a878f1d283582",
    }),
    "example-3": (2040, {
        "residual": "750f1ed0d45f9442f86db561be4f47c22a6a16d520cd2fdd51b9b80ed867f850",
        "iterate_norm": "10ac00841253ec9c210338ed7d8d2f58c21dbd494691a1e75747e8b4fbc4e557",
        "residual_dual": "55018497bafb7d0aebd79d075c75f2a83e19c7c61ec9beefb7682d55e109a4a4",
        "phi_to_target": "adfb7ba831c4598ef419e2f76bd4f7b7b02f35e5e80a6e4e9ca76e8035cf15fa",
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
        "residual": "b2cc65f45591a7c2e0650f1b26b13a3978dda80810090ada25c7bf0def0a2e2d",
        "iterate_norm": "7fcb035e647ea3223bb474964f75c2e54330dd8db45cd5361dfeea9a6efb5bff",
    }),
    "vi": (509, {
        "residual": "b307eae924330a38072dbdbc186c61a24d490557857fa806474f1f5c11da3f95",
        "iterate_norm": "00e2c21517aedb45921de7b91abe05c0e4c80ae6f2bf5e053ad6e385d7ce2b25",
    }),
    "hammerstein-kernel": (2773, {
        "residual": "8b01b508d32fe0403c183ae98fa91e8c627140ebdf3ed4b4fac121a270590483",
        "iterate_norm": "80a09eb5be8a2785899d0875905b0e4e6009693e1dfdbd959cf4080848f14b42",
        "residual_dual": "c0781f1e52159ba24bfd477872e7561adc4b6b722b7fc38f37f46dadbdcba0dc",
    }),
    # target [u*, 0] with u* != 0 on X x X*: one component paired, one skipped
    "hammerstein-partial-target": (157, {
        "residual": "db8953724b82bcfb0482339c81fb9800a81f8f71d8ecbb8f7e6d6039d93dc6cc",
        "iterate_norm": "b3160aa55967dd8cfb36f44caa66698abe0a3292e3deaae5e2cede4484f35a8d",
        "residual_dual": "0ce409107041a3398d4b264fcbdd734d48c452123aa5b10785ba19d7ef908283",
        "phi_to_target": "92adc952705e911ef9ca4b9c4bca055609a0d95f5c57053183a27105a3b04a99",
    }),
    "nonzero-target": (53, {
        "residual": "076d8c47bb5a086360d07ee69036ec577fe5af962a4c62c0f44d349ad0306b04",
        "iterate_norm": "badb4e70e2d356a3eea1e111e1a90ce7f22029f189d34895437a331a847e2974",
        "phi_to_target": "3646b597d5716281b3b424ff091fee34c799c09c815e83b1cf5089c5c34195e5",
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
        return execute(RunConfig("hilbert", "mult", p=2.0, tol=1e-9)).trace
    if name == "zero-p2":
        return execute(RunConfig("zero", "mult", p=2.0, tol=1e-9)).trace
    if name == "jfixed":
        return execute(RunConfig("jfixed", "mult-as-T", tol=1e-9)).trace
    if name == "vi":
        return execute(RunConfig("vi", "mult", box=(-2.0, 2.0), tol=1e-9)).trace
    if name == "hammerstein-kernel":
        t = np.linspace(0.0, 1.0, 101).tolist()
        path = tmp_path / "kernel.csv"
        # libm's exp: numpy's follows its CPU dispatch
        np.savetxt(path, [[math.exp(-abs(a - b)) for b in t] for a in t], delimiter=",")
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
