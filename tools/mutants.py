"""Mutation check: apply each listed one-line mutant to a copy of the tree and run tier-1 on it.

Usage (from any directory; standard library only):

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/lpmono``, an exact text
that occurs in it once, the text that replaces it, and, for a mutant that
no test can tell from the original, the reason (``equivalent``).  The
tree is copied once to a temporary directory; tier-1 runs there first
unmutated, then once per mutant with that one edit applied, as
``python -m pytest -x -q`` under a timeout of ``TIMEOUT_S``.  A run that fails
or times out kills the mutant.  The script prints one line per mutant,
then the kill rate over the non-equivalent mutants and the survivors.

Exit code: 0 once every mutant ran, whatever the kill rate; 2 when an
entry's text no longer occurs exactly once or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300.0  # per tier-1 run; tier-1 takes about 10 s on 2 cores


@dataclass(frozen=True)
class Mutant:
    file: str
    old: str
    new: str
    why: str  # what the mutant breaks
    equivalent: str | None = None  # why no test can kill it, for a mutant marked equivalent


MUTANTS = [
    # the engine's guards and stop test
    Mutant("solver.py", "if not norm <= guard:", "if norm > guard:",
           "a NaN norm passes the divergence guard and a NaN residual reads as converged"),
    Mutant("solver.py", "        if top < tol:\n", "        if top <= tol:\n",
           "a step whose residual equals tol stops the run"),
    Mutant("solver.py", "if nd == 0.0 and yi.any():", "if False:",
           "an underflowed J^-1 of a nonzero dual vector is taken as x_{n+1} = 0"),
    Mutant("solver.py", ') if ctx.p < 1.2 else ""', ') if ctx.p < 1.0 else ""',
           "a divergence below p = 1.2 no longer names p and gamma"),
    # the step's three forms of alpha and theta
    Mutant("solver.py", "np.multiply(jx, 1.0 - a, s)", "np.multiply(jx, 1.0 + a, s)",
           "the J-fixed step weights J x_n by 1 + alpha_n"),
    Mutant("solver.py",
           "            np.subtract(yi, np.multiply(jxi, alpha_theta, xni), yi)"
           "  # - alpha_n theta_n J x_n\n", "",
           "the step drops the Tikhonov term alpha_n theta_n J x_n"),
    # input rules and checks
    Mutant("operators.py", "_FEAS_TOL = 1e-12", "_FEAS_TOL = 1e-9",
           "the box selection accepts a violation of 1e-10"),
    Mutant("operators.py", "pairs=50, scale=1.0)", "pairs=1, scale=1.0)",
           "the kernel operator's monotonicity check samples one pair"),
    Mutant("operators.py", "s = weighted_sum(A(x) * e, weigh) - weighted_sum(A(y) * e, weigh)",
           "s = weighted_sum(A(x) * e, weigh) + weighted_sum(A(y) * e, weigh)",
           "the monotonicity pairing adds <Ay, x - y> instead of subtracting it"),
    Mutant("schedule.py", "_S2_MIN = 0.1", "_S2_MIN = 0.01",
           "a block sum of alpha^2 below 0.1 counts as bounded away from 0"),
    Mutant("grid.py", "        vals += 1.0\n", "",
           "a probe whose basis combination is all but 0 is scaled up from roundoff"),
    Mutant("grid.py", '    r = _number("r", r, float)\n', "",
           "lp_norm takes a str exponent to a TypeError, not the number rule's ValueError"),
    Mutant("grid.py", "if not (math.isfinite(r) and r >= 1.0):", "if not r >= 1.0:",
           "lp_norm(f, inf) reads 1.0 for f = 3 + t, whose sup norm is 4, instead of refusing r"),
    Mutant("solver.py", '        tol = _finite_positive("tol", tol)\n', "",
           "prefix(nan) returns every row unconverged and prefix(inf) one row marked converged"),
    # the trapezoid weighting at large M
    Mutant("grid.py", "        out[0], out[-1] = end * t0, end * tm\n", "",
           "the end terms keep the weight h, not h/2: TestWeighting and the M = 10^5 golden "
           "read other bits"),
    Mutant("grid.py", "    if M < _SCALAR_WEIGHTS_FROM:", "    if M >= _SCALAR_WEIGHTS_FROM:",
           "small grids weigh by the scalar and large grids by the weight array: the same bits, "
           "so only TestArrayBudget's bounds, which leave no room for a weight array, kill it"),
    # the nodal powers and theta's log, whose bits must not follow numpy's CPU dispatch
    Mutant("grid.py", "    if r == 1.5:\n", "    if False:\n",
           "m^(3/2) goes back to np.power, which rounds otherwise than m*sqrt(m)"),
    Mutant("grid.py", "    if r == 3.0:\n", "    if False:\n",
           "m^3 goes back to np.power, which rounds otherwise than (m*m)*m"),
    Mutant("schedule.py", "        return np.fromiter(map(log, memoryview(a)), float, a.size)\n",
           '        with np.errstate(divide="ignore", invalid="ignore"):\n'
           "            return np.log(a)\n",
           "theta_n goes back to numpy's log, whose AVX-512 loop rounds otherwise than libm's",
           equivalent="numpy's float64 log equals libm's where numpy runs without its AVX-512 "
           "loops (a CPU without them, or NPY_DISABLE_CPU_FEATURES); with them, example 3's "
           "golden kills it"),
    # the rules ParamSchedule.steps checks on every chunk
    Mutant("schedule.py", "    if got != (np.float64, (stop - start,)):",
           "    if got[0] != np.float64:",
           "a rule that returns a chunk one step short cuts the run short without a word"),
    Mutant("schedule.py", "(values > 0.0) & (values < 1.0)", "(values > 0.0)",
           "a schedule with alpha_n = 2 runs"),
    Mutant("schedule.py", "alpha <= self.gamma * theta", "alpha <= self.gamma",
           "alpha_n above gamma theta_n runs"),
    Mutant("schedule.py", "np.append(prev, theta[:-1])", "np.append(theta[0], theta[:-1])",
           "a theta that rises at a chunk's first step runs"),
    # hostile inputs that reached the wrong error
    Mutant("schedule.py", "    except OverflowError:\n", "    except ZeroDivisionError:\n",
           "theta_offset = 10**400 raises an OverflowError that names no field"),
    Mutant("solver.py", "if weighted_duality(r, weigh)(v, jv, s) == 0.0 and v.any():",
           "if False:", "a start whose J underflows gets the step's refusal and its --gamma hint"),
    Mutant("solver.py", "underflowed to 0 at step {n} (p = {ctx.p!r})",
           "underflowed to 0 at step {n} (p = {ctx.p:g})",
           "the underflow refusal prints p = 1.0000000001 as 1"),
    Mutant("solver.py", "(jx, s, np.empty_like(x)) > 0.0:", "(jx, s, np.empty_like(x)) >= 0.0:",
           "at p = 1.0000000001 the underflow refusal points at --gamma, which cannot help"),
    Mutant("cli.py", "    if 0 < memory < need:\n", "    if False:\n",
           "--grid 10**12 reaches numpy's MemoryError instead of a refusal naming --grid"),
    # the start hand-off: the engine's copy is the only start an execute run holds
    Mutant("solver.py", "    del x1\n    x, trace = _iterate(lambda x, out: (A[0]",
           "    x, trace = _iterate(lambda x, out: (A[0]",
           "solve_zero keeps its start alive beside the engine's copy, a fifth node array"),
]


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info", "build", ".perfbench_tmp"))


def tier1(tree: Path) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 with -x on ``tree``."""
    # no bytecode is written or read, so an edit of the same size within a second still counts
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lpmono-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        for m in MUTANTS:
            found = (tree / "src" / "lpmono" / m.file).read_text().count(m.old)
            if found != 1:
                print(f"mutants: {m.file}: {m.old!r} occurs {found} times, not once", file=sys.stderr)
                return 2
        if tier1(tree) != "passed":
            print("mutants: tier-1 fails on the unmutated copy", file=sys.stderr)
            return 2
        survivors, scored = [], 0
        for m in MUTANTS:
            path = tree / "src" / "lpmono" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                outcome = tier1(tree)
            finally:
                path.write_text(original)
            killed = outcome != "passed"
            tag = "equivalent" if m.equivalent else ("killed" if killed else "SURVIVED")
            note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
            print(f"{tag:10} {outcome:8} {time.perf_counter() - t0:6.1f} s  {m.file}: {m.why}{note}")
            if m.equivalent is None:
                scored += 1
                if not killed:
                    survivors.append(m)
    print(f"kill rate: {scored - len(survivors)}/{scored} non-equivalent mutants killed")
    for m in survivors:
        print(f"survivor: {m.file}: {m.old.strip()!r} -> {m.new.strip()!r} ({m.why})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
