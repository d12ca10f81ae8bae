"""The three benchmark workloads: inputs, one timed round, and output checks.

Each workload builds the program objects it passes in (``build``), runs one
round of the same calls a user makes (``run_round``), and checks a round's
outputs against the plain-numpy reference and the solver's properties
(``check_round``, ``check_once``).  Every check returns a list of
failure messages; an empty list means the outputs are correct.

Only ``build`` and ``run_round`` belong to the measured program.  The
reference runs and the property checks happen outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LADDER_TOLS = (1e-3, 1e-6, 1e-9, 1e-12)
FINE_GRID_M = 100_000
FINE_GRID_TOL = 1e-6
KERNEL_M = 400
KERNEL_TOL = 1e-9
# step caps a few times above the NFE each workload needs, so that a broken
# recursion ends its round in seconds instead of running 10^6 steps
LADDER_MAX_ITER = 20_000
FINE_GRID_MAX_ITER = 1_000
KERNEL_MAX_ITER = 20_000


def import_lpmono():
    """Import lpmono from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "lpmono" / "__init__.py"
    if not pkg.is_file():
        raise FileNotFoundError(f"no lpmono sources at {pkg.parent}")
    sys.path.insert(0, str(SRC))
    import lpmono
    import lpmono.cli

    if Path(lpmono.__file__).resolve() != pkg.resolve():
        raise ImportError(f"imported lpmono from {lpmono.__file__}, expected {pkg}")
    return lpmono


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= reference.RTOL * np.abs(b)))


def _check_run(label: str, cols: dict, tol: float) -> list[str]:
    """The stopping rule, and phi(0, x) = ||x||^2 for the target 0."""
    errors = []
    stopped = np.asarray(cols["residual"], dtype=float) < tol
    if "residual_dual" in cols:
        stopped &= np.asarray(cols["residual_dual"], dtype=float) < tol
    if not stopped.size or not stopped[-1] or stopped[:-1].any():
        errors.append(f"{label}: the run did not stop at the first step below tol {tol:g}")
    norm = np.asarray(cols["iterate_norm"], dtype=float)
    phi = np.asarray(cols["phi_to_target"], dtype=float)
    if not np.allclose(phi, norm * norm, rtol=1e-13, atol=0.0):
        errors.append(f"{label}: phi_to_target differs from iterate_norm^2 for target 0")
    return errors


def _check_against(label: str, cols: dict, ref: dict) -> list[str]:
    """The same NFE as the reference, and columns within its tolerance."""
    n, n_ref = len(cols["residual"]), ref["residual"].size
    if n != n_ref:
        return [f"{label}: NFE {n}, reference {n_ref}"]
    return [
        f"{label}: {key} column differs from the reference"
        for key in ("residual", "residual_dual", "iterate_norm")
        if key in ref and not _close(cols[key], ref[key])
    ]


def _trace_columns(trace) -> dict:
    rows = trace.rows
    cols = {
        "residual": [r.residual for r in rows],
        "iterate_norm": [r.iterate_norm for r in rows],
        "phi_to_target": [r.phi_to_target for r in rows],
    }
    if rows and rows[0].residual_dual is not None:
        cols["residual_dual"] = [r.residual_dual for r in rows]
    return cols


def read_csv(path: Path) -> tuple[dict, dict]:
    """Parse a trace CSV written by lpmono into columns and footer fields."""
    cols = {"residual": [], "iterate_norm": [], "phi_to_target": []}
    footer = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                footer[key.strip()] = value.strip()
                continue
            row = dict(zip(header, line.split(",")))
            cols["residual"].append(float(row["residual_p"]))
            cols["iterate_norm"].append(float(row["iterate_norm"]))
            cols["phi_to_target"].append(float(row["phi_to_target"]))
    return cols, footer


class Workload:
    name = ""
    M = 100
    runs = 1  # solves one round starts

    def __init__(self, lp, seed: int, tmp: Path) -> None:
        self.lp = lp
        self.seed = seed
        self.tmp = tmp
        self.first: list | None = None  # columns of the first round, for determinism

    def build(self) -> None:
        """Build the program objects the round passes in."""

    def run_round(self) -> tuple[object, list[int]]:
        """One round; returns its outputs and the NFE each result reports."""
        raise NotImplementedError

    def useful_steps(self, nfes: list[int]) -> int:
        return sum(nfes)

    def references(self) -> list[dict]:
        raise NotImplementedError

    def round_columns(self, out) -> list[dict]:
        raise NotImplementedError

    def tols(self) -> list[float]:
        raise NotImplementedError

    def check_round(self, out) -> list[str]:
        """Checks on one round; later rounds must repeat the first bit for bit."""
        errors = self.check_outputs(out)
        if errors:
            return errors
        cols = self.round_columns(out)
        for i, (c, tol) in enumerate(zip(cols, self.tols())):
            errors += _check_run(f"{self.name}[{i}]", c, tol)
        errors += self.check_properties(out, cols)
        if self.first is None:
            self.first = cols
        elif cols != self.first:
            errors.append(f"{self.name}: a repeated round gave different columns")
        return errors

    def check_reference(self) -> list[str]:
        """The first round against the reference (later rounds repeat it)."""
        if self.first is None:
            return [f"{self.name}: no round completed"]
        refs = self.references()
        if len(self.first) != len(refs):
            return [f"{self.name}: {len(self.first)} results, expected {len(refs)}"]
        errors = []
        for i, (c, r) in enumerate(zip(self.first, refs)):
            errors += _check_against(f"{self.name}[{i}]", c, r)
        return errors

    def check_outputs(self, out) -> list[str]:
        """Checks that must pass before the result columns can be read."""
        return []

    def check_properties(self, out, cols: list[dict]) -> list[str]:
        return []

    def check_once(self) -> list[str]:
        return []


class Ex1Ladder(Workload):
    """Example 1's tolerance ladder through the command line, written as CSV."""

    name = "ex1-ladder"
    runs = len(LADDER_TOLS)

    def build(self) -> None:
        self.out = self.tmp / "ladder.csv"
        self.argv = [
            "run-example", "1", "--ladder",
            "--ladder-min-tol", format(min(LADDER_TOLS), "g"),
            "--max-iter", str(LADDER_MAX_ITER),
            "--out", str(self.out),
        ]

    def run_round(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lp.cli.main(self.argv)
        metas = [json.loads(line) for line in buf.getvalue().splitlines() if line]
        return (code, metas), [m.get("nfe", 0) for m in metas]

    def useful_steps(self, nfes):
        # every rung is a prefix of the tightest one
        return max(nfes)

    def tols(self):
        return list(LADDER_TOLS)

    def references(self):
        return [reference.lp_zero("inv-quad", self.M, tol) for tol in LADDER_TOLS]

    def _csv_path(self, tol: float) -> Path:
        return self.out.with_name(f"{self.out.stem}-tol{tol:.0e}{self.out.suffix}")

    def round_columns(self, out):
        _, metas = out
        cols = []
        for tol, meta in zip(LADDER_TOLS, metas):
            c, footer = read_csv(self._csv_path(tol))
            c["footer_nfe"] = int(footer.get("nfe", -1))
            c["meta_nfe"] = meta.get("nfe")
            cols.append(c)
        return cols

    def check_outputs(self, out):
        code, metas = out
        if code != 0:
            return [f"{self.name}: exit code {code}"]
        if [m.get("tol") for m in metas] != list(LADDER_TOLS):
            return [f"{self.name}: rungs {[m.get('tol') for m in metas]}"]
        return []

    def check_properties(self, out, cols):
        errors = []
        longest = cols[-1]["residual"]
        for tol, c in zip(LADDER_TOLS, cols):
            if not (c["footer_nfe"] == c["meta_nfe"] == len(c["residual"])):
                errors.append(f"{self.name}: rung {tol:g} reports inconsistent NFE")
            if c["residual"] != longest[: len(c["residual"])]:
                errors.append(f"{self.name}: rung {tol:g} is not a prefix of the tightest rung")
        return errors

    def check_once(self):
        """The CSV files parse back to the in-memory traces exactly."""
        records = self.lp.cli.run_example(
            1, ladder=True, ladder_min_tol=min(LADDER_TOLS), max_iter=LADDER_MAX_ITER
        )
        errors = []
        for tol, rec in zip(LADDER_TOLS, records):
            c, _ = read_csv(self._csv_path(tol))
            mem = _trace_columns(rec.trace)
            if any(c[k] != mem[k] for k in ("residual", "iterate_norm", "phi_to_target")):
                errors.append(f"{self.name}: CSV of rung {tol:g} does not parse back to its trace")
        return errors


class Ex1FineGrid(Workload):
    """Example 1 at M = 10^5 through ``lpmono.cli.execute``."""

    name = "ex1-fine-grid"
    M = FINE_GRID_M

    def build(self):
        self.config = self.lp.cli.example_config(
            1, grid=self.M, tol=FINE_GRID_TOL, max_iter=FINE_GRID_MAX_ITER
        )

    def run_round(self):
        rec = self.lp.cli.execute(self.config)
        return rec, [rec.summary["nfe"]]

    def tols(self):
        return [FINE_GRID_TOL]

    def references(self):
        return [reference.lp_zero("inv-quad", self.M, FINE_GRID_TOL)]

    def round_columns(self, rec):
        return [_trace_columns(rec.trace)]


class HammersteinKernel(Workload):
    """u + KFu = 0 with F = (1+t)u and the kernel k(t, s) = exp(-|t - s|)."""

    name = "hammerstein-kernel"
    M = KERNEL_M

    def build(self):
        lp = self.lp
        t = lp.nodes(self.M)
        self.kernel = np.exp(-np.abs(t[:, None] - t[None, :]))
        self.pair = lp.HammersteinPair(F=lp.mult_op(), K=lp.hammerstein_kernel_op(self.kernel))
        # the system is linear and J is odd, so the negated start runs the
        # negated trajectory: same NFE and residuals, different inputs
        self.sign = random.Random(self.seed).choice((1.0, -1.0))
        self.u1 = lp.GridFunction(self.sign / (1.0 + t * t))
        self.v1 = lp.GridFunction(self.sign / (1.0 + t * np.sin(t)))
        ctx = lp.LpContext(p=1.5, M=self.M)
        zero = lp.GridFunction.zeros(self.M)
        self.cfg = lp.SolveConfig(
            ctx=ctx,
            schedule=lp.default_schedule(1.0),
            tol=KERNEL_TOL,
            max_iter=KERNEL_MAX_ITER,
            target=lp.ProductPoint(zero, zero),
        )

    def run_round(self):
        lp = self.lp
        u, v, trace = lp.solve_hammerstein(self.pair, self.u1, self.v1, self.cfg)
        summary = lp.summarize(trace)
        return (u, v, trace, summary), [summary["nfe"]]

    def tols(self):
        return [KERNEL_TOL]

    def references(self):
        return [reference.hammerstein(self.kernel, self.u1.values, self.v1.values, KERNEL_TOL)]

    def round_columns(self, out):
        return [_trace_columns(out[2])]

    def check_properties(self, out, cols):
        errors = []
        norm = np.asarray(cols[0]["iterate_norm"])
        if not (np.all(np.diff(norm) <= 0.0) and norm[-1] < 1e-4 * norm[0]):
            errors.append(f"{self.name}: the iterate norm does not fall toward the solution 0")
        if not out[3]["converged"]:
            errors.append(f"{self.name}: the solve did not converge")
        return errors


WORKLOADS = {w.name: w for w in (Ex1Ladder, Ex1FineGrid, HammersteinKernel)}

