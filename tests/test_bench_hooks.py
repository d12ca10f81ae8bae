"""The benchmark's layer tracer still finds every name it patches.

``perfbench/tracer.py`` wraps lpmono's public functions where their callers
look them up; a refactor that moves or renames one breaks the traced
benchmark run.  This loads the tracer by path and drives one CLI solve and
one Hammerstein solve through it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lpmono
import lpmono.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_solves():
    tracer = load_tracer().Tracer()
    tracer.install(lpmono)
    try:
        rec = lpmono.cli.execute(lpmono.cli.example_config(1, tol=1e-3))
        ctx = lpmono.LpContext(p=1.5, M=100)
        cfg = lpmono.SolveConfig(ctx=ctx, schedule=lpmono.default_schedule(1.0), max_iter=5)
        u1 = lpmono.GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
        v1 = lpmono.GridFunction.from_callable(lambda t: np.exp(-t), ctx.M)
        *_, trace = lpmono.solve_hammerstein(lpmono.hammerstein_example(), u1, v1, cfg)
    finally:
        tracer.uninstall()
    assert tracer.acc["solver.calls"] == 2
    assert trace.nfe == 5
    assert tracer.acc["apply.calls"] == rec.trace.nfe + 2 * trace.nfe
    # one wrap per new iterate component plus one per operator result
    assert tracer.acc["alloc.calls"] <= 2 * rec.trace.nfe + 4 * trace.nfe


def test_ladder_is_one_solve(capsys):
    tracer = load_tracer().Tracer()
    tracer.install(lpmono)  # patches cli.execute_many too, so it must still exist
    try:
        code = lpmono.cli.main(["run-example", "1", "--ladder", "--ladder-min-tol", "1e-9"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    assert tracer.acc["solver.calls"] == 1
    # 509 steps are four chunks of the schedule (64, 128, 256, 61): four alpha and four theta calls
    assert tracer.acc["schedule.calls"] == 8


@pytest.mark.parametrize("solver, operator, tol", [
    ("min", "norm-subgrad", 1e-2),
    ("hilbert", "mult", 1e-3),
])
def test_min_and_hilbert_runs_are_counted(solver, operator, tol):
    # the CLI reaches both through lpmono.cli.solve_zero, the name the tracer wraps
    tracer = load_tracer().Tracer()
    tracer.install(lpmono)
    try:
        rec = lpmono.cli.execute(lpmono.cli.RunConfig(solver, operator, tol=tol))
    finally:
        tracer.uninstall()
    assert rec.summary["converged"]
    assert tracer.acc["solver.calls"] == 1
    assert tracer.acc["apply.calls"] == rec.trace.nfe
