"""Each solver's step makes a fixed number of numpy calls.

A step's cost at small M is mostly per-call overhead, and one extra nodal
pass costs about a µs of a 20-30 µs step: too little to show in timings,
but exact as a count.  A stand-in for ``np`` in the engine modules counts
every numpy call by name (ufunc methods as ``add.reduce``); the per-step
count is the difference between a 200-step and a 100-step run, divided
by 100, so per-solve set-up cancels.  A change that lowers a count edits
the pinned figure here.  Each duality map (J, and J^{-1} in the step) makes
one ``power`` call: its norm's |y|^r is |y|^(r-1) times |y|.
"""

import functools
import types
from collections import Counter

import numpy as np
import pytest

import lpmono.duality
import lpmono.grid
import lpmono.operators
import lpmono.solver
from lpmono import (
    GridFunction,
    HammersteinPair,
    LpContext,
    ProductPoint,
    SolveConfig,
    default_schedule,
    hammerstein_kernel_op,
    mult_op,
    solve_hammerstein,
)
from lpmono.cli import RunConfig, example_config, execute

ENGINE_MODULES = (lpmono.solver, lpmono.duality, lpmono.grid, lpmono.operators)
UNSTOPPED = dict(tol=1e-300)  # no run below stops on its residual


class CountingNumpy(types.ModuleType):
    """numpy, with each call of a function, class or ufunc method counted by name."""

    def __init__(self, counts: Counter):
        super().__init__("numpy")
        self.counts = counts

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return CountingUfunc(attr, name, self.counts)
        return self.counted(attr, name, self.counts) if callable(attr) else attr

    @staticmethod
    def counted(fn, name: str, counts: Counter):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call


class CountingUfunc:
    def __init__(self, ufunc, name: str, counts: Counter):
        self.ufunc, self.name, self.counts = ufunc, name, counts

    def __call__(self, *args, **kwargs):
        self.counts[self.name] += 1
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, method):
        return CountingNumpy.counted(getattr(self.ufunc, method), f"{self.name}.{method}", self.counts)


def numpy_calls(monkeypatch, run, steps: int) -> Counter:
    counts = Counter()
    with monkeypatch.context() as m:
        for module in ENGINE_MODULES:
            m.setattr(module, "np", CountingNumpy(counts))
        run(steps)
    return counts


@functools.cache
def kernel_pair() -> HammersteinPair:
    t = np.linspace(0.0, 1.0, 101)
    return HammersteinPair(F=mult_op(), K=hammerstein_kernel_op(np.exp(-np.abs(t[:, None] - t))))


def kernel_hammerstein(k):
    u1 = GridFunction.from_callable(lambda s: 1.0 / (1.0 + s * s), 100)
    v1 = GridFunction.from_callable(lambda s: np.exp(-s), 100)
    zero = GridFunction.zeros(100)
    cfg = SolveConfig(LpContext(1.5, 100), default_schedule(1.0), max_iter=k,
                      target=ProductPoint(zero, zero), **UNSTOPPED)
    solve_hammerstein(kernel_pair(), u1, v1, cfg)


CASES = {
    "zero-example-1": lambda k: execute(example_config(1, max_iter=k, **UNSTOPPED)),
    "min-example-2": lambda k: execute(example_config(2, max_iter=k, **UNSTOPPED)),
    "min-duality": lambda k: execute(
        RunConfig("min", "norm-subgrad", subgrad_variant="duality", max_iter=k, **UNSTOPPED)),
    "hammerstein-example-3": lambda k: execute(example_config(3, max_iter=k, **UNSTOPPED)),
    "hilbert": lambda k: execute(RunConfig("hilbert", "mult", p=2.0, max_iter=k, **UNSTOPPED)),
    "vi-box": lambda k: execute(
        RunConfig("vi", "mult", box=(-2.0, 2.0), max_iter=k, **UNSTOPPED)),
    "jfixed-mult-as-T": lambda k: execute(RunConfig("jfixed", "mult-as-T", max_iter=k, **UNSTOPPED)),
    "hammerstein-kernel": kernel_hammerstein,
}

# (total, breakdown) of numpy calls per step.  An L_p component's step is the
# operator, 4 calls forming the dual vector y_{n+1}, 7 for J^{-1} (abs, one
# power |y|^(r-1), two multiplies making the weighted |y|^r, add.reduce for its
# norm; multiply and copysign for the map) and 5 for the residual
# ||x_{n+1} - x_n|| (subtract, abs, power, weight multiply, add.reduce).  Every
# duality map takes one power, so J adds one power and three multiplies.  No
# call evaluates J or ||x_{n+1}||: y_{n+1} is carried as J x_{n+1}, and
# ||x_{n+1}|| is J^{-1}'s norm of it.
PER_STEP = {
    "zero-example-1": (17, {
        "abs": 2, "add.reduce": 2, "copysign": 1, "multiply": 7, "power": 2, "subtract": 3}),
    # the subgradient kernel adds a norm and a division
    "min-example-2": (21, {
        "abs": 3, "add.reduce": 3, "copysign": 1, "divide": 1, "multiply": 7, "power": 3,
        "subtract": 3}),
    # the duality variant adds one J, which yields the norm, and a division; J's scratch
    # array is bound when the operator is built
    "min-duality": (24, {
        "abs": 3, "add.reduce": 3, "copysign": 2, "divide": 1, "multiply": 9, "power": 3,
        "subtract": 3}),
    # X x X*: twice the L_p step, plus the operator's coupling and the product norm
    "hammerstein-example-3": (36, {
        "abs": 4, "add": 1, "add.reduce": 4, "copysign": 2, "hypot": 1, "multiply": 13,
        "power": 4, "subtract": 7}),
    "hilbert": (17, {
        "abs": 2, "add.reduce": 2, "copysign": 1, "multiply": 7, "power": 2, "subtract": 3}),
    # the box selection's two gaps and the added selection
    "vi-box": (22, {
        "abs": 2, "add": 1, "add.reduce": 2, "copysign": 1, "maximum.reduce": 2, "multiply": 7,
        "power": 2, "subtract": 5}),
    # T = J - A evaluates J into its output and A into a scratch array bound when T is
    # built
    "jfixed-mult-as-T": (26, {
        "abs": 3, "add": 1, "add.reduce": 3, "copysign": 2, "multiply": 11, "power": 3,
        "subtract": 3}),
    "hammerstein-kernel": (37, {
        "abs": 4, "add": 1, "add.reduce": 4, "copysign": 2, "hypot": 1, "matmul": 1,
        "multiply": 13, "power": 4, "subtract": 7}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_calls_per_step(monkeypatch, case):
    run = CASES[case]
    run(1)  # fills the grid's cached nodes and weights
    short, long = (numpy_calls(monkeypatch, run, k) for k in (100, 200))
    per_step = {k: (long[k] - short[k]) / 100 for k in long | short if long[k] != short[k]}
    total, breakdown = PER_STEP[case]
    assert sum(breakdown.values()) == total
    assert per_step == breakdown
