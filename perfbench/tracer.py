"""Per-layer spans around lpmono's public functions, installed from outside.

Each wrapper replaces a function where its caller looks it up (a module
global, a class attribute, or a schedule field), times the call and counts
it.  Calls into duality, grid, operators and schedule are counted only
while a solve is open, so their per-step counts are exact; cli and io
calls are counted everywhere.

Solves that run in forked pool workers record into the worker's copy of
the tracer; the ``execute`` wrapper there attaches what it recorded to the
returned record, and the ``execute_many`` wrapper in the parent merges it.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

_ATTACHED = "_perfbench_layers"


def deep_size(obj) -> int:
    """Bytes held by an object graph, each object counted once."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or o is None:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)  # includes the data of an ndarray that owns it
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, (str, bytes, int, float, bool, np.ndarray)):
            continue
        else:
            if hasattr(o, "__dict__"):
                stack.append(vars(o))
            for slot in getattr(type(o), "__slots__", ()):
                stack.append(getattr(o, slot, None))
    return total


class Tracer:
    """Installs the wrappers and accumulates per-layer calls and seconds.

    ``acc`` maps ``<layer>.calls`` and ``<layer>.s`` to totals, plus
    ``solver.self_s`` (solve time outside wrapped calls), ``cli.prepare_s``
    and ``io.bytes``.  ``solves`` holds the duration of every solve and
    ``traces`` the trace each returned, for sizing after the round.
    """

    def __init__(self) -> None:
        self.acc: defaultdict[str, float] = defaultdict(float)
        self.solves: list[float] = []
        self.traces: dict[int, object] = {}
        self._stack: list[float] = []  # time spent in child spans, per open span
        self._in_solve = 0
        self._execute_t0: float | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def reset(self) -> None:
        self.acc.clear()
        self.solves.clear()
        self.traces.clear()

    # -- wrappers --------------------------------------------------------

    def _layer(self, name: str, fn, everywhere: bool = False):
        acc, stack = self.acc, self._stack
        calls, secs = f"{name}.calls", f"{name}.s"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1] += d
                if everywhere or self._in_solve:
                    acc[calls] += 1
                    acc[secs] += d

        return wrapper

    def _solver(self, fn):
        acc, stack = self.acc, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if self._execute_t0 is not None:
                acc["cli.prepare_s"] += t0 - self._execute_t0
                self._execute_t0 = None
            stack.append(0.0)
            self._in_solve += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                self._in_solve -= 1
                if stack:
                    stack[-1] += d
                acc["solver.calls"] += 1
                acc["solver.s"] += d
                acc["solver.self_s"] += d - child
                self.solves.append(d)
            trace = result[-1]
            self.traces[id(trace)] = trace
            return result

        return wrapper

    def _execute(self, fn):
        # keeps the name lpmono.cli.execute, so the pool pickles it by reference
        @functools.wraps(fn)
        def wrapper(config):
            if os.getpid() == self._pid:
                self._execute_t0 = perf_counter()
                try:
                    return fn(config)
                finally:
                    self._execute_t0 = None
            # a forked pool worker: hand what this call recorded back with the record
            snapshot, n_solves = dict(self.acc), len(self.solves)
            self._execute_t0 = perf_counter()
            try:
                rec = fn(config)
            finally:
                self._execute_t0 = None
            delta = {k: v - snapshot.get(k, 0.0) for k, v in self.acc.items()}
            setattr(rec, _ATTACHED, (delta, self.solves[n_solves:]))
            del self.solves[n_solves:]
            self.traces.clear()
            return rec

        return wrapper

    def _execute_many(self, fn):
        def wrapper(configs):
            records = fn(configs)
            for rec in records:
                attached = rec.__dict__.pop(_ATTACHED, None)
                if attached is not None:
                    delta, solves = attached
                    for k, v in delta.items():
                        self.acc[k] += v
                    self.solves.extend(solves)
                self.traces[id(rec.trace)] = rec.trace
            return records

        return wrapper

    def _export(self, fn):
        timed = self._layer("io", fn, everywhere=True)

        def wrapper(rec, path, *args, **kwargs):
            out = timed(rec, path, *args, **kwargs)
            self.acc["io.bytes"] += os.path.getsize(path)
            return out

        return wrapper

    def _schedule_factory(self, fn):
        def wrapper(*args, **kwargs):
            s = fn(*args, **kwargs)
            return dataclasses.replace(
                s, alpha=self._layer("schedule", s.alpha), theta=self._layer("schedule", s.theta)
            )

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, lp) -> None:
        """Wrap every public function the workloads reach, where it is looked up."""
        layer = self._layer
        for owner in (lp.solver, lp.duality):
            self._patch(owner, "lp_norm", lambda f: layer("norm", f))
            self._patch(owner, "duality_map", lambda f: layer("J", f))
            self._patch(owner, "duality_map_inverse", lambda f: layer("Jinv", f))
        # the phi column: phi(target, x) in L_p, the product duality map on X x X*
        self._patch(lp.solver, "lyapunov_phi", lambda f: layer("phi", f))
        self._patch(lp.solver, "product_duality", lambda f: layer("phi", f))
        self._patch(lp.grid.GridFunction, "__init__", lambda f: layer("alloc", f))
        self._patch(lp.operators.MonotoneOp, "__call__", lambda f: layer("apply", f))
        self._patch(lp.cli, "solve_zero", self._solver)
        self._patch(lp, "solve_hammerstein", self._solver)
        self._patch(lp.cli, "default_schedule", self._schedule_factory)
        self._patch(lp, "default_schedule", self._schedule_factory)
        self._patch(lp.cli, "execute", self._execute)
        self._patch(lp.cli, "execute_many", self._execute_many)
        self._patch(lp.cli, "export_csv", self._export)
        self._patch(lp.cli, "summarize", lambda f: layer("io", f, everywhere=True))
        self._patch(lp, "summarize", lambda f: layer("io", f, everywhere=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
