"""lpmono benchmark: one workload, a closed loop of whole rounds, one JSON line.

    python3 perfbench/run.py --workload ex1-ladder --seed 1 --seconds 20 --trace 0

One caller runs the workload's round again and again, each round starting
when the previous one returned, for ``--seconds`` seconds after a warm-up
round.  Every round's outputs are checked; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (means over the
rounds); with ``--trace 1`` the first half of the time runs untraced, the
second half with the layer wrappers of ``tracer.py``, and the metrics are
the per-layer ones.  Set-up time is measured in fresh interpreters started
by ``setup_probe.py``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer, deep_size

HERE = Path(__file__).resolve().parent
WARMUP_ROUNDS = 1
MIN_ROUNDS = 3
SETUP_PROBES = 7


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any waited-for child."""
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def setup_seconds(name: str, seed: int, tmp: Path) -> float:
    """Median wall time of fresh interpreters importing lpmono and building the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(tmp)], check=True
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Runs and checks rounds; keeps per-round wall, CPU and step counts."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.steps: list[int] = []
        self.nfes: list[list[int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(self, record: bool = True) -> float | None:
        """One round; returns its wall time, or None when it raised."""
        c0 = cpu_seconds()
        t0 = perf_counter()
        try:
            out, nfes = self.wl.run_round()
        except Exception:  # a failed operation is counted, not fatal
            if record:
                self.attempted += self.wl.runs
                self.failed += self.wl.runs
            print(f"perfbench: {self.wl.name}: round failed", file=sys.stderr)
            traceback.print_exc()
            return None
        wall = perf_counter() - t0
        cpu = cpu_seconds() - c0
        self.errors += self.wl.check_round(out)
        if record:
            self.attempted += self.wl.runs
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.steps.append(sum(nfes))
            self.nfes.append(nfes)
        return wall

    def run_for(self, seconds: float, after_round=None) -> None:
        """Rounds for ``seconds`` (at least MIN_ROUNDS); calls after_round(wall) on success."""
        start = perf_counter()
        n = 0
        while n < MIN_ROUNDS or perf_counter() - start < seconds:
            n += 1
            wall = self.round()
            if wall is not None and after_round is not None:
                after_round(wall)


def end_to_end(loop: Loop, setup_s: float, rss_mb: float) -> dict:
    # Means over the whole run, not medians of the rounds: the host switches
    # between a fast and a slow speed every few tens of seconds, and the
    # median of such a two-speed mix jumps to whichever speed held more
    # rounds, where the mean moves only with the share of time at each.
    return {
        "wall_s": {"value": statistics.fmean(loop.walls), "unit": "s"},
        "steps_per_s": {"value": sum(loop.steps) / sum(loop.walls), "unit": "1/s"},
        "cpu_s": {"value": statistics.fmean(loop.cpus), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced_rounds(loop: Loop, tracer: Tracer, seconds: float) -> dict:
    """Runs traced rounds; returns totals per layer over them."""
    tot = {"rounds": 0, "wall": [], "fanout_s": 0.0, "trace_bytes": 0}

    def after_round(wall: float) -> None:
        solves = tracer.solves
        workers = min(len(solves), os.cpu_count() or 1) or 1
        tot["rounds"] += 1
        tot["wall"].append(wall)
        # the round's wall beyond the shortest schedule of its solves on the workers
        tot["fanout_s"] += wall - max(max(solves, default=0.0), sum(solves) / workers)
        tot["trace_bytes"] += sum(deep_size(t) for t in tracer.traces.values())
        solves.clear()
        tracer.traces.clear()

    loop.run_for(seconds, after_round)
    return tot


def per_layer(wl, loop: Loop, tracer: Tracer, tot: dict, untraced_wall: float, build_s: float) -> dict:
    acc = tracer.acc
    rounds = tot["rounds"]
    steps = sum(loop.steps[-rounds:])
    nfes = [n for r in loop.nfes[-rounds:] for n in r]
    useful = sum(wl.useful_steps(r) for r in loop.nfes[-rounds:])

    def per_step(layer):
        return acc[f"{layer}.calls"] / steps

    def us_per_call(layer):
        calls = acc[f"{layer}.calls"]
        return 1e6 * acc[f"{layer}.s"] / calls if calls else 0.0

    m = {
        "solver.steps": (steps / rounds, "count"),
        "solver.step_us": (1e6 * acc["solver.s"] / steps, "us"),
        "solver.self_us_per_step": (1e6 * acc["solver.self_s"] / steps, "us"),
        "solver.trace_bytes_per_step": (tot["trace_bytes"] / steps, "B"),
        "grid.alloc_per_step": (per_step("alloc"), "count"),
        "grid.alloc_us": (us_per_call("alloc"), "us"),
        "grid.alloc_mb_per_step": (per_step("alloc") * 8 * (wl.M + 1) / 2**20, "MB"),
        "grid.norm_per_step": (per_step("norm"), "count"),
        "grid.norm_us": (us_per_call("norm"), "us"),
        "duality.J_per_step": (per_step("J"), "count"),
        "duality.Jinv_per_step": (per_step("Jinv"), "count"),
        "duality.phi_per_step": (per_step("phi"), "count"),
        "duality.J_us": (us_per_call("J"), "us"),
        "duality.Jinv_us": (us_per_call("Jinv"), "us"),
        "duality.phi_us": (us_per_call("phi"), "us"),
        "operators.apply_per_step": (per_step("apply"), "count"),
        "operators.apply_us": (us_per_call("apply"), "us"),
        "schedule.eval_per_step": (per_step("schedule"), "count"),
        "schedule.eval_us": (us_per_call("schedule"), "us"),
        "cli.runs": (acc["solver.calls"] / rounds, "count"),
        "cli.useful_step_ratio": (useful / sum(nfes), "ratio"),
        "cli.fanout_s": (tot["fanout_s"] / rounds, "s"),
        # a workload that passes prebuilt objects prepares them in build()
        "cli.prepare_s": (acc["cli.prepare_s"] / rounds if acc["cli.prepare_s"] else build_s, "s"),
        "io.export_s": (acc["io.s"] / rounds, "s"),
        "io.bytes_written": (acc["io.bytes"] / rounds, "B"),
        "trace.overhead_s": (statistics.fmean(tot["wall"]) - untraced_wall, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(lp, name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    wl = workloads.WORKLOADS[name](lp, seed, tmp)
    t0 = perf_counter()
    wl.build()
    build_s = perf_counter() - t0
    loop = Loop(wl)
    for _ in range(WARMUP_ROUNDS):
        loop.round(record=False)
    if loop.errors or wl.first is None:
        # wrong outputs (or none): timing them would show nothing
        return report(loop.errors + wl.check_reference(), wl.runs, 0, {})

    if not trace:
        loop.run_for(seconds)
        rss = peak_rss_mb()
    else:
        loop.run_for(seconds / 2)
        if not loop.walls:
            return report(loop.errors + ["every round failed"], loop.attempted, loop.failed, {})
        untraced_wall = statistics.fmean(loop.walls)
        tracer = Tracer()
        tracer.install(lp)
        try:
            wl.build()  # again, so the objects it builds are the wrapped ones
            loop.round(record=False)
            tracer.reset()
            tot = traced_rounds(loop, tracer, seconds / 2)
        finally:
            tracer.uninstall()

    errors = loop.errors + wl.check_reference()
    if not errors:
        errors += wl.check_once()
    if loop.attempted == loop.failed or (trace and not tot["rounds"]):
        return report(errors + ["every round failed"], loop.attempted, loop.failed, {})
    if trace:
        metrics = per_layer(wl, loop, tracer, tot, untraced_wall, build_s)
    else:
        metrics = end_to_end(loop, setup_seconds(name, seed, tmp), rss)
    return report(errors, loop.attempted, loop.failed, metrics)


def report(errors: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for e in dict.fromkeys(errors):
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lp = workloads.import_lpmono()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import lpmono from this checkout: {exc}", file=sys.stderr)
        return 2
    scratch = workloads.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(lp, args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
