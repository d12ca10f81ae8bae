"""Run the benchmark over several seeds, and compare two sets of runs.

    python3 perfbench/steady.py collect --out perfbench-a.jsonl --seeds 1-10 [--workload W ...]
    python3 perfbench/steady.py compare perfbench-a.jsonl [perfbench-b.jsonl]

``collect`` runs the command of BENCHMARK.json once per workload and seed
(untraced, ``run_seconds`` long) from the repository root and appends one
line per run: workload, seed and the run's result.  ``compare`` prints, per
workload and end-to-end metric, each set's median and spread (the distance
between the first and third quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and, with two sets, how
far the second median moved in the metric's worse direction.  Each line
ends in ``within`` or ``outside``: a spread is held to a third of the
metric's bound (set-up time's spread is shown but not held), a move to the
bound itself.  The exit code is 1 when any line is outside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(out: Path, workloads: list[str], seed_list: list[int]) -> None:
    for name in workloads:
        for seed in seed_list:
            cmd = SPEC["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "exit": proc.returncode, "result": result}) + "\n")
            print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)


def load(path: Path) -> dict:
    """workload -> {"runs": [...results], "values": metric -> [values]}."""
    sets = defaultdict(lambda: {"runs": [], "values": defaultdict(list)})
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        s = sets[rec["workload"]]
        s["runs"].append(rec)
        if rec["result"] is not None:
            for k, m in rec["result"]["metrics"].items():
                s["values"][k].append(m["value"])
    return sets


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(runs: list[dict]) -> str:
    shares = {
        (r["result"]["failed"], r["result"]["attempted"]) for r in runs if r["result"] is not None
    }
    return ", ".join(f"{f}/{a}" for f, a in sorted(shares)) or "no results"


def compare(a: dict, b: dict | None) -> bool:
    ok = True
    for name in sorted(a):
        sets = [a[name]] + ([b[name]] if b is not None and name in b else [])
        bad = [r for s in sets for r in s["runs"] if r["exit"] != 0 or not (r["result"] or {}).get("correct")]
        print(f"{name}: {len(sets[0]['runs'])} runs" + (f" vs {len(sets[1]['runs'])}" if len(sets) > 1 else "")
              + f"; failed/attempted {' | '.join(failed_share(s['runs']) for s in sets)}"
              + (f"; {len(bad)} runs incorrect or exited non-zero" if bad else ""))
        ok &= not bad
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            vals = [s["values"][key] for s in sets]
            if any(len(v) < 2 for v in vals):
                print(f"  {key}: too few values")
                ok = False
                continue
            cells = []
            for v in vals:
                sp = spread(v)
                held = key != "setup_s"
                inside = sp <= bound / 3 or not held
                ok &= inside
                cells.append(f"median {statistics.median(v):.6g} spread {sp:6.2%} "
                             f"{'within' if inside else 'outside'}" + ("" if held else " (not held)"))
            line = f"  {key:12s} " + " | ".join(cells)
            if len(vals) == 2:
                m0, m1 = statistics.median(vals[0]), statistics.median(vals[1])
                worse = (m1 - m0) / m0 if metric["better"] == "lower" else (m0 - m1) / m0
                inside = worse <= bound
                ok &= inside
                line += f" | worse by {worse:+.2%} of bound {bound:.0%} {'within' if inside else 'outside'}"
            print(line)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", type=Path, required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    p = sub.add_parser("compare")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        collect(args.out, args.workload or [w["name"] for w in SPEC["workloads"]], seeds(args.seeds))
        return 0
    return 0 if compare(load(args.first), load(args.second) if args.second else None) else 1


if __name__ == "__main__":
    sys.exit(main())
