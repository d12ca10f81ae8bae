"""Run persistence: CSV/JSON trace export and log-log plot data.

A :class:`RunRecord` bundles the reproducible configuration of a solve
(a plain JSON-able dict), its trace, and a summary copied from the final
trace row.  Floats are written with 17 significant digits so parsing the
files back recovers them exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .solver import IterationTrace

CSV_HEADER = "n,residual_p,residual_q,iterate_norm,phi_to_target,elapsed_s,feasibility_violation"


@dataclass
class RunRecord:
    """A completed solve: reproducible config, trace, and summary."""

    config: dict
    trace: IterationTrace
    summary: dict


def summarize(trace: IterationTrace) -> dict:
    """Summary dict mirroring the final trace row."""
    final = trace.final
    out = {
        "nfe": trace.nfe,
        "converged": trace.converged,
        "final_residual": final.residual,
        "final_iterate_norm": final.iterate_norm,
        "elapsed_s": final.elapsed,
    }
    if final.residual_dual is not None:
        out["final_residual_dual"] = final.residual_dual
    return out


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def export_csv(rec: RunRecord, path) -> None:
    """Write the trace as CSV with the summary in '#' footer lines.

    Columns: n, residual_p, residual_q, iterate_norm, phi_to_target,
    elapsed_s, feasibility_violation; residual_q, phi_to_target and
    feasibility_violation stay blank when the run does not define them.
    """
    lines = [CSV_HEADER]
    for row in rec.trace.rows:
        lines.append(
            ",".join(
                (
                    str(row.n),
                    _fmt(row.residual),
                    _fmt(row.residual_dual),
                    _fmt(row.iterate_norm),
                    _fmt(row.phi_to_target),
                    _fmt(row.elapsed),
                    _fmt(row.feasibility_violation),
                )
            )
        )
    for key, value in rec.summary.items():
        lines.append(f"# {key} = {value if not isinstance(value, float) else format(value, '.17g')}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_loglog(rec: RunRecord, path) -> int:
    """Write (n, residual) pairs for log-log plotting; returns drop count.

    Rows with nonpositive residual cannot appear on a log scale and are
    dropped; writing nothing is an error rather than an empty file.
    """
    kept = [(row.n, row.residual) for row in rec.trace.rows if row.residual > 0.0]
    dropped = len(rec.trace.rows) - len(kept)
    if not kept:
        raise ValueError(
            f"no positive residuals to plot ({dropped} rows dropped); not writing {path}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, r in kept:
            fh.write(f"{n} {format(r, '.17g')}\n")
    return dropped


def _row_dict(row) -> dict:
    out = {"n": row.n, "residual": row.residual, "iterate_norm": row.iterate_norm}
    if row.residual_dual is not None:
        out["residual_dual"] = row.residual_dual
    if row.phi_to_target is not None:
        out["phi_to_target"] = row.phi_to_target
    if row.feasibility_violation is not None:
        out["feasibility_violation"] = row.feasibility_violation
    out["elapsed"] = row.elapsed
    return out


def export_json(rec: RunRecord, path) -> None:
    """Write one JSON document: {schema, config, summary, trace}."""
    doc = {
        "schema": 1,
        "config": rec.config,
        "summary": rec.summary,
        "trace": [_row_dict(row) for row in rec.trace.rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path) -> dict:
    """Load a JSON export (for config round-trips and audits)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
