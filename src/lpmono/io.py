"""Run persistence: CSV/JSON trace export and log-log plot data.

A :class:`RunRecord` bundles the reproducible configuration of a solve
(a plain JSON-able dict), its trace, and a summary copied from the final
trace row.  Floats are written with 17 significant digits so parsing the
files back recovers them exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count

import numpy as np

from .solver import IterationTrace, TraceRows

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
    if "residual_dual" in trace.columns:
        out["final_residual_dual"] = final.residual_dual
    return out


def export_csv(rec: RunRecord, path) -> None:
    """Write the trace as CSV with the summary in '#' footer lines.

    Columns: n, residual_p, residual_q, iterate_norm, phi_to_target,
    elapsed_s, feasibility_violation; residual_q, phi_to_target and
    feasibility_violation stay blank when the run does not define them.
    Each row is one ``%`` template, with a field for each column present,
    filled from the float64 columns as the rows stream out.
    """
    names = ("residual", "residual_dual", "iterate_norm", "phi_to_target", "elapsed",
             "feasibility_violation")
    cols = rec.trace.columns
    row = ",".join(["%d", *("%.17g" if k in cols else "" for k in names)]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(map(row.__mod__, zip(count(2), *(memoryview(cols[k]) for k in names if k in cols))))
        for key, value in rec.summary.items():
            fh.write(f"# {key} = {format(value, '.17g') if isinstance(value, float) else value}\n")


def export_loglog(rec: RunRecord, path) -> int:
    """Write (n, residual) pairs for log-log plotting; returns drop count.

    Rows with nonpositive residual cannot appear on a log scale and are
    dropped; writing nothing is an error rather than an empty file.  The
    pairs stream out of the residual column as they are written.
    """
    res = rec.trace.columns["residual"]
    dropped = rec.trace.nfe - np.count_nonzero(res > 0.0)
    if dropped == rec.trace.nfe:
        raise ValueError(
            f"no positive residuals to plot ({dropped} rows dropped); not writing {path}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines("%d %.17g\n" % (n, r) for n, r in zip(count(2), memoryview(res)) if r > 0.0)
    return dropped


def export_json(rec: RunRecord, path) -> None:
    """Write one JSON document: {schema, config, summary, trace}."""
    cols = rec.trace.columns
    names = [k for k in TraceRows._FIELDS if k in cols]
    steps = zip(count(2), *(cols[k].tolist() for k in names))
    doc = {
        "schema": 1,
        "config": rec.config,
        "summary": rec.summary,
        "trace": [dict(zip(("n", *names), step)) for step in steps],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
