"""Export formats: CSV/JSON/log-log structure, lossless float round-trips,
config-driven reproducibility, and the sha256 of three runs' exports.  The
pins hold the engine's carried dual values: the iterate norm is J^{-1}'s
norm of the step's dual vector y_{n+1}, and phi pairs the target with
y_{n+1} as J x_{n+1} (see tests/test_golden.py).  They were re-recorded when
each duality map came to take its norm from |y|^(r-1) |y|, one power per
map: every export's NFE and row count stayed."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import lpmono.schedule
from lpmono import export_csv, export_json, export_loglog
from lpmono.cli import RunConfig, example_config, execute
from lpmono.io import CSV_HEADER, RunRecord
from lpmono.solver import IterationTrace


@pytest.fixture(scope="module")
def record():
    # a short converged run of the first bundled example
    return execute(example_config(1, tol=1e-3))


@pytest.fixture(scope="module")
def hammerstein_record():
    return execute(example_config(3, tol=1e-3))


def parse_csv(path):
    lines = path.read_text().splitlines()
    header, rows, footer = lines[0], [], []
    for line in lines[1:]:
        (footer if line.startswith("#") else rows).append(line)
    return header, [line.split(",") for line in rows], footer


class TestCsvExport:
    def test_structure(self, record, tmp_path):
        path = tmp_path / "run.csv"
        export_csv(record, path)
        header, rows, footer = parse_csv(path)
        assert header == CSV_HEADER
        assert len(rows) == record.trace.nfe
        assert len(footer) >= 4
        assert any("nfe" in line for line in footer)

    def test_values_round_trip_exactly(self, record, tmp_path):
        path = tmp_path / "run.csv"
        export_csv(record, path)
        _, rows, _ = parse_csv(path)
        for fields, row in zip(rows, record.trace.rows):
            assert int(fields[0]) == row.n
            assert float(fields[1]) == row.residual
            assert fields[2] == ""  # no dual residual for a scalar solve
            assert float(fields[3]) == row.iterate_norm
            assert float(fields[4]) == row.phi_to_target
            assert float(fields[5]) == row.elapsed
            assert fields[6] == ""  # no feasibility column outside a VI solve

    def test_dual_residual_column_for_hammerstein(self, hammerstein_record, tmp_path):
        path = tmp_path / "ham.csv"
        export_csv(hammerstein_record, path)
        _, rows, _ = parse_csv(path)
        for fields, row in zip(rows, hammerstein_record.trace.rows):
            assert float(fields[2]) == row.residual_dual

    def test_feasibility_column_for_vi(self, tmp_path):
        rec = execute(RunConfig("vi", "mult", box=(-2.0, 2.0), tol=1e-3))
        path = tmp_path / "vi.csv"
        export_csv(rec, path)
        _, rows, _ = parse_csv(path)
        assert len(rows) == rec.trace.nfe
        for fields, row in zip(rows, rec.trace.rows):
            assert row.feasibility_violation is not None
            assert float(fields[6]) == row.feasibility_violation

    def test_phi_blank_without_target(self, tmp_path):
        rec = execute(RunConfig(solver="zero", operator="mult", tol=1e-3))
        path = tmp_path / "no_target.csv"
        export_csv(rec, path)
        _, rows, _ = parse_csv(path)
        assert all(fields[4] == "" for fields in rows)

    def test_write_error_carries_path(self, record, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError) as err:
            export_csv(record, missing)
        assert "x.csv" in str(err.value)


class TestLoglogExport:
    def test_positive_pairs_written(self, record, tmp_path):
        path = tmp_path / "run.dat"
        dropped = export_loglog(record, path)
        assert dropped == 0
        lines = path.read_text().splitlines()
        assert len(lines) == record.trace.nfe
        n, r = lines[-1].split()
        assert int(n) == record.trace.final.n
        assert float(r) == record.trace.final.residual
        assert float(r) < 1e-3  # stopping criterion reached

    def test_streams_from_the_residual_column(self, tmp_path):
        # (n, r) tuples built from the column's list peaked near 15x its bytes
        residual = np.linspace(1.0, 0.0, 10**5)
        trace = IterationTrace(dict.fromkeys(("residual", "iterate_norm", "elapsed"), residual))
        path = tmp_path / "long.dat"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dropped = export_loglog(RunRecord({}, trace, {}), path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dropped == 1
        assert peak < residual.nbytes
        lines = path.read_text().splitlines()
        n, r = lines[-1].split()
        assert lines[0] == "2 1" and (int(n), float(r)) == (10**5, residual[-2])

    def test_all_zero_residuals_error_not_empty_file(self, tmp_path):
        rec = execute(RunConfig(solver="zero", operator="mult", init="zero"))
        path = tmp_path / "empty.dat"
        with pytest.raises(ValueError, match="positive"):
            export_loglog(rec, path)
        assert not path.exists()


class TestJsonExport:
    def test_document_shape(self, record, tmp_path):
        path = tmp_path / "run.json"
        export_json(record, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "config", "summary", "trace"}
        assert len(doc["trace"]) == record.trace.nfe
        first = doc["trace"][0]
        assert isinstance(first["n"], int)
        assert isinstance(first["residual"], float)
        assert doc["summary"]["nfe"] == record.trace.nfe
        # schedule knobs ride along for audits
        assert doc["config"]["schedule"]["n0"] == 16
        assert doc["config"]["schedule"]["gamma"] == 1.0

    def test_plain_parser_reads_it(self, record, tmp_path):
        path = tmp_path / "run.json"
        export_json(record, path)
        with open(path) as fh:
            json.load(fh)

    def test_config_round_trip_reproduces_run(self, record, tmp_path):
        path = tmp_path / "run.json"
        export_json(record, path)
        doc = json.loads(path.read_text())
        rerun = execute(doc["config"])
        assert rerun.summary["nfe"] == record.summary["nfe"]
        assert rerun.summary["final_residual"] == record.summary["final_residual"]
        assert rerun.summary["final_iterate_norm"] == record.summary["final_iterate_norm"]

    def test_summary_matches_final_row(self, record):
        final = record.trace.final
        assert record.summary["final_residual"] == final.residual
        assert record.summary["final_iterate_norm"] == final.iterate_norm
        assert record.summary["nfe"] == record.trace.nfe


# Every export byte except the wall clock: the CSV's elapsed_s column and
# footer line, and the JSON's per-row "elapsed" and summary "elapsed_s".
EXPORT_RUNS = {
    "example-3": lambda: execute(example_config(3, tol=1e-6)),  # two residuals and phi
    "vi": lambda: execute(RunConfig("vi", "mult", box=(-2.0, 2.0), tol=1e-6)),  # feasibility
    "example-1": lambda: execute(example_config(1, tol=1e-9)),
}

EXPORT_SHA256 = {
    ("example-1", "csv"): "f799697ff18f8047d117e3e413bc7ab374602b8d65f3444051e7ef900f796e8c",
    ("example-1", "json"): "c7ca4952b8f5c1f4966cbe3468c2652ba614e9e9244274e14e72c445f26c596a",
    ("example-1", "loglog"): "c9e8398f1f1c4a8135b110e5123009b669d14300225544525d8995c572d07fe4",
    ("example-3", "csv"): "afa6c5c7522416deb6a4c0539800399b336088b8af0fb80afb8ed1edee1938a4",
    ("example-3", "json"): "3f5cd0208f84119833f8a664b8249a43a69fb7f19b72c7289472e2893da6ea14",
    ("example-3", "loglog"): "c28810ca78a696ce0e674d2d6d0dc620209f49e10bbc47f84c28cd7071effb75",
    ("vi", "csv"): "f97581cc8af98b2dbf2c761093bb1b3f7e2019e3d70e495e7fc19ed117b84af8",
    ("vi", "json"): "4d55bbc792f0c35de3ab4e17b87b6027437eb8c480b3b08e8c2c376e56181850",
    ("vi", "loglog"): "33f5fd563a180ea9b283b7c8bc1c8ad9474d951eda82c187390f985377677e21",
}

def _untimed(fmt, text):
    lines = text.splitlines(keepends=True)
    if fmt == "csv":
        return "".join(
            line if line.startswith("#") else ",".join(line.split(",")[:5] + line.split(",")[6:])
            for line in lines
            if not line.startswith("# elapsed_s = ")
        )
    if fmt == "json":
        wall = ('"elapsed":', '"elapsed_s":')
        return "".join(line for line in lines if not line.lstrip().startswith(wall))
    return text


@pytest.fixture(scope="module")
def export_records():
    return {name: run() for name, run in EXPORT_RUNS.items()}


@pytest.mark.parametrize("fmt", ["csv", "json", "loglog"])
@pytest.mark.parametrize("name", sorted(EXPORT_RUNS))
def test_export_bytes(export_records, name, fmt, tmp_path):
    path = tmp_path / f"run.{fmt}"
    export = {"csv": export_csv, "json": export_json, "loglog": export_loglog}[fmt]
    export(export_records[name], path)
    text = _untimed(fmt, path.read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[name, fmt]


def test_record_retains_few_bytes_per_step():
    # example 1 to 1e-12 takes 5482 steps; its columns are 4 float64 values a step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = execute(example_config(1, tol=1e-12))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.trace.nfe == 5482
    assert retained / rec.trace.nfe <= 48


def test_schedule_chunks_stream_from_their_arrays():
    # at the default 4096-step chunk the step source reads alpha and theta
    # from their arrays; a chunk held as Python float lists peaks near 120 B/step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = execute(example_config(1, tol=1e-12))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rec.trace.nfe == 5482
    assert peak / rec.trace.nfe <= 90


def test_trace_peaks_little_above_its_columns(monkeypatch):
    # 5000 unconverged steps of example 2 keep 4 columns of 32 B/step; copying
    # them out of one buffer that is still held would peak at twice that.
    # Short schedule chunks keep the chunk's alpha and theta arrays and their
    # temporaries out of the figure (4096-step chunks lift it to about 49.5 B/step).
    monkeypatch.setattr(lpmono.schedule, "_STEP_CHUNK", 256)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = execute(example_config(2, tol=1e-9, max_iter=5000))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rec.trace.nfe == 5000 and not rec.trace.converged
    assert peak / rec.trace.nfe <= 48
