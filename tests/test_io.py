"""Export formats: CSV/JSON/log-log structure, lossless float round-trips,
and config-driven reproducibility."""

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
    ("example-1", "csv"): "65332c319b32546dbcaa3459332dd5a9eba3c9555c278227a36d423c787bd4d5",
    ("example-1", "json"): "467897118bc19a48ca938551ec97f98d0b11a3c15b3f343f1476d8099354df2c",
    ("example-1", "loglog"): "03869b6c2d669c03e92d0b87fc7625616fe4799a2cde4149f49a0af14db1f4e1",
    ("example-3", "csv"): "6e3e8f25a14b9439a26edc34916e7d902b82cc119396c195c13b11095bdf2cc2",
    ("example-3", "json"): "4711f9107538321e690cef5de9e91a4112ce8a81416df855952b80171122e07c",
    ("example-3", "loglog"): "ecd5653be94ad5c90317f34d8488667fb98f8d2526b14f6ebbe2754c5c36ebc5",
    ("vi", "csv"): "2b8ce061df69da5b3e07dbcadaeb477ffa83b712a78811a9fc01aa4c968fb157",
    ("vi", "json"): "13aa55c01b8f496c135f64a121f6ccd6a306a13bf3b226bbc1c27a6b74dc69b2",
    ("vi", "loglog"): "ed65ae915565f54bd850610e367abf4f410dd0ecca2678f312c7d0ebd4e3c8aa",
}

# the same exports on numpy's libm power loop (conftest.power_loop)
EXPORT_SHA256_LIBM = {
    ("example-1", "csv"): "2a98a325e2a843ef52b505680044be068ae924af13eacdd3906526c692214783",
    ("example-1", "json"): "1c8054caf271b35d35ec6ae69ffe240344de057a2d999101a506f9e5cfa5bd3c",
    ("example-1", "loglog"): "d2bd8102018fe720b721278f1f0d28cedb3eae89fdecac45eca197de733d805c",
    ("example-3", "csv"): "3c79508d84c5949d4dbbf48139914c767a8aa106230d354b61f5169b42d65860",
    ("example-3", "json"): "ed5ef004f6206cc85427df3a3e0172e7201e1a7e91daf79c6c1887f4b9415e7b",
    ("example-3", "loglog"): "fb416d37399f67809fb4706b79c1444b02637ca1f19beac0150539fa6f2e029f",
    ("vi", "csv"): "7f6c2197165c335041a7f5879f2c3392c523ba04a03e0a6ac1adb7527fe923fc",
    ("vi", "json"): "849fabe25ac700fee244e71969e6b894eeab410be8c9e85ff4888e08d8d06be9",
    ("vi", "loglog"): "e06703a40cbddeb288e34d75b0bfaa54417d688a7f889ebfed00d4f63caf53d7",
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
def test_export_bytes(export_records, name, fmt, tmp_path, power_loop):
    path = tmp_path / f"run.{fmt}"
    export = {"csv": export_csv, "json": export_json, "loglog": export_loglog}[fmt]
    export(export_records[name], path)
    text = _untimed(fmt, path.read_text(encoding="utf-8"))
    pins = EXPORT_SHA256_LIBM if power_loop == "libm" else EXPORT_SHA256
    assert hashlib.sha256(text.encode()).hexdigest() == pins[name, fmt]


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
