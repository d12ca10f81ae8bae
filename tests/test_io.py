"""Export formats: CSV/JSON/log-log structure, lossless float round-trips,
config-driven reproducibility, and the sha256 of three runs' exports.  The
pins hold the engine's carried dual values: the iterate norm is J^{-1}'s
norm of the step's dual vector y_{n+1}, and phi pairs the target with
y_{n+1} as J x_{n+1} (see tests/test_golden.py)."""

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
    ("example-1", "csv"): "6318bfb493e6039ff84c0d7bf01193898acd5235118168b4cde20fee47f2bc39",
    ("example-1", "json"): "2486ca27b542754b2f14e9b1607ae40dfcf062909f5beb7e0db9d8a7dc4ef055",
    ("example-1", "loglog"): "517b39e9389403e1c0a7d71314c95384b13c44f0a917e558c607816a61aee8cd",
    ("example-3", "csv"): "1c8d39e3032949913f3480705d6c4d66f444b7d8f123cd4b10ac5bb134d26248",
    ("example-3", "json"): "d3412a45077a10c6f6e865d36e3af453804bef83eb773b0d4c4241e078e95534",
    ("example-3", "loglog"): "5928c8c53005f024adbac5beda03d8cb30f13b6492ddc8a7f1cc9e4a54a70b7b",
    ("vi", "csv"): "db553c2dcec5402cff7655a251892d4085c2678d832ab8c62fa35f74a3343a76",
    ("vi", "json"): "a819504e8553e2adb72822c850fdddf27090408f8e76fc60ad20757351abb6dc",
    ("vi", "loglog"): "0aeef3f3f6798c5c0ddd7c2fa11225c88800a69e08a15eff5cd4219bf751230b",
}

# the same exports on numpy's libm power loop (conftest.power_loop)
EXPORT_SHA256_LIBM = {
    ("example-1", "csv"): "e0a40fa882c9cff48eb548d778e568530e6e2638081689b806eef2b4850679b2",
    ("example-1", "json"): "aaf10da88f0aa4a25c1dc5212075e5379e2e4a3b49dcd17a777714ffe47ba181",
    ("example-1", "loglog"): "16bcbeb4207e2f4cfce8f4544c10862c0c500f478109f4559cf8b5e004f4a917",
    ("example-3", "csv"): "b3ec8846dad1c2b1cf51765c23f62c6d74e72b855f31abf9ec4c643b4839129f",
    ("example-3", "json"): "025dd8a8ab92ae2568e3152fc5be3040f10d3aa03ba906f68a03da518bf7b664",
    ("example-3", "loglog"): "ed3e8606b00b2e96be498a9368587c579d9bf57e49e2d381ec44d083d0f127c0",
    ("vi", "csv"): "8656d2f5ded8bb6fba5781b28e66f3a9951fe02b902d2f8ea926b72f06d6a14c",
    ("vi", "json"): "a988d153f75969ddb2f146d88490b8eaf3e736d6256ee7b7d0486329934cee54",
    ("vi", "loglog"): "9cbf9daaf362d9949ed7e66549d3e27de16d5a85fa06f8ed6aa201d2a6b50e8e",
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
