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
    ("example-1", "csv"): "7b03e2dac9f25f9c5119d768688f5b114523ab7e354216a973ba77358ceabce6",
    ("example-1", "json"): "a7e218e53b4ce7e5ba68321f22f5f3b5ad739c36800cc3b6c512bf4aa6a95398",
    ("example-1", "loglog"): "b165f7b0f59dfa872fa89ceb5f139b3d02183895dc5cec1da3aae074d922bae5",
    ("example-3", "csv"): "374001bf32187035f76149de422d4f75cce7f00a6aca80b7137030f751e68e45",
    ("example-3", "json"): "34953b48fa29be1da3480c06511350a487b6edf72031048639ac1bd69c7e47ad",
    ("example-3", "loglog"): "8507694833caf682fe94ad9a5ecc1d642837ce852420da3d092ea4e574c8a402",
    ("vi", "csv"): "a6add52dc8559ee2918d59393224dab90625b8751fa33acf91f710921e64bcba",
    ("vi", "json"): "2fb17247edb4de00d806c05e7ab3e6f05c1fdd03d3adb524d176fa995ed15c8e",
    ("vi", "loglog"): "18b3dd1cdc268575a2f9f18fd1ef2ca02c8cee2aa64dd9938ea9701e17192b2d",
}

# the same exports on numpy's libm power loop (conftest.power_loop)
EXPORT_SHA256_LIBM = {
    ("example-1", "csv"): "abd6826d9584ece942a286367c479ab9c1708fd7fbbd206de326be210be0c495",
    ("example-1", "json"): "9428d505e55e32e8ab410bf223aa2cf57c279c55631ba640a7fd5da2bf28cf4e",
    ("example-1", "loglog"): "cd954c508e29f2bd4d3829ba977c473e0d2373a6a89c8a06bbeac8e8d8f548a7",
    ("example-3", "csv"): "0d63d93e4375e5b474d9b48234ea74c43f9593cf267c6f15f938f2d8d16db359",
    ("example-3", "json"): "bbafa7464b3e09cedd4ab56e33ed185aad48c74a1388b76be209bb87a5c7d07c",
    ("example-3", "loglog"): "5a952540c7b56070db5850a1f85e2708c932dab14873b6c07e599f217c490634",
    ("vi", "csv"): "f3c85b9c8027eed21774e1df34cc5da53aece01eedb7e73d83faee032333ded7",
    ("vi", "json"): "bf4f9df641b639a24503435886a53df006f8833dfc84765b9bcb0c739991ac33",
    ("vi", "loglog"): "f0acb1b279d9782dc5854b9f5404efeb7fe47dd8de2675ff3ce23ba2f2d36aab",
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
