"""Export formats: CSV/JSON/log-log structure, lossless float round-trips,
and config-driven reproducibility."""

import json

import pytest

from lpmono import export_csv, export_json, export_loglog, read_json
from lpmono.cli import example_config, execute, make_config
from lpmono.io import CSV_HEADER


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
        rec = execute(make_config("vi", "mult", box=(-2.0, 2.0), tol=1e-3))
        path = tmp_path / "vi.csv"
        export_csv(rec, path)
        _, rows, _ = parse_csv(path)
        assert len(rows) == rec.trace.nfe
        for fields, row in zip(rows, rec.trace.rows):
            assert row.feasibility_violation is not None
            assert float(fields[6]) == row.feasibility_violation

    def test_phi_blank_without_target(self, tmp_path):
        rec = execute(make_config(solver="zero", operator="mult", tol=1e-3))
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

    def test_all_zero_residuals_error_not_empty_file(self, tmp_path):
        rec = execute(make_config(solver="zero", operator="mult", init="zero"))
        path = tmp_path / "empty.dat"
        with pytest.raises(ValueError, match="positive"):
            export_loglog(rec, path)
        assert not path.exists()


class TestJsonExport:
    def test_document_shape(self, record, tmp_path):
        path = tmp_path / "run.json"
        export_json(record, path)
        doc = read_json(path)
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
        doc = read_json(path)
        rerun = execute(doc["config"])
        assert rerun.summary["nfe"] == record.summary["nfe"]
        assert rerun.summary["final_residual"] == record.summary["final_residual"]
        assert rerun.summary["final_iterate_norm"] == record.summary["final_iterate_norm"]

    def test_summary_matches_final_row(self, record):
        final = record.trace.final
        assert record.summary["final_residual"] == final.residual
        assert record.summary["final_iterate_norm"] == final.iterate_norm
        assert record.summary["nfe"] == record.trace.nfe
