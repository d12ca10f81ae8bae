"""Harness: presets, config dispatch, example runs, ladders, output files,
exit codes, and end-to-end determinism."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from lpmono.cli import (
    EXAMPLE_LADDERS,
    example_config,
    execute,
    main,
    make_config,
    resolve_init,
    run_example,
    run_generic,
)


PRESETS = ["inv-quad", "exp", "quad", "cos-exp", "inv-tsin", "exp-neg", "zero"]


class TestPresets:
    def test_catalog_names(self):
        for name in PRESETS:
            assert resolve_init(name, 2).M == 2
        with pytest.raises(ValueError) as info:
            resolve_init("mystery", 2)
        assert str(sorted(PRESETS)) in str(info.value)

    def test_values_at_sample_points(self):
        # M = 2: the nodes are t = 0, 1/2, 1
        first = {name: resolve_init(name, 2).values[0] for name in PRESETS}
        last = {name: resolve_init(name, 2).values[-1] for name in PRESETS}
        assert first["inv-quad"] == 1.0
        assert last["inv-quad"] == 0.5
        assert last["exp"] == pytest.approx(math.e)
        assert last["quad"] == 2.0
        assert first["cos-exp"] == 1.0
        assert first["inv-tsin"] == 1.0
        assert last["exp-neg"] == pytest.approx(1.0 / math.e)
        assert np.all(resolve_init("zero", 2).values == 0.0)

    def test_resolve_const(self):
        f = resolve_init("const:2.5", 10)
        assert np.all(f.values == 2.5)

    def test_resolve_csv(self, tmp_path):
        path = tmp_path / "init.csv"
        np.savetxt(path, np.linspace(0, 1, 11), delimiter=",")
        f = resolve_init(f"csv:{path}", 10)
        assert f.values[-1] == 1.0
        bad = tmp_path / "short.csv"
        np.savetxt(bad, np.zeros(5), delimiter=",")
        with pytest.raises(ValueError, match="11"):
            resolve_init(f"csv:{bad}", 10)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown initial point"):
            resolve_init("mystery", 10)


class TestExampleRuns:
    def test_example_one_defaults(self):
        rec = execute(example_config(1))
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < 1e-6
        assert rec.summary["final_iterate_norm"] <= 0.05
        assert 12 <= rec.summary["nfe"] <= 1120

    def test_generic_zero_aliases_example_one(self):
        a = execute(example_config(1))
        b = run_generic("zero", "mult", init="inv-quad", target="zero")
        assert a.summary["nfe"] == b.summary["nfe"]
        assert a.summary["final_residual"] == b.summary["final_residual"]

    def test_jfixed_matches_zero_end_to_end(self):
        a = run_generic("zero", "mult", init="inv-quad")
        b = run_generic("jfixed", "mult-as-T", init="inv-quad")
        assert a.summary["nfe"] == b.summary["nfe"]
        assert a.summary["final_residual"] == pytest.approx(
            b.summary["final_residual"], rel=1e-10
        )

    def test_ladder_monotone_nfe(self):
        records = run_example(1, ladder=True, ladder_min_tol=1e-9)
        assert [r.config["tol"] for r in records] == [1e-3, 1e-6, 1e-9]
        nfes = [r.summary["nfe"] for r in records]
        assert nfes == sorted(nfes)
        assert all(r.summary["converged"] for r in records)

    def test_ladder_min_tol_validation(self):
        with pytest.raises(ValueError, match="rung"):
            run_example(1, ladder=True, ladder_min_tol=1.0)

    def test_example_three_dual_residuals(self):
        rec = execute(example_config(3, tol=1e-3))
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < 1e-3
        assert rec.summary["final_residual_dual"] < 1e-3


class TestConfigDispatch:
    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_config(solver="newton", operator="mult")

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="catalog"):
            execute(make_config(solver="zero", operator="banana"))

    def test_min_requires_subgradient_operator(self):
        with pytest.raises(ValueError, match="norm-subgrad"):
            execute(make_config(solver="min", operator="mult"))

    def test_hilbert_requires_p_two(self):
        with pytest.raises(ValueError, match="p 2"):
            execute(make_config(solver="hilbert", operator="mult", p=1.5))
        rec = execute(make_config(solver="hilbert", operator="mult", p=2.0, tol=1e-4))
        assert rec.summary["converged"]

    def test_jfixed_requires_dual_form_name(self):
        with pytest.raises(ValueError, match="-as-T"):
            execute(make_config(solver="jfixed", operator="mult"))

    def test_hammerstein_requires_dual_init(self):
        with pytest.raises(ValueError, match="init-dual"):
            execute(make_config(solver="hammerstein", operator="example"))

    def test_hammerstein_kernel_file(self, tmp_path):
        t = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.outer(t, t), delimiter=",")
        rec = execute(
            make_config(
                solver="hammerstein",
                operator=f"kernel:{path}",
                init="inv-quad",
                init_dual="exp-neg",
                tol=1e-3,
            )
        )
        assert rec.summary["converged"]

    def test_kernel_grid_mismatch(self, tmp_path):
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.ones((11, 11)), delimiter=",")
        with pytest.raises(ValueError, match="grid"):
            execute(
                make_config(
                    solver="hammerstein",
                    operator=f"kernel:{path}",
                    init_dual="zero",
                    grid=100,
                )
            )

    def test_vi_runs_inside_box(self):
        rec = run_generic("vi", "mult", init="inv-quad", box=(-2.0, 2.0), tol=1e-4)
        assert rec.summary["converged"]

    def test_zero_operator_damping_hand_values(self):
        # A = 0, constant start: x_{n+1} = (1 - alpha_n theta_n) x_n, and on
        # a 4-subinterval grid the residual is the plain coefficient gap
        rec = run_generic("zero", "zero-op", init="const:1", grid=4, max_iter=5, tol=1e-12)
        sched_alpha = lambda n: min(1.0 / (n + 1.0), 1.0 / math.log(math.log(n + 16.0)))
        sched_theta = lambda n: 1.0 / math.log(math.log(n + 16.0))
        c, expected = 1.0, []
        for n in range(1, 6):
            c_next = (1.0 - sched_alpha(n) * sched_theta(n)) * c
            expected.append(abs(c_next - c))
            c = c_next
        got = [row.residual for row in rec.trace.rows]
        assert got == pytest.approx(expected, rel=1e-12)
        assert not rec.summary["converged"]

    def test_determinism_end_to_end(self):
        cfg = example_config(1, tol=1e-4)
        a, b = execute(cfg), execute(cfg)
        assert a.summary["nfe"] == b.summary["nfe"]
        assert a.summary["final_residual"] == b.summary["final_residual"]
        ra = [row.residual for row in a.trace.rows]
        rb = [row.residual for row in b.trace.rows]
        assert ra == rb


class TestMainEntryPoint:
    def test_converged_run_exits_zero(self, capsys):
        code = main(["run-example", "1", "--tol", "1e-3"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert meta["converged"] is True
        assert meta["nfe"] >= 1
        assert meta["solver"] == "zero"

    def test_max_iter_exits_two(self, capsys):
        code = main(["run-example", "1", "--max-iter", "3"])
        assert code == 2
        meta = json.loads(capsys.readouterr().out.strip())
        assert meta["converged"] is False

    def test_error_exits_one(self, capsys):
        assert main(["zero", "--operator", "banana"]) == 1
        assert "catalog" in capsys.readouterr().err

    def test_nan_tol_fails_fast(self, capsys):
        t0 = time.perf_counter()
        assert main(["run-example", "1", "--tol", "nan"]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "tol" in capsys.readouterr().err

    def test_incompatible_pair_message_names_signature(self, capsys):
        assert main(["min", "--operator", "norm-subgrad", "--subgrad-variant", "duality",
                     "--tol", "1e-1"]) == 0
        capsys.readouterr()
        assert main(["jfixed", "--operator", "mult"]) == 1
        assert "-as-T" in capsys.readouterr().err

    def test_output_file_written(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code = main(["zero", "--operator", "mult", "--tol", "1e-3",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out.strip())
        assert meta["out"] == str(out)
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1

    def test_ladder_writes_per_rung_files(self, capsys, tmp_path):
        out = tmp_path / "ladder.csv"
        code = main(["run-example", "1", "--ladder", "--ladder-min-tol", "1e-6",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # rungs 1e-3 and 1e-6
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["ladder-tol1e-03.csv", "ladder-tol1e-06.csv"]

    def test_vi_box_flag_parsing(self, capsys):
        code = main(["vi", "--operator", "mult", "--box=-2,2", "--tol", "1e-3"])
        assert code == 0
        capsys.readouterr()
        assert main(["vi", "--operator", "mult", "--box", "nonsense"]) == 1

    def test_hammerstein_subcommand(self, capsys):
        code = main(["hammerstein", "--operator", "example", "--tol", "1e-3"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out.strip())
        assert meta["final_residual_dual"] < 1e-3

    def test_theta_offset_flag_changes_run(self, capsys):
        assert main(["zero", "--operator", "mult", "--theta-offset", "40",
                     "--tol", "1e-3"]) == 0
        meta_a = json.loads(capsys.readouterr().out.strip())
        assert main(["zero", "--operator", "mult", "--tol", "1e-3"]) == 0
        meta_b = json.loads(capsys.readouterr().out.strip())
        assert meta_a["nfe"] != meta_b["nfe"]


def assert_same_record(rung, alone):
    """A ladder rung equals the separate run at its tol, wall-clock time aside."""
    untimed = lambda rows: [dataclasses.replace(r, elapsed=0.0) for r in rows]
    assert untimed(rung.trace.rows) == untimed(alone.trace.rows)
    assert (rung.trace.converged, rung.trace.tol) == (alone.trace.converged, alone.trace.tol)
    rung_summary = {k: v for k, v in rung.summary.items() if k != "elapsed_s"}
    assert rung_summary == {k: v for k, v in alone.summary.items() if k != "elapsed_s"}
    assert list(rung.config.items()) == list(alone.config.items())


class TestLadderSlicing:
    @pytest.mark.parametrize("which, min_tol", [(1, 1e-9), (2, 1e-3), (3, 1e-6)])
    def test_rungs_equal_separate_runs(self, which, min_tol):
        records = run_example(which, ladder=True, ladder_min_tol=min_tol)
        tols = [t for t in EXAMPLE_LADDERS[which] if t >= min_tol]
        assert [r.config["tol"] for r in records] == tols
        for rec in records:
            assert_same_record(rec, execute(example_config(which, tol=rec.config["tol"])))
        if which == 2:
            assert [r.trace.nfe for r in records] == [58, 584, 2874]

    def test_rung_past_max_iter_is_unconverged(self, capsys):
        records = run_example(1, ladder=True, ladder_min_tol=1e-9, max_iter=100)
        assert [(r.trace.nfe, r.trace.converged) for r in records] == [
            (7, True), (53, True), (100, False)
        ]
        for rec in records:
            alone = execute(example_config(1, tol=rec.config["tol"], max_iter=100))
            assert_same_record(rec, alone)
        argv = ["run-example", "1", "--ladder", "--ladder-min-tol", "1e-9", "--max-iter", "100"]
        assert main(argv) == 2
        metas = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [m["converged"] for m in metas] == [True, True, False]


class TestLadderTable:
    def test_ladder_definitions(self):
        assert EXAMPLE_LADDERS[1] == (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)
        assert EXAMPLE_LADDERS[2] == (1e-1, 1e-2, 1e-3, 1e-4)
        assert EXAMPLE_LADDERS[3] == (1e-3, 1e-6, 1e-9, 1e-12)

    def test_example_config_validation(self):
        with pytest.raises(ValueError, match="example"):
            example_config(4)
