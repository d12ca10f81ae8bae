"""Harness: presets, config dispatch, example runs, ladders, output files,
exit codes, and end-to-end determinism."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from lpmono import export_json
from lpmono.cli import (
    EXAMPLE_LADDERS,
    RunConfig,
    _build_parser,
    example_config,
    execute,
    main,
    resolve_init,
    run_example,
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
        b = execute(RunConfig("zero", "mult", init="inv-quad", target="zero"))
        assert a.summary["nfe"] == b.summary["nfe"]
        assert a.summary["final_residual"] == b.summary["final_residual"]

    def test_jfixed_matches_zero_end_to_end(self):
        a = execute(RunConfig("zero", "mult", init="inv-quad"))
        b = execute(RunConfig("jfixed", "mult-as-T", init="inv-quad"))
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

    def test_single_run_is_a_list_of_one(self):
        records = run_example(1, tol=1e-3)
        assert isinstance(records, list) and len(records) == 1
        assert records[0].summary["converged"]

    def test_example_three_dual_residuals(self):
        rec = execute(example_config(3, tol=1e-3))
        assert rec.summary["converged"]
        assert rec.summary["final_residual"] < 1e-3
        assert rec.summary["final_residual_dual"] < 1e-3


class TestConfigDispatch:
    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            RunConfig(solver="newton", operator="mult")

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="catalog"):
            execute(RunConfig(solver="zero", operator="banana"))

    def test_unknown_operator_lists_the_catalog(self):
        with pytest.raises(ValueError, match="catalog: mult, zero-op$"):
            execute(RunConfig(solver="zero", operator="banana"))

    def test_min_requires_subgradient_operator(self):
        with pytest.raises(ValueError, match="norm-subgrad"):
            execute(RunConfig(solver="min", operator="mult"))

    @pytest.mark.parametrize("field, value", [
        ("grid", 100.5), ("max_iter", 2.9), ("theta_offset", 16.7),
        ("grid", True), ("max_iter", True), ("theta_offset", False),
    ])
    def test_integer_fields_are_not_truncated(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig("zero", "mult", **{field: value})

    def test_numpy_integers_stored_as_python_ints(self):
        config = RunConfig("zero", "mult", grid=np.int64(50), max_iter=np.int32(9),
                           theta_offset=np.int64(17))
        assert [(getattr(config, k), type(getattr(config, k)))
                for k in ("grid", "max_iter", "theta_offset")] == [
            (50, int), (9, int), (17, int)]

    def test_hilbert_requires_p_two(self):
        with pytest.raises(ValueError, match="p 2"):
            execute(RunConfig(solver="hilbert", operator="mult", p=1.5))
        rec = execute(RunConfig(solver="hilbert", operator="mult", p=2.0, tol=1e-4))
        assert rec.summary["converged"]

    def test_hilbert_defaults_to_p_two(self):
        config = RunConfig("hilbert", "mult", tol=1e-3)
        assert config.p == 2.0
        assert RunConfig("zero", "mult").p == 1.5
        assert execute(config).summary["converged"]

    def test_jfixed_requires_dual_form_name(self):
        with pytest.raises(ValueError, match="-as-T"):
            execute(RunConfig(solver="jfixed", operator="mult"))

    def test_hammerstein_defaults_to_dual_init_inv_tsin(self):
        assert RunConfig("hammerstein", "example").init_dual == "inv-tsin"
        assert RunConfig("zero", "mult").init_dual is None

    def test_vi_defaults_to_box_minus_two_two(self):
        assert RunConfig("vi", "mult") == RunConfig("vi", "mult", box=(-2.0, 2.0))
        assert RunConfig("zero", "mult").box is None

    @pytest.mark.parametrize("solver, operator", [("vi", "mult"), ("hammerstein", "example")])
    def test_cli_and_library_store_the_same_defaults(self, monkeypatch, solver, operator):
        stored = []
        monkeypatch.setattr("lpmono.cli._emit", lambda rec, *args: stored.append(rec.config))
        assert main([solver, "--operator", operator]) == 0
        assert stored == [execute(RunConfig(solver, operator)).config]

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target 'ones'"):
            execute(example_config(1, target="ones"))

    def test_hammerstein_unknown_operator(self):
        with pytest.raises(ValueError, match="expects operator 'example' or 'kernel:<csv>'"):
            execute(RunConfig(solver="hammerstein", operator="banana", init_dual="inv-tsin"))

    def test_hammerstein_kernel_file(self, tmp_path):
        t = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.outer(t, t), delimiter=",")
        rec = execute(
            RunConfig(
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
                RunConfig(
                    solver="hammerstein",
                    operator=f"kernel:{path}",
                    init_dual="zero",
                    grid=100,
                )
            )

    def test_vi_runs_inside_box(self):
        rec = execute(RunConfig("vi", "mult", init="inv-quad", box=(-2.0, 2.0), tol=1e-4))
        assert rec.summary["converged"]

    def test_zero_operator_damping_hand_values(self):
        # A = 0, constant start: x_{n+1} = (1 - alpha_n theta_n) x_n, and on
        # a 4-subinterval grid the residual is the plain coefficient gap
        rec = execute(RunConfig("zero", "zero-op", init="const:1", grid=4, max_iter=5, tol=1e-12))
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

    def test_parser_built_once(self, capsys):
        assert _build_parser() is _build_parser()
        for _ in range(2):  # the second run parses with the cached parser
            assert main(["run-example", "1", "--tol", "1e-3"]) == 0
            assert json.loads(capsys.readouterr().out.strip())["nfe"] == 7

    def test_vi_defaults_run(self, capsys):
        # the default box holds the default start inside it
        assert main(["vi", "--operator", "mult"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["converged"]

    def test_max_iter_exits_two(self, capsys):
        code = main(["run-example", "1", "--max-iter", "3"])
        assert code == 2
        meta = json.loads(capsys.readouterr().out.strip())
        assert meta["converged"] is False

    def test_error_exits_one(self, capsys):
        assert main(["zero", "--operator", "banana"]) == 1
        assert "catalog" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["zero"],
        ["zero", "--operator", "mult", "--grid", "abc"],
        ["run-example", "4"],
    ])
    def test_usage_error_exits_one(self, capsys, argv):
        # 2 is the exit code of a run stopped on max_iter
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "usage: lpmono" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["zero", "--help"])
        assert info.value.code == 0

    def test_example_two_defaults_to_the_paper_tol(self, capsys):
        assert example_config(2).tol == 1e-2
        assert main(["run-example", "2"]) == 0
        assert json.loads(capsys.readouterr().out.strip())["nfe"] == 584

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

    def test_loglog_output_file(self, capsys, tmp_path):
        out = tmp_path / "run.dat"
        code = main(["run-example", "1", "--tol", "1e-3", "--out", str(out), "--format", "loglog"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out.strip())
        pairs = [line.split() for line in out.read_text().splitlines()]
        assert len(pairs) == meta["nfe"]
        assert [int(n) for n, _ in pairs] == list(range(2, 2 + meta["nfe"]))
        assert float(pairs[-1][1]) == meta["final_residual"]

    def test_run_example_p_override(self, capsys, tmp_path):
        out = tmp_path / "p2.json"
        argv = ["run-example", "1", "--tol", "1e-3", "--out", str(out), "--format", "json"]
        assert main(argv + ["--p", "2"]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["p"] == 2.0
        alone = execute(example_config(1, p=2.0, tol=1e-3)).summary
        assert (doc["summary"]["nfe"], doc["summary"]["final_residual"]) == (
            alone["nfe"], alone["final_residual"])

    def test_ladder_writes_per_rung_files(self, capsys, tmp_path):
        out = tmp_path / "ladder.csv"
        code = main(["run-example", "1", "--ladder", "--ladder-min-tol", "1e-6",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # rungs 1e-3 and 1e-6
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["ladder-tol1e-03.csv", "ladder-tol1e-06.csv"]

    def test_single_rung_ladder_names_its_tol(self, capsys, tmp_path):
        # the 1e-3 rung's file name does not depend on which other rungs were asked for
        out = tmp_path / "ladder.csv"
        code = main(["run-example", "1", "--ladder", "--ladder-min-tol", "1e-3",
                     "--out", str(out)])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["ladder-tol1e-03.csv"]

    def test_ladder_min_tol_needs_ladder(self, capsys):
        with pytest.raises(ValueError, match="--ladder-min-tol has no effect without --ladder"):
            run_example(1, ladder_min_tol=1e-9)
        assert main(["run-example", "1", "--ladder-min-tol", "1e-9"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--ladder-min-tol has no effect without --ladder" in err

    def test_tol_with_ladder_is_refused(self, capsys):
        with pytest.raises(ValueError, match="--tol has no effect with --ladder"):
            run_example(1, ladder=True, ladder_min_tol=1e-6, tol=1e-3)
        assert main(["run-example", "1", "--ladder", "--ladder-min-tol", "1e-6",
                     "--tol", "1e-3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "use --ladder-min-tol" in err

    def test_vi_box_flag_parsing(self, capsys):
        code = main(["vi", "--operator", "mult", "--box=-2,2", "--tol", "1e-3"])
        assert code == 0
        capsys.readouterr()
        assert main(["vi", "--operator", "mult", "--box", "nonsense"]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["vi", "--operator", "mult", "--box=a,b"], "--box"),
        (["vi", "--operator", "mult", "--box=-1,1,2"], "--box"),
        (["zero", "--operator", "mult", "--init", "const:abc"], "--init"),
        (["hammerstein", "--operator", "example", "--init-dual", "const:abc"], "--init-dual"),
        (["zero", "--operator", "mult", "--init", "csv:{tmp}/missing.csv"], "--init"),
        (["hammerstein", "--operator", "kernel:{tmp}/bad.csv"], "--operator"),
    ])
    def test_conversion_error_names_the_flag(self, capsys, tmp_path, argv, flag):
        (tmp_path / "bad.csv").write_text("1,2\n3,abc\n")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"lpmono: error: {flag}")

    def test_unknown_subgradient_variant_lists_the_variants(self, capsys):
        with pytest.raises(SystemExit):
            main(["min", "--subgrad-variant", "hilbert"])
        assert "(choose from 'literal', 'duality')" in capsys.readouterr().err

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
            # the 1e-3 rung is set by rounding: the exact run stops at 2876
            # (tests/test_oracle.py::test_example_2_rung_1e_3)
            assert [r.trace.nfe for r in records] == [58, 584, 2882]

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


class _Captured(Exception):
    """Raised by the stand-in for ``execute`` once it has seen a config."""


def captured_config(monkeypatch, argv):
    """The config ``main`` hands to ``execute`` for argv; the solve is skipped."""
    seen = []

    def capture(config):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr("lpmono.cli.execute", capture)
    assert main(argv) == 1
    assert len(seen) == 1
    return seen[0]


COMMON_ARGV = ["--p", "1.25", "--grid", "20", "--tol", "1e-4", "--max-iter", "77",
               "--gamma", "0.5", "--theta-offset", "9", "--theta-base", "3", "--init", "exp"]
COMMON = dict(p=1.25, grid=20, tol=1e-4, max_iter=77, gamma=0.5, theta_offset=9,
              theta_base=3.0, init="exp")

# (argv with no optional flag, its expected config builder, the subcommand's
# own optional flags, and what they set; given after the common flags, they win)
SUBCOMMANDS = {
    "example-1": (["run-example", "1"], lambda **kw: example_config(1, **kw), [], {}),
    "example-2": (["run-example", "2"], lambda **kw: example_config(2, **kw), [], {}),
    "example-3": (["run-example", "3"], lambda **kw: example_config(3, **kw), [], {}),
    "zero": (["zero", "--operator", "mult"], lambda **kw: RunConfig("zero", "mult", **kw),
             [], {}),
    "hilbert": (["hilbert", "--operator", "mult"], lambda **kw: RunConfig("hilbert", "mult", **kw),
                ["--p", "2"], {"p": 2.0}),
    "min": (["min"], lambda **kw: RunConfig("min", "norm-subgrad", **kw),
            ["--operator", "norm-subgrad", "--subgrad-variant", "duality"],
            {"subgrad_variant": "duality"}),
    "vi": (["vi", "--operator", "mult"], lambda **kw: RunConfig("vi", "mult", **kw),
           ["--box=-2,3", "--vi-magnitude", "0.5"], {"box": (-2.0, 3.0), "vi_magnitude": 0.5}),
    "jfixed": (["jfixed", "--operator", "mult-as-T"],
               lambda **kw: RunConfig("jfixed", "mult-as-T", **kw), [], {}),
    "hammerstein": (["hammerstein", "--operator", "example"],
                    lambda **kw: RunConfig("hammerstein", "example", **kw),
                    ["--init-dual", "exp-neg"], {"init_dual": "exp-neg"}),
}


class TestFlagsToConfig:
    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_no_optional_flag(self, monkeypatch, name):
        argv, expected, _, _ = SUBCOMMANDS[name]
        assert captured_config(monkeypatch, argv) == expected()

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_every_flag(self, monkeypatch, tmp_path, name):
        argv, expected, own_argv, own = SUBCOMMANDS[name]
        out = ["--out", str(tmp_path / "run.json"), "--format", "json"]
        config = captured_config(monkeypatch, argv + COMMON_ARGV + own_argv + out)
        assert config == expected(**{**COMMON, **own})
        assert list(tmp_path.iterdir()) == []

    def test_hilbert_refuses_another_p_before_execute(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr("lpmono.cli.execute", seen.append)
        assert main(["hilbert", "--operator", "mult", "--p", "1.25"]) == 1
        assert seen == []
        assert "requires --p 2" in capsys.readouterr().err

    def test_ladder_solves_to_its_tightest_rung(self, monkeypatch):
        argv = ["run-example", "3", "--ladder", "--ladder-min-tol", "1e-6"]
        config = captured_config(monkeypatch, argv)
        assert config == example_config(3, tol=1e-6)
        assert config.tol == 1e-6


OPERATORS = {"zero": "mult", "hilbert": "mult", "min": "norm-subgrad", "vi": "mult",
             "jfixed": "mult-as-T", "hammerstein": "example"}
# each solver-specific field, the one solver that reads it, and a value other than its default
SOLVER_FIELDS = {"init_dual": ("hammerstein", "exp-neg"), "subgrad_variant": ("min", "duality"),
                 "box": ("vi", (0.0, 1.0)), "vi_magnitude": ("vi", 0.5)}


@pytest.fixture(scope="module")
def stored_config():
    """The record example 1 to 1e-3 stores."""
    return execute(example_config(1, tol=1e-3)).config


def _unreachable(*args, **kwargs):
    raise AssertionError("execute went past building its config")


class TestRunConfig:
    @pytest.mark.parametrize("change, error, message", [
        (lambda c: {**c, "gama": 5}, TypeError, "'gama'"),
        (lambda c: {**c, "box": [0, 1]}, ValueError, "^box is read by solver 'vi' only, not 'zero'$"),
        (lambda c: {k: v for k, v in c.items() if k != "gamma"}, ValueError, "missing gamma$"),
        (lambda c: {**c, "p": "1.5"}, ValueError, "^p must be a number, got '1.5'$"),
        (lambda c: {**c, "divergence_guard": 1e-3}, ValueError,
         "^divergence_guard is derived by the run and cannot be set: got 0.001"),
        (lambda c: {**c, "schedule": {**c["schedule"], "n0": 17}}, ValueError,
         "^schedule is derived by the run"),
    ], ids=["unknown-key", "unread-field", "missing-key", "string-p", "guard", "schedule"])
    def test_stored_record_probes_fail_when_built(self, monkeypatch, stored_config, change,
                                                  error, message):
        monkeypatch.setattr("lpmono.cli.LpContext", _unreachable)
        with pytest.raises(error, match=message):
            execute(change(stored_config))

    @pytest.mark.parametrize("kwargs, message", [
        ({"gama": 5}, "'gama'"),
        ({"divergence_guard": 1e-3}, "'divergence_guard'"),
    ])
    def test_constructor_refuses_unknown_and_derived_keys(self, kwargs, message):
        with pytest.raises(TypeError, match=message):
            RunConfig("zero", "mult", **kwargs)

    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig("zero", "mult").divergence_guard = 1e-3

    @pytest.mark.parametrize("field, value, message", [
        ("p", "1.5", "p must be a number"),
        ("tol", True, "tol must be a number"),
        ("gamma", None, "gamma must be a number"),
        ("box", (0.0, "1"), "box must be a number"),
        ("box", (0.0, 1.0, 2.0), "box must be a pair"),
    ])
    def test_numeric_fields_refuse_other_types(self, field, value, message):
        solver = "vi" if field == "box" else "zero"
        with pytest.raises(ValueError, match=f"^{message}"):
            RunConfig(solver, "mult", **{field: value})

    def test_numbers_stored_as_python_floats_and_box_as_a_tuple(self):
        config = RunConfig("vi", "mult", p=np.float64(1.25), gamma=2, box=[np.int64(-1), 2])
        assert [(x, type(x)) for x in (config.p, config.gamma, *config.box)] == [
            (1.25, float), (2.0, float), (-1.0, float), (2.0, float)]

    @pytest.mark.parametrize("field", list(SOLVER_FIELDS))
    @pytest.mark.parametrize("solver", list(OPERATORS))
    def test_solver_specific_fields(self, solver, field):
        reader, value = SOLVER_FIELDS[field]
        if solver == reader:
            assert getattr(RunConfig(solver, OPERATORS[solver], **{field: value}), field) == value
        else:
            with pytest.raises(ValueError, match=f"^{field} is read by solver '{reader}' only"):
                RunConfig(solver, OPERATORS[solver], **{field: value})

    @pytest.mark.parametrize("solver", list(OPERATORS))
    def test_stored_record_reruns_bit_for_bit(self, solver, tmp_path):
        first = execute(RunConfig(solver, OPERATORS[solver], tol=1e-3))
        residual = first.trace.columns["residual"].tobytes()
        export_json(first, tmp_path / "run.json")
        exported = json.loads((tmp_path / "run.json").read_text())["config"]
        for stored in (first.config, exported):
            again = execute(stored)
            assert again.config == first.config
            assert again.trace.nfe == first.trace.nfe
            assert again.trace.columns["residual"].tobytes() == residual
