"""Command-line experiment runner.

Exposes the generic solvers (``zero``, ``hilbert``, ``min``, ``vi``,
``jfixed``, ``hammerstein``) over a small operator catalog, plus
``run-example {1,2,3}``, the three bundled benchmark problems:

1. zero of the multiplication operator (t+1)f(t) on L_{3/2},
2. minimization of the p-norm via its subgradient,
3. the Hammerstein system with F = (t+1)u and K = identity.

Every run is described by a plain dict of JSON-able values; rerunning a
stored config reproduces the iteration count and residuals bit for bit.
A tolerance ladder is one run to its tightest rung, cut into a prefix
per rung.  Exit status: 0 when every run converged, 2 when some run
stopped on max_iter, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .duality import ProductPoint
from .grid import GridFunction, LpContext
from .io import RunRecord, export_csv, export_json, export_loglog, summarize
from .operators import (
    HammersteinPair,
    hammerstein_example,
    hammerstein_kernel_op,
    j_pseudo_from_monotone,
    mult_op,
    norm_subgradient_op,
    zero_op,
)
from .schedule import default_schedule
from .solver import (
    SolveConfig,
    solve_hammerstein,
    solve_jfixed,
    solve_min,
    solve_vi,
    solve_zero,
    solve_zero_hilbert,
)

_PRESET_RULES = {
    "inv-quad": lambda t: 1.0 / (1.0 + t * t),
    "exp": lambda t: np.exp(t),
    "quad": lambda t: t * t + 1.0,
    "cos-exp": lambda t: np.cos(t) * np.exp(-t),
    "inv-tsin": lambda t: 1.0 / (1.0 + t * np.sin(t)),
    "exp-neg": lambda t: np.exp(-t),
    "zero": lambda t: np.zeros_like(t),
}

SOLVERS = ("zero", "hilbert", "hammerstein", "min", "vi", "jfixed")

EXAMPLE_LADDERS = {
    1: (1e-3, 1e-6, 1e-9, 1e-12, 1e-15),
    2: (1e-1, 1e-2, 1e-3, 1e-4),
    3: (1e-3, 1e-6, 1e-9, 1e-12),
}


def resolve_init(source: str, M: int) -> GridFunction:
    """Build an initial point from a preset name, ``const:c`` or ``csv:path``."""
    if source in _PRESET_RULES:
        return GridFunction.from_callable(_PRESET_RULES[source], M)
    if source.startswith("const:"):
        return GridFunction.full(M, float(source[len("const:"):]))
    if source.startswith("csv:"):
        vals = np.loadtxt(source[len("csv:"):], delimiter=",", ndmin=1)
        if vals.ndim != 1 or vals.size != M + 1:
            raise ValueError(
                f"initial-point file must hold one column of {M + 1} values, "
                f"got shape {vals.shape}"
            )
        return GridFunction(vals)
    raise ValueError(
        f"unknown initial point {source!r}; expected one of "
        f"{sorted(_PRESET_RULES)}, const:<c> or csv:<path>"
    )


def make_config(
    solver: str,
    operator: str,
    init: str = "inv-quad",
    init_dual: str | None = None,
    p: float = 1.5,
    grid: int = 100,
    tol: float = 1e-6,
    max_iter: int = 1_000_000,
    gamma: float = 1.0,
    theta_offset: int = 16,
    theta_base: float = math.e,
    subgrad_variant: str = "literal",
    box: tuple | list | None = None,
    vi_magnitude: float = 1.0,
    target: str | None = None,
    divergence_guard: float = 1e6,
) -> dict:
    """Assemble the JSON-able run description consumed by :func:`execute`."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    return {
        "solver": solver,
        "operator": operator,
        "init": init,
        "init_dual": init_dual,
        "p": float(p),
        "grid": int(grid),
        "tol": float(tol),
        "max_iter": int(max_iter),
        "gamma": float(gamma),
        "theta_offset": int(theta_offset),
        "theta_base": float(theta_base),
        "subgrad_variant": subgrad_variant,
        "box": None if box is None else [float(box[0]), float(box[1])],
        "vi_magnitude": float(vi_magnitude),
        "target": target,
        "divergence_guard": float(divergence_guard),
    }


def _catalog_operator(name: str):
    if name == "mult":
        return mult_op()
    if name == "zero-op":
        return zero_op()
    raise ValueError(f"unknown operator {name!r}; catalog: mult, zero-op")


def execute(config: dict) -> RunRecord:
    """Run one solve described by a config dict; deterministic in config."""
    solver = config["solver"]
    operator = config["operator"]
    ctx = LpContext(p=config["p"], M=config["grid"])
    sched = default_schedule(
        gamma=config["gamma"],
        theta_offset=config["theta_offset"],
        theta_log_base=config["theta_base"],
    )
    x1 = resolve_init(config["init"], ctx.M)

    target = None
    if config.get("target") == "zero":
        zero = GridFunction.zeros(ctx.M)
        target = ProductPoint(zero, zero) if solver == "hammerstein" else zero
    elif config.get("target") is not None:
        raise ValueError(f"unknown target {config['target']!r}; only 'zero' is supported")

    cfg = SolveConfig(
        ctx=ctx,
        schedule=sched,
        tol=config["tol"],
        max_iter=config["max_iter"],
        divergence_guard=config["divergence_guard"],
        target=target,
    )

    if solver == "zero":
        _, trace = solve_zero(_catalog_operator(operator), x1, cfg)
    elif solver == "hilbert":
        if ctx.p != 2.0:
            raise ValueError("solver 'hilbert' requires --p 2")
        _, trace = solve_zero_hilbert(_catalog_operator(operator), x1, cfg)
    elif solver == "min":
        if operator != "norm-subgrad":
            raise ValueError(
                "solver 'min' expects operator 'norm-subgrad' "
                "(a subgradient selection, chosen via --subgrad-variant)"
            )
        sub = norm_subgradient_op(ctx, config["subgrad_variant"])
        _, trace = solve_min(sub, x1, cfg)
    elif solver == "vi":
        box = config["box"] if config["box"] is not None else [-1.0, 1.0]
        _, trace = solve_vi(
            _catalog_operator(operator), box, x1, cfg, magnitude=config["vi_magnitude"]
        )
    elif solver == "jfixed":
        if not operator.endswith("-as-T"):
            raise ValueError(
                "solver 'jfixed' expects a dual-form map such as 'mult-as-T' "
                "(a catalog operator name suffixed with -as-T)"
            )
        base = _catalog_operator(operator[: -len("-as-T")])
        _, trace = solve_jfixed(j_pseudo_from_monotone(base, ctx), x1, cfg)
    elif solver == "hammerstein":
        if operator == "example":
            pair = hammerstein_example()
        elif operator.startswith("kernel:"):
            kernel = np.loadtxt(operator[len("kernel:"):], delimiter=",")
            if kernel.shape[0] != ctx.M + 1:
                raise ValueError(
                    f"kernel file is {kernel.shape[0] - 1}+1 nodes but --grid is {ctx.M}"
                )
            pair = HammersteinPair(F=mult_op(), K=hammerstein_kernel_op(kernel))
        else:
            raise ValueError(
                "solver 'hammerstein' expects operator 'example' or 'kernel:<csv>'"
            )
        if config["init_dual"] is None:
            raise ValueError("solver 'hammerstein' needs --init-dual for the dual start")
        v1 = resolve_init(config["init_dual"], ctx.M)
        _, _, trace = solve_hammerstein(pair, x1, v1, cfg)
    else:  # pragma: no cover - guarded by make_config
        raise ValueError(f"unknown solver {solver!r}")

    stored = dict(config)
    stored["schedule"] = dict(sched.meta)  # formulas + n0/base/gamma, for audits
    return RunRecord(config=stored, trace=trace, summary=summarize(trace))


def execute_many(configs: list[dict]) -> list[RunRecord]:
    """Run independent configs one after another."""
    return [execute(c) for c in configs]


def example_config(which: int, **overrides) -> dict:
    """Config for one bundled example; overrides replace any field."""
    if which == 1:
        base = dict(solver="zero", operator="mult", init="inv-quad", target="zero")
    elif which == 2:
        base = dict(solver="min", operator="norm-subgrad", init="inv-quad", target="zero")
    elif which == 3:
        base = dict(
            solver="hammerstein",
            operator="example",
            init="inv-quad",
            init_dual="inv-tsin",
            target="zero",
        )
    else:
        raise ValueError(f"example must be 1, 2 or 3, got {which}")
    base.update(overrides)
    return make_config(**base)


def run_example(
    which: int,
    ladder: bool = False,
    ladder_min_tol: float | None = None,
    **overrides,
):
    """Run a bundled example; with ``ladder`` one record per tolerance rung.

    Returns a single :class:`RunRecord`, or a list cut from one run to
    the tightest rung; ``ladder_min_tol`` drops rungs tighter than it.
    """
    if not ladder:
        return execute(example_config(which, **overrides))
    tols = [t for t in EXAMPLE_LADDERS[which] if ladder_min_tol is None or t >= ladder_min_tol]
    if not tols:
        raise ValueError(f"ladder-min-tol {ladder_min_tol} removed every rung")
    full = execute(example_config(which, **{**overrides, "tol": min(tols)}))
    traces = [full.trace.prefix(t) for t in tols]
    return [RunRecord({**full.config, "tol": t}, tr, summarize(tr)) for t, tr in zip(tols, traces)]


def run_generic(solver: str, operator: str, **flags) -> RunRecord:
    """Run one generic solve (the Python-level face of the subcommands)."""
    return execute(make_config(solver=solver, operator=operator, **flags))


def _out_path(base: str, tol: float, multi: bool) -> Path:
    path = Path(base)
    if multi:
        path = path.with_name(f"{path.stem}-tol{tol:.0e}{path.suffix}")
    return path


def _write_output(rec: RunRecord, path: Path, fmt: str) -> None:
    if fmt == "csv":
        export_csv(rec, path)
    elif fmt == "json":
        export_json(rec, path)
    elif fmt == "loglog":
        export_loglog(rec, path)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv, json or loglog")


def _emit(rec: RunRecord, out: str | None, fmt: str, multi: bool) -> dict:
    meta = {
        "solver": rec.config["solver"],
        "operator": rec.config["operator"],
        "init": rec.config["init"],
        "tol": rec.config["tol"],
        **rec.summary,
    }
    if out is not None:
        path = _out_path(out, rec.config["tol"], multi)
        _write_output(rec, path, fmt)
        meta["out"] = str(path)
    print(json.dumps(meta))
    return meta


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=float, default=None, help="primal exponent in (1, 2]")
    sp.add_argument("--grid", type=int, default=100, help="subinterval count M")
    sp.add_argument("--tol", type=float, default=1e-6, help="stopping tolerance")
    sp.add_argument("--max-iter", type=int, default=1_000_000)
    sp.add_argument("--gamma", type=float, default=1.0, help="step/regularization coupling")
    sp.add_argument("--theta-offset", type=int, default=16, help="shift n0 in theta_n")
    sp.add_argument("--theta-base", type=float, default=math.e, help="log base in theta_n")
    sp.add_argument("--init", default="inv-quad", help="preset | const:<c> | csv:<path>")
    sp.add_argument("--out", default=None, help="write the run to this path")
    sp.add_argument("--format", default="csv", choices=("csv", "json", "loglog"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpmono",
        description="Iterative zero-finding for monotone operators on discretized L_p([0,1])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("run-example", help="run one of the bundled examples")
    ex.add_argument("which", type=int, choices=(1, 2, 3))
    ex.add_argument("--ladder", action="store_true", help="rerun across the tolerance ladder")
    ex.add_argument(
        "--ladder-min-tol",
        type=float,
        default=None,
        help="skip ladder rungs tighter than this tolerance",
    )
    _add_common_flags(ex)

    for name in SOLVERS:
        sp = sub.add_parser(name, help=f"run the generic '{name}' solver")
        sp.add_argument("--operator", required=(name != "min"), default="norm-subgrad" if name == "min" else None)
        if name == "min":
            sp.add_argument(
                "--subgrad-variant",
                default="literal",
                choices=("literal", "duality"),
                help="subgradient selection for the p-norm",
            )
        if name == "vi":
            sp.add_argument("--box", default="-1,1", help="nodewise bounds lo,hi (use --box=-1,1)")
            sp.add_argument("--vi-magnitude", type=float, default=1.0)
        if name == "hammerstein":
            sp.add_argument("--init-dual", default="inv-tsin", help="dual-side starting point")
        _add_common_flags(sp)
    return parser


def _config_from_args(args: argparse.Namespace, solver: str) -> dict:
    kwargs = dict(
        solver=solver,
        operator=args.operator,
        init=args.init,
        p=args.p if args.p is not None else (2.0 if solver == "hilbert" else 1.5),
        grid=args.grid,
        tol=args.tol,
        max_iter=args.max_iter,
        gamma=args.gamma,
        theta_offset=args.theta_offset,
        theta_base=args.theta_base,
    )
    if solver == "min":
        kwargs["subgrad_variant"] = args.subgrad_variant
    if solver == "vi":
        parts = str(args.box).split(",")
        if len(parts) != 2:
            raise ValueError(f"--box expects 'lo,hi', got {args.box!r}")
        kwargs["box"] = (float(parts[0]), float(parts[1]))
        kwargs["vi_magnitude"] = args.vi_magnitude
    if solver == "hammerstein":
        kwargs["init_dual"] = args.init_dual
    return make_config(**kwargs)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run-example":
            overrides = {}
            if args.p is not None:
                overrides["p"] = args.p
            for key in ("grid", "tol", "max_iter", "gamma", "theta_offset", "theta_base", "init"):
                overrides[key] = getattr(args, key)
            result = run_example(
                args.which,
                ladder=args.ladder,
                ladder_min_tol=args.ladder_min_tol,
                **overrides,
            )
            records = result if isinstance(result, list) else [result]
            multi = len(records) > 1
        else:
            config = _config_from_args(args, args.command)
            records = [execute(config)]
            multi = False
        for rec in records:
            _emit(rec, args.out, args.format, multi)
    except Exception as exc:  # surface everything as exit code 1
        print(f"lpmono: error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r.summary["converged"] for r in records) else 2


if __name__ == "__main__":
    sys.exit(main())
