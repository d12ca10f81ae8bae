"""Command-line experiment runner.

Exposes the generic solvers (``zero``, ``hilbert``, ``min``, ``vi``,
``jfixed``, ``hammerstein``) over a small operator catalog, plus
``run-example {1,2,3}``, the three bundled benchmark problems:

1. zero of the multiplication operator (t+1)f(t) on L_{3/2},
2. minimization of the p-norm via its subgradient,
3. the Hammerstein system with F = (t+1)u and K = identity.

Every run is described by a :class:`RunConfig`: its types, names and
solver fields are checked when it is built, its ranges by the library
constructors before any step.  Its record, ``asdict`` of it plus the
schedule's meta, is what a run stores and exports, and rerunning that
record reproduces the iteration count and residuals bit for bit.
A tolerance ladder is one run to its tightest rung, cut into a prefix
per rung.  Exit status: 0 when every run converged, 2 when some run
stopped on max_iter, 1 on errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .duality import ProductPoint
from .grid import GridFunction, LpContext, _number
from .io import RunRecord, export_csv, export_json, export_loglog, summarize
from .operators import (
    SUBGRADIENT_VARIANTS,
    HammersteinPair,
    hammerstein_example,
    hammerstein_kernel_op,
    j_pseudo_from_monotone,
    mult_op,
    norm_subgradient_op,
    zero_op,
)
from .schedule import default_schedule
from .solver import SolveConfig, solve_hammerstein, solve_jfixed, solve_vi, solve_zero

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

_CATALOG = {"mult": mult_op, "zero-op": zero_op}

# each example's fields over target="zero"
_EXAMPLES = {
    1: dict(solver="zero", operator="mult"),
    2: dict(solver="min", operator="norm-subgrad", tol=1e-2),
    3: dict(solver="hammerstein", operator="example"),
}

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


def _from_flag(flag: str, load, *args, **kwargs):
    """``load(*args, **kwargs)``; a file or parse error names the flag of its input."""
    try:
        return load(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{flag}: {exc}") from None


# the solver-specific fields, and the solver that reads each; others keep its default
_READ_BY = {"init_dual": "hammerstein", "subgrad_variant": "min", "box": "vi", "vi_magnitude": "vi"}


@dataclass(frozen=True)
class RunConfig:
    """One run and its defaults; :func:`execute` reads nothing else.

    Types, names and solver-specific fields are checked when it is built.
    Ranges (``p`` in (1, 2], a finite ``tol``, ``lo < hi``, ...) are
    checked by the constructors ``execute`` builds from it, before any
    step.  ``asdict`` of it, with the schedule's meta, is the record a run
    stores and exports.  ``divergence_guard`` is recorded but cannot be set.
    """

    solver: str
    operator: str
    init: str = "inv-quad"
    init_dual: str | None = None  # inv-tsin for hammerstein
    p: float | None = None  # 2 for hilbert, 3/2 otherwise
    grid: int = 100
    tol: float = SolveConfig.tol
    max_iter: int = SolveConfig.max_iter
    gamma: float = 1.0
    theta_offset: int = 16
    theta_base: float = math.e
    subgrad_variant: str = "literal"
    box: tuple[float, float] | None = None  # (-2, 2) for vi
    vi_magnitude: float = 1.0
    target: str | None = None
    divergence_guard: float = field(default=SolveConfig.divergence_guard, init=False)

    def __post_init__(self) -> None:
        solver, operator = self.solver, self.operator
        put = functools.partial(object.__setattr__, self)
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
        if self.p is None:
            put("p", 2.0 if solver == "hilbert" else 1.5)
        if self.init_dual is None and solver == "hammerstein":
            put("init_dual", "inv-tsin")
        if self.box is None and solver == "vi":
            put("box", (-2.0, 2.0))
        for name in ("grid", "max_iter", "theta_offset"):
            put(name, _number(name, getattr(self, name), int))
        for name in ("p", "tol", "gamma", "theta_base", "vi_magnitude"):
            put(name, _number(name, getattr(self, name), float))
        if self.box is not None:
            try:
                lo, hi = self.box
            except (TypeError, ValueError):
                raise ValueError(f"box must be a pair (lo, hi), got {self.box!r}") from None
            put("box", (_number("box", lo, float), _number("box", hi, float)))
        for name, reader in _READ_BY.items():
            if solver != reader and getattr(self, name) != getattr(RunConfig, name):
                raise ValueError(f"{name} is read by solver {reader!r} only, not {solver!r}")
        if solver == "hilbert" and self.p != 2.0:
            raise ValueError("solver 'hilbert' requires --p 2")
        if self.target not in (None, "zero"):
            raise ValueError(f"unknown target {self.target!r}; only 'zero' is supported")
        if solver == "min" and operator != "norm-subgrad":
            raise ValueError("solver 'min' expects operator 'norm-subgrad' "
                             "(a subgradient selection, chosen via --subgrad-variant)")
        if solver == "jfixed" and not operator.endswith("-as-T"):
            raise ValueError("solver 'jfixed' expects a dual-form map such as 'mult-as-T' "
                             "(a catalog operator name suffixed with -as-T)")
        if solver == "hammerstein" and operator != "example" and not operator.startswith("kernel:"):
            raise ValueError("solver 'hammerstein' expects operator 'example' or 'kernel:<csv>'")
        if solver in ("zero", "hilbert", "vi", "jfixed"):
            base = operator.removesuffix("-as-T") if solver == "jfixed" else operator
            if base not in _CATALOG:
                raise ValueError(f"unknown operator {base!r}; catalog: {', '.join(_CATALOG)}")


def _from_record(record: Mapping) -> RunConfig:
    """A stored run description, rebuilt; what the run derives must match it."""
    given = dict(record)
    derived = {k: given.pop(k) for k in ("schedule", "divergence_guard") if k in given}
    missing = [f.name for f in fields(RunConfig) if f.init and f.name not in given]
    if missing:
        raise ValueError(f"a stored config holds every field; missing {', '.join(missing)}")
    config = RunConfig(**given)  # an unknown key is refused by name
    for key, value in derived.items():
        runs = (default_schedule(config.gamma, config.theta_offset, config.theta_base).meta
                if key == "schedule" else config.divergence_guard)
        if value != runs:
            raise ValueError(f"{key} is derived by the run and cannot be set: got {value!r}, "
                             f"the run derives {runs!r}")
    return config


def execute(config: RunConfig | Mapping) -> RunRecord:
    """Run one solve; deterministic in its config.

    A mapping, such as a stored ``RunRecord.config`` or a JSON export's
    ``config``, is rebuilt as a :class:`RunConfig` first.
    """
    if not isinstance(config, RunConfig):
        config = _from_record(config)
    solver, operator = config.solver, config.operator
    ctx = LpContext(p=config.p, M=config.grid)
    sched = default_schedule(config.gamma, config.theta_offset, config.theta_base)
    x1 = _from_flag("--init", resolve_init, config.init, ctx.M)

    target = None
    if config.target == "zero":
        zero = GridFunction.zeros(ctx.M)
        target = ProductPoint(zero, zero) if solver == "hammerstein" else zero

    cfg = SolveConfig(ctx=ctx, schedule=sched, tol=config.tol, max_iter=config.max_iter,
                      divergence_guard=config.divergence_guard, target=target)

    # zero, hilbert and min are the core recursion with their own A
    if solver == "min":
        _, trace = solve_zero(norm_subgradient_op(ctx, config.subgrad_variant), x1, cfg)
    elif solver in ("zero", "hilbert"):
        _, trace = solve_zero(_CATALOG[operator](), x1, cfg)
    elif solver == "vi":
        A = _CATALOG[operator]()
        _, trace = solve_vi(A, config.box, x1, cfg, magnitude=config.vi_magnitude)
    elif solver == "jfixed":
        base = _CATALOG[operator.removesuffix("-as-T")]()
        _, trace = solve_jfixed(j_pseudo_from_monotone(base, ctx), x1, cfg)
    else:  # hammerstein
        if operator == "example":
            pair = hammerstein_example()
        else:
            kernel = _from_flag("--operator", np.loadtxt, operator.removeprefix("kernel:"),
                                delimiter=",")
            if kernel.shape[0] != ctx.M + 1:
                raise ValueError(
                    f"kernel file is {kernel.shape[0] - 1}+1 nodes but --grid is {ctx.M}"
                )
            pair = HammersteinPair(F=mult_op(), K=hammerstein_kernel_op(kernel))
        v1 = _from_flag("--init-dual", resolve_init, config.init_dual, ctx.M)
        _, _, trace = solve_hammerstein(pair, x1, v1, cfg)

    stored = {**asdict(config), "schedule": dict(sched.meta)}  # formulas + n0/base/gamma, for audits
    return RunRecord(config=stored, trace=trace, summary=summarize(trace))


def execute_many(configs: list[RunConfig]) -> list[RunRecord]:
    """Run independent configs one after another."""
    return [execute(c) for c in configs]


def example_config(which: int, **overrides) -> RunConfig:
    """Config for one bundled example; overrides replace any field."""
    if which not in _EXAMPLES:
        raise ValueError(f"example must be one of {list(_EXAMPLES)}, got {which}")
    return RunConfig(**{"target": "zero", **_EXAMPLES[which], **overrides})


def run_example(
    which: int,
    ladder: bool = False,
    ladder_min_tol: float | None = None,
    **overrides,
) -> list[RunRecord]:
    """Run a bundled example: a list of one record, or with ``ladder`` one per rung.

    The rungs are cut from one run to the tightest; ``ladder_min_tol``
    drops rungs tighter than it.
    """
    if not ladder:
        if ladder_min_tol is not None:
            raise ValueError("--ladder-min-tol has no effect without --ladder")
        return [execute(example_config(which, **overrides))]
    if "tol" in overrides:
        raise ValueError("--tol has no effect with --ladder; use --ladder-min-tol")
    tols = [t for t in EXAMPLE_LADDERS[which] if ladder_min_tol is None or t >= ladder_min_tol]
    if not tols:
        raise ValueError(f"ladder-min-tol {ladder_min_tol} removed every rung")
    full = execute(example_config(which, **overrides, tol=min(tols)))
    traces = [full.trace.prefix(t) for t in tols]
    return [RunRecord({**full.config, "tol": t}, tr, summarize(tr)) for t, tr in zip(tols, traces)]


def _emit(rec: RunRecord, out: str | None, fmt: str, ladder: bool) -> dict:
    meta = {k: rec.config[k] for k in ("solver", "operator", "init", "tol")} | rec.summary
    if out is not None:
        path = Path(out)
        if ladder:  # every rung names its tol, however many rungs are left
            path = path.with_name(f"{path.stem}-tol{rec.config['tol']:.0e}{path.suffix}")
        # looked up per call, so a wrapped lpmono.cli.export_csv is the one used
        {"csv": export_csv, "json": export_json, "loglog": export_loglog}[fmt](rec, path)
        meta["out"] = str(path)
    print(json.dumps(meta))
    return meta


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    # no defaults: a flag that is not given takes RunConfig's default
    sp.add_argument("--p", type=float, help="primal exponent in (1, 2]")
    sp.add_argument("--grid", type=int, help="subinterval count M")
    sp.add_argument("--tol", type=float, help="stopping tolerance")
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--gamma", type=float, help="step/regularization coupling")
    sp.add_argument("--theta-offset", type=int, help="shift n0 in theta_n")
    sp.add_argument("--theta-base", type=float, help="log base in theta_n")
    sp.add_argument("--init", help="preset | const:<c> | csv:<path>")
    sp.add_argument("--out", help="write the run to this path")
    sp.add_argument("--format", default="csv", choices=("csv", "json", "loglog"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as other errors do; 2 means max_iter
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as built
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpmono",
        description="Iterative zero-finding for monotone operators on discretized L_p([0,1])",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parser too

    ex = sub.add_parser("run-example", help="run one of the bundled examples")
    ex.add_argument("which", type=int, choices=list(_EXAMPLES))
    ex.add_argument("--ladder", action="store_true", help="rerun across the tolerance ladder")
    ex.add_argument("--ladder-min-tol", type=float, help="skip ladder rungs tighter than this tol")
    _add_common_flags(ex)

    for name in SOLVERS:
        sp = sub.add_parser(name, help=f"run the generic '{name}' solver")
        if name == "min":
            sp.add_argument("--operator", default="norm-subgrad")
            sp.add_argument("--subgrad-variant", choices=SUBGRADIENT_VARIANTS,
                            help="subgradient selection for the p-norm")
        else:
            sp.add_argument("--operator", required=True)
        if name == "vi":
            sp.add_argument("--box", help="nodewise bounds lo,hi (use --box=-2,2)")
            sp.add_argument("--vi-magnitude", type=float)
        if name == "hammerstein":
            sp.add_argument("--init-dual", help="dual-side starting point")
        _add_common_flags(sp)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    flags = vars(_build_parser().parse_args(argv))
    command, out, fmt = flags.pop("command"), flags.pop("out"), flags.pop("format")
    flags = {k: v for k, v in flags.items() if v is not None}  # given, or defaulted above
    try:
        if command == "run-example":
            records = run_example(**flags)
        else:
            if "box" in flags:
                try:
                    lo, hi = map(float, flags["box"].split(","))
                except ValueError:
                    raise ValueError(f"--box expects 'lo,hi', got {flags['box']!r}") from None
                flags["box"] = (lo, hi)
            records = [execute(RunConfig(command, **flags))]
        for rec in records:
            _emit(rec, out, fmt, flags.get("ladder", False))
    except Exception as exc:  # surface everything as exit code 1
        print(f"lpmono: error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r.summary["converged"] for r in records) else 2


if __name__ == "__main__":
    sys.exit(main())
