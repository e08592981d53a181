"""Command line interface.

Subcommands: ``run`` fits one configuration and writes a report, ``sweep``
covers a lambda1 x lambda2 grid, ``synth`` writes a synthetic dataset,
``eval`` scores an external assignment file. Exit codes: 0 on success, 2 on
validation or I/O problems, 3 when a fit violates an internal invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import mvncd
from mvncd.dataset import (
    NORMALIZATIONS,
    DatasetError,
    SyntheticSpec,
    _integer_lines,
    _write_files,
    generate_synthetic,
    load_dataset,
    read_integers,
    read_manifest,
    write_dataset,
)
# perfbench/child.py --trace wraps the three names that the CLI no longer calls
from mvncd.metrics import clustering_accuracy, nmi, purity, scores  # noqa: F401
from mvncd.solver import INIT_MODES, FitResult, SolverConfig, _check_lambda2, fit, is_monotone

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
DEFAULT_GRID = tuple(10.0**p for p in range(6))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    # MemoryError and OverflowError: a size too large to allocate or to
    # hold in a 64-bit integer, such as synth --per-class 1e17
    except (DatasetError, OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvncd",
        description="Multi-view novel class discovery solver",
    )
    parser.add_argument("--version", action="version", version=mvncd.__version__)
    sub = parser.add_subparsers(dest="command", metavar="{run,sweep,synth,eval}")

    # a flag that is not given stays out of the namespace, so the field it
    # names keeps its SolverConfig or SyntheticSpec default
    run = sub.add_parser("run", help="fit one configuration and write a report",
                         argument_default=argparse.SUPPRESS)
    _add_data_flags(run)
    _add_solver_flags(run)
    run.add_argument("--lambda1", type=float)
    run.add_argument("--lambda2", type=float)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid search over lambda1 and lambda2",
                           argument_default=argparse.SUPPRESS)
    _add_data_flags(sweep)
    _add_solver_flags(sweep)
    sweep.add_argument("--lambda1-grid", type=_parse_floats, default=DEFAULT_GRID)
    sweep.add_argument("--lambda2-grid", type=_parse_floats, default=DEFAULT_GRID)
    # kept so that scripts passing "--jobs 1" still parse; any other value
    # is refused
    sweep.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    synth = sub.add_parser("synth", help="generate a synthetic dataset",
                           argument_default=argparse.SUPPRESS)
    synth.add_argument("--views", type=int)
    synth.add_argument("--classes", type=int)
    synth.add_argument("--per-class", type=int)
    synth.add_argument("--dims", type=_parse_ints)
    synth.add_argument("--separation", type=float)
    synth.add_argument("--noise", type=_parse_floats)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=cmd_synth)

    ev = sub.add_parser("eval", help="score an external assignment file")
    _add_data_flags(ev)
    ev.add_argument("--assignment", required=True,
                    help="CSV with one cluster id per unlabeled sample")
    ev.set_defaults(func=cmd_eval)
    return parser


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True,
                     help="dataset directory or manifest path")
    sub.add_argument("--known-classes", type=_parse_ints, default=None,
                     help="override the default first-half known split, e.g. 0,1,2")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--normalize", choices=NORMALIZATIONS)
    sub.add_argument("--init-y", choices=INIT_MODES, dest="init_y_novel")
    sub.add_argument("--ablate-alpha", action="store_true")
    sub.add_argument("--ablate-labeled", action="store_true")
    sub.add_argument("--hard-restrict-novel", action="store_true")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok != "")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok != "")


def _from_flags(cls, args):
    """A ``cls`` (SolverConfig or SyntheticSpec) with the value of every
    given flag named after one of its fields and the default of the rest."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)
                  if f.name in given})


def _execute(ds, cfg, memo: dict) -> tuple[dict, FitResult]:
    """Fit and report. ``memo`` maps a novel assignment's bytes to its scores
    on ``ds``, so a partition that several fits reach is scored once."""
    result = fit(ds, cfg)
    key = result.novel_assignment.tobytes()
    if key not in memo:
        memo[key] = scores(result.novel_assignment,
                           ds.labels[ds.unlabeled_indices])
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": mvncd.__version__,
        "seed": cfg.seed,
        "dataset": {
            "num_samples": ds.num_samples,
            "num_labeled": ds.num_labeled,
            "num_unlabeled": ds.num_unlabeled,
            "num_views": ds.num_views,
            "view_dims": list(ds.view_dims),
            "num_known_classes": ds.num_known,
            "num_novel_classes": ds.num_novel,
        },
        "config": dataclasses.asdict(cfg),
        "metrics": memo[key],
        "alpha": [float(a) for a in result.alpha_trace[-1]],
        "objective_trace": [float(x) for x in result.objective_trace],
        "iterations": result.iterations,
        "converged": result.converged,
        "wall_time": result.wall_time,
    }
    return report, result


def _load_for_fit(args, cfg: SolverConfig):
    """The dataset as ``fit`` will read it under ``cfg``. The views are
    normalized in place while loading, so no raw copy stays alive through
    the fits; ``ablate_labeled`` normalizes over the unlabeled samples
    only, so it loads the raw views and leaves that to ``fit``."""
    mode = "none" if cfg.ablate_labeled else cfg.normalize
    return load_dataset(args.data, known_classes=args.known_classes,
                        normalize=mode)


def cmd_run(args) -> int:
    cfg = _from_flags(SolverConfig, args)
    ds = _load_for_fit(args, cfg)
    report, result = _execute(ds, cfg, {})
    if not is_monotone(result.objective_trace):
        print("error: objective trace is not monotonically non-increasing; "
              "refusing to write a report", file=sys.stderr)
        return EXIT_INVARIANT
    out = Path(args.out)
    _write_files([(out / "trace.csv", _trace_csv(result)),
                  (out / "assignment.csv", _integer_lines(result.novel_assignment)),
                  (out / "report.json", json.dumps(report, indent=2) + "\n")])
    m = report["metrics"]
    print(f"acc={m['acc']:.4f} nmi={m['nmi']:.4f} purity={m['purity']:.4f} "
          f"iterations={report['iterations']} converged={report['converged']}")
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


def _trace_csv(result) -> str:
    num_views = result.alpha_trace[0].size
    header = "iter,objective," + ",".join(
        f"alpha_{v}" for v in range(num_views))
    lines = [header]
    for i, (obj, alpha) in enumerate(zip(result.objective_trace,
                                         result.alpha_trace)):
        cells = [str(i), f"{obj:.12g}"] + [f"{a:.12g}" for a in alpha]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    if args.jobs != 1:
        raise ValueError(f"--jobs accepts only 1, got {args.jobs}")
    for flag, grid in (("--lambda1-grid", args.lambda1_grid),
                       ("--lambda2-grid", args.lambda2_grid)):
        if not grid:
            raise ValueError(f"{flag} needs at least one value")
        # a repeated value would fit twice under one report name
        names = [_grid_text(value) for value in grid]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{flag} repeats the value {name}")
    # every cell shares these settings, so an error in them refuses the sweep
    base = _from_flags(SolverConfig, args)
    ds = _load_for_fit(args, base)
    out = Path(args.out)
    rows = ["lambda1,lambda2,acc,nmi,purity,status"]
    files, memo = [], {}
    for l1 in args.lambda1_grid:
        for l2 in args.lambda2_grid:
            t1, t2 = _grid_text(l1), _grid_text(l2)
            try:
                cfg = dataclasses.replace(base, lambda1=l1, lambda2=l2)
                _check_lambda2(ds, cfg)
            except ValueError as exc:  # this cell's own lambdas: record it
                status = f"error: {exc}"
            else:
                report, result = _execute(ds, cfg, memo)
                status = ("ok" if is_monotone(result.objective_trace)
                          else "error: non-monotone objective trace")
            if status == "ok":
                files.append((out / f"run_l1_{t1}_l2_{t2}.json",
                              json.dumps(report, indent=2) + "\n"))
                m = report["metrics"]
                rows.append(f"{t1},{t2},{m['acc']:.12g},{m['nmi']:.12g},"
                            f"{m['purity']:.12g},{status}")
            else:
                rows.append(f"{t1},{t2},,,,\"{status}\"")
                print(f"cell lambda1={t1} lambda2={t2}: {status}",
                      file=sys.stderr)
    # one group, summary last: a sweep that raises leaves no file behind
    _write_files([*files, (out / "summary.csv", "\n".join(rows) + "\n")])
    print(f"sweep of {len(rows) - 1} cells written to {out / 'summary.csv'}")
    return EXIT_OK


def _grid_text(x: float) -> str:
    """``x`` in a report name or summary row: the short ``:g`` text when it
    reads back as ``x``, else the round-trip ``repr``, so two grid values
    never share a name."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def cmd_synth(args) -> int:
    ds = generate_synthetic(_from_flags(SyntheticSpec, args))
    manifest = write_dataset(ds, args.out)
    print(f"dataset written to {manifest}")
    return EXIT_OK


def cmd_eval(args) -> int:
    split = read_manifest(args.data, known_classes=args.known_classes)[1]
    values = read_integers(args.assignment, "assignment")
    # a 64-bit float below 2**63 converts exactly; larger values would cast
    # to a bogus id
    if not np.all((values >= -2.0**63) & (values < 2.0**63)):
        raise DatasetError("assignment: cluster id beyond the 64-bit "
                           "integer range")
    pred = values.astype(np.int64)
    truth = split["labels"][split["unlabeled_indices"]]
    if pred.size != truth.size:
        raise DatasetError(
            f"assignment: {pred.size} entries, but the dataset has "
            f"{truth.size} unlabeled samples"
        )
    print(json.dumps(scores(pred, truth)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
