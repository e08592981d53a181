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
import os
import sys
from pathlib import Path

import numpy as np

import mvncd
from mvncd.dataset import (
    NORMALIZATIONS,
    DatasetError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_integers,
    write_dataset,
)
from mvncd.metrics import clustering_accuracy, nmi, purity
from mvncd.solver import FitResult, SolverConfig, fit, is_monotone

SCHEMA_VERSION = 1
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
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvncd",
        description="Multi-view novel class discovery solver",
    )
    parser.add_argument("--version", action="version", version=mvncd.__version__)
    sub = parser.add_subparsers(dest="command", metavar="{run,sweep,synth,eval}")

    run = sub.add_parser("run", help="fit one configuration and write a report")
    _add_data_flags(run)
    _add_solver_flags(run)
    run.add_argument("--lambda1", type=float, default=1.0)
    run.add_argument("--lambda2", type=float, default=1.0)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid search over lambda1 and lambda2")
    _add_data_flags(sweep)
    _add_solver_flags(sweep)
    sweep.add_argument("--lambda1-grid", type=_parse_floats, default=DEFAULT_GRID)
    sweep.add_argument("--lambda2-grid", type=_parse_floats, default=DEFAULT_GRID)
    # kept so that scripts passing "--jobs 1" still parse; any other value
    # is refused
    sweep.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--views", type=int, default=2)
    synth.add_argument("--classes", type=int, default=4)
    synth.add_argument("--per-class", type=int, default=30)
    synth.add_argument("--dims", type=_parse_ints, default=(8,))
    synth.add_argument("--separation", type=float, default=6.0)
    synth.add_argument("--noise", type=_parse_floats, default=(1.0,))
    synth.add_argument("--seed", type=int, default=0)
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
    sub.add_argument("--max-iter", type=int, default=100)
    sub.add_argument("--tol", type=float, default=1e-7)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--normalize", choices=NORMALIZATIONS, default="zscore")
    sub.add_argument("--init-y", choices=("kmeans", "random"), default="kmeans")
    sub.add_argument("--ablate-alpha", action="store_true")
    sub.add_argument("--ablate-labeled", action="store_true")
    sub.add_argument("--hard-restrict-novel", action="store_true")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok != "")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok != "")


def _config_from_args(args, lambda1: float, lambda2: float) -> SolverConfig:
    return SolverConfig(
        lambda1=lambda1,
        lambda2=lambda2,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
        init_y_novel=args.init_y,
        normalize=args.normalize,
        ablate_alpha=args.ablate_alpha,
        ablate_labeled=args.ablate_labeled,
        hard_restrict_novel=args.hard_restrict_novel,
    )


def _execute(ds, cfg) -> tuple[dict, FitResult]:
    result = fit(ds, cfg)
    truth = ds.labels[ds.unlabeled_indices]
    pred = result.novel_assignment
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
        "metrics": {
            "acc": clustering_accuracy(pred, truth),
            "nmi": nmi(pred, truth),
            "purity": purity(pred, truth),
        },
        "alpha": [float(a) for a in result.alpha_trace[-1]],
        "objective_trace": [float(x) for x in result.objective_trace],
        "iterations": result.iterations,
        "converged": result.converged,
        "wall_time": result.wall_time,
    }
    return report, result


def _load_for_fit(args):
    """The dataset as ``fit`` will read it. The views are normalized in
    place while loading, so no raw copy stays alive through the fits;
    ``--ablate-labeled`` normalizes over the unlabeled samples only, so it
    loads the raw views and leaves that to ``fit``."""
    mode = "none" if args.ablate_labeled else args.normalize
    return load_dataset(args.data, known_classes=args.known_classes,
                        normalize=mode)


def cmd_run(args) -> int:
    ds = _load_for_fit(args)
    cfg = _config_from_args(args, args.lambda1, args.lambda2)
    report, result = _execute(ds, cfg)
    if not is_monotone(result.objective_trace):
        print("error: objective trace is not monotonically non-increasing; "
              "refusing to write a report", file=sys.stderr)
        return EXIT_INVARIANT
    out = Path(args.out)
    _write_atomic(out / "report.json", json.dumps(report, indent=2) + "\n")
    _write_atomic(out / "trace.csv", _trace_csv(result))
    _write_atomic(out / "assignment.csv",
                  "".join(f"{int(c)}\n" for c in result.novel_assignment))
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
    if not args.lambda1_grid or not args.lambda2_grid:
        raise ValueError("each lambda grid needs at least one value")
    # every cell shares these settings, so an error in them refuses the sweep
    base = _config_from_args(args, 0.0, 0.0)
    ds = _load_for_fit(args)
    out = Path(args.out)
    rows = ["lambda1,lambda2,acc,nmi,purity,status"]
    for l1 in args.lambda1_grid:
        for l2 in args.lambda2_grid:
            t1, t2 = _grid_text(l1), _grid_text(l2)
            try:
                cfg = dataclasses.replace(base, lambda1=l1, lambda2=l2)
                report, result = _execute(ds, cfg)
                status = ("ok" if is_monotone(result.objective_trace)
                          else "error: non-monotone objective trace")
            except DatasetError:  # the data fails every cell alike: refuse it
                raise
            except Exception as exc:  # record the failure, keep sweeping
                status = f"error: {exc}"
            if status == "ok":
                name = f"run_l1_{t1}_l2_{t2}.json"
                _write_atomic(out / name, json.dumps(report, indent=2) + "\n")
                m = report["metrics"]
                rows.append(f"{t1},{t2},{m['acc']:.12g},{m['nmi']:.12g},"
                            f"{m['purity']:.12g},{status}")
            else:
                rows.append(f"{t1},{t2},,,,\"{status}\"")
                print(f"cell lambda1={t1} lambda2={t2}: {status}",
                      file=sys.stderr)
    _write_atomic(out / "summary.csv", "\n".join(rows) + "\n")
    print(f"sweep of {len(rows) - 1} cells written to {out / 'summary.csv'}")
    return EXIT_OK


def _grid_text(x: float) -> str:
    """``x`` in a report name or summary row: the short ``:g`` text when it
    reads back as ``x``, else the round-trip ``repr``, so two grid values
    never share a name."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        views=args.views,
        classes=args.classes,
        per_class=args.per_class,
        dims=args.dims,
        separation=args.separation,
        noise=args.noise,
        seed=args.seed,
    )
    ds = generate_synthetic(spec)
    manifest = write_dataset(ds, args.out)
    print(f"dataset written to {manifest}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = load_dataset(args.data, known_classes=args.known_classes)
    values = read_integers(args.assignment, "assignment")
    # a 64-bit float below 2**63 converts exactly; larger values would cast
    # to a bogus id
    if not np.all((values >= -2.0**63) & (values < 2.0**63)):
        raise DatasetError("assignment file holds a cluster id that is not "
                           "finite or does not fit a 64-bit integer")
    pred = values.astype(np.int64)
    if pred.size != ds.num_unlabeled:
        raise DatasetError(
            f"assignment has {pred.size} entries, dataset has "
            f"{ds.num_unlabeled} unlabeled samples"
        )
    truth = ds.labels[ds.unlabeled_indices]
    scores = {
        "acc": clustering_accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "purity": purity(pred, truth),
    }
    print(json.dumps(scores))
    return EXIT_OK


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a new file renamed over it. The
    file is created with mode 0666, so it gets the umask's permissions."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
