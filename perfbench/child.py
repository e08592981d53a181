"""One measured operation of the mvncd benchmark, in a fresh interpreter.

Run by perfbench/run.py, never imported:

    python perfbench/child.py setup --result R.json
    python perfbench/child.py op --result R.json [--trace] -- run --data D --out O

``setup`` times ``import mvncd.cli`` and records machine facts. ``op`` does the
same and then times ``mvncd.cli.main(argv)`` and reads the process's peak RSS.
With ``--trace`` the CLI's calls into the other modules are replaced by timed
wrappers, and ``fit`` by a replay of its block order through the solver's
public functions, so every layer gets spans while the CLI itself is unchanged.
The replay's first fit is then compared with the real ``fit`` on the same
input, bit for bit. The result, spans included, goes to the ``--result`` file.
"""

import sys
import time


def main() -> int:
    # Time the import first, before this script loads anything the CLI would
    # otherwise pay for itself.
    start = time.perf_counter()
    import mvncd.cli
    import_s = time.perf_counter() - start

    import json
    from pathlib import Path

    args = sys.argv[1:]
    mode, result_path = args[0], Path(args[args.index("--result") + 1])
    expected_src = Path(__file__).resolve().parents[1] / "src"
    if expected_src not in Path(mvncd.cli.__file__).resolve().parents:
        print(f"error: imported mvncd from {mvncd.cli.__file__}, not from "
              f"{expected_src}", file=sys.stderr)
        return 2

    result = {"import_s": import_s, "facts": machine_facts()}
    if mode == "op":
        argv = args[args.index("--") + 1:]
        if "--trace" in args:
            result.update(run_traced(mvncd.cli, argv))
        else:
            start = time.perf_counter()
            result["exit_code"] = mvncd.cli.main(argv)
            result["wall_s"] = time.perf_counter() - start
        result["maxrss_kb"] = peak_rss_kb()
    result_path.write_text(json.dumps(result))
    return result.get("exit_code", 0)


def peak_rss_kb() -> int:
    import resource
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def machine_facts() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
    }


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tracer:
    """Spans kept in memory: name, start, end and the index of the parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"name": name, **attrs}

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def run_traced(cli, argv: list[str]) -> dict:
    from mvncd import solver

    tracer = Tracer()
    replay = {"first": None, "problems": []}
    cli.load_dataset = tracer.wrap("dataset.load", cli.load_dataset)
    cli.clustering_accuracy = tracer.wrap("metrics.acc", cli.clustering_accuracy)
    cli.nmi = tracer.wrap("metrics.nmi", cli.nmi)
    cli.purity = tracer.wrap("metrics.purity", cli.purity)
    cli.fit = lambda ds, cfg: _replay_fit(tracer, replay, ds, cfg)

    with tracer.span("cli.main") as main_span:
        code = cli.main(argv)
    problems = replay["problems"]
    if replay["first"] is None:
        problems.append("the CLI never called fit")
    else:
        ds, cfg, replayed = replay["first"]
        reference = solver.fit(ds, cfg)
        for field in ("objective_trace", "iterations", "converged"):
            if getattr(replayed, field) != getattr(reference, field):
                problems.append(f"replayed {field} differs from fit's")
        if not (reference.novel_assignment == replayed.novel_assignment).all():
            problems.append("replayed novel assignment differs from fit's")
        if any((mine != theirs).any() for mine, theirs
               in zip(replayed.alpha_trace, reference.alpha_trace)):
            problems.append("replayed view weights differ from fit's")
    return {"exit_code": code, "wall_s": main_span["end"] - main_span["start"],
            "spans": tracer.spans, "replay_problems": problems}


def _replay_fit(tracer, replay, ds, cfg):
    """``solver.fit``'s block order, one span per call into a public function.

    The dataset is normalized once here and then passed on with
    ``normalize="none"``, so ``initialize`` and ``objective_value`` do not
    normalize it again. k-means is also run as its own call on the same
    stacked unlabeled input that ``initialize`` clusters; that span is marked
    ``extra`` because the program does not do this work.
    """
    import dataclasses

    import numpy as np

    from mvncd import baselines, dataset, solver

    if cfg.ablate_labeled or cfg.track_block_objective:
        raise ValueError("the traced replay covers neither ablate_labeled "
                         "nor block-objective tracking")
    with tracer.span("solver.fit"):
        start = time.perf_counter()
        with tracer.span("dataset.normalize"):
            work = dataset.normalize_features(ds, cfg.normalize)
        raw = dataclasses.replace(cfg, normalize="none")
        with tracer.span("solver.initialize"):
            state = solver.initialize(work, raw)

        xs = [view.data for view in work.views]
        labeled, unlabeled = work.labeled_indices, work.unlabeled_indices
        truth_rows = work.class_rows()[work.labels[labeled]]
        label_counts = np.bincount(truth_rows, minlength=work.num_classes).astype(float)
        k_u = work.num_classes - work.num_known
        if cfg.init_y_novel == "kmeans" and unlabeled.size >= k_u:
            # initialize draws the k-means seed as the first value of its
            # generator; the basis padding that could draw earlier needs
            # rank-deficient views, which the benchmark inputs never are
            with tracer.span("baselines.kmeans_fit", extra=True) as rec:
                stacked = np.vstack([x[:, unlabeled] for x in xs])
                km_seed = int(np.random.default_rng(cfg.seed).integers(2**32))
                km = baselines.kmeans_fit(stacked, k_u, seed=km_seed)
                rec["iterations"] = km.iterations
            if not np.array_equal(work.num_known + km.assignment, state.y[unlabeled]):
                replay["problems"].append(
                    "k-means run on its own differs from initialize's")

        with tracer.span("solver.objective"):
            trace = [solver.objective_value(state, work, raw)]
        alphas = [state.view_weights.copy()]
        converged = False
        iterations = 0
        for iterations in range(1, cfg.max_iter + 1):
            with tracer.span("solver.iteration") as rec:
                with tracer.span("solver.update_basis"):
                    solver.update_basis(state, xs)
                with tracer.span("solver.update_centroids"):
                    solver.update_centroids(state, xs)
                with tracer.span("solver.make_buffers"):
                    buffers = solver.make_buffers(state, xs, label_counts)
                before = state.y.copy()
                with tracer.span("solver.update_labels"):
                    solver.update_labels_known(state, buffers, labeled,
                                               truth_rows, cfg.lambda1)
                    solver.update_labels_novel(state, buffers, unlabeled,
                                               cfg.lambda2,
                                               num_known=work.num_known,
                                               hard_restrict=cfg.hard_restrict_novel)
                rec["changed"] = int(np.count_nonzero(before != state.y))
                rec["entries"] = int(state.y.size)
                with tracer.span("solver.compute_residuals"):
                    residuals = solver.compute_residuals(buffers, state.y)
                with tracer.span("solver.update_view_weights"):
                    solver.update_view_weights(state, residuals, cfg.ablate_alpha)
                with tracer.span("solver.objective"):
                    current = solver.objective_value(state, work, raw)
            trace.append(current)
            alphas.append(state.view_weights.copy())
            previous = trace[-2]
            if abs(previous - current) / (abs(previous) + 1.0) < cfg.tol:
                converged = True
                break

    result = solver.FitResult(
        novel_assignment=state.y[unlabeled].copy(),
        objective_trace=trace,
        alpha_trace=alphas,
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
        state=state,
    )
    if replay["first"] is None:
        replay["first"] = (ds, cfg, result)
    return result


if __name__ == "__main__":
    sys.exit(main())
