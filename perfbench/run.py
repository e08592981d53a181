"""Benchmark of the mvncd CLI: end-to-end metrics, and per-layer metrics
from a traced replay. Run from the repository root:

    python3 perfbench/run.py --workload run-20k --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

Each workload's input is generated with ``mvncd synth`` from ``--seed``;
generating it counts toward no metric. Every measured operation is one
``mvncd.cli.main`` call in a fresh interpreter (perfbench/child.py), one
process at a time, with BLAS at its default thread count. The children
inherit the environment, so ``OPENBLAS_NUM_THREADS=1`` set on this command
reaches them. Operations repeat until ``--seconds`` have passed, and at least
twice, so that each run checks that repeats of the same seed write
byte-identical outputs. NOTES.md says why each workload exists and which
end-to-end metric each per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170
MIN_OPS = 2            # a run needs a repeat to check byte-identical outputs
SETUP_SAMPLES = 7      # imports timed per run, op processes included
VIEWS = 3
SEPARATION = 4.0
NOISE = 1.0
WALL_TIME = re.compile(rb'"wall_time": [^,\n}]+')


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]        # CLI subcommand and flags; --data/--out follow
    samples: int
    classes: int
    dim: int                        # features per view
    smoke: tuple[int, int, int]     # (samples, classes, dim) under --smoke


WORKLOADS = {
    w.name: w for w in (
        # the large single fit: CSV load and init dominate, 2 iterations
        Workload("run-20k", ("run",), 20_000, 10, 100, (400, 4, 8)),
        # one load, then 36 prepare-and-fit cycles at small n
        Workload("sweep-4k", ("sweep", "--jobs", "1"), 4_000, 10, 100, (120, 4, 8)),
        # iteration count pinned at 40, so per-iteration cost reads directly
        Workload("iterate-wide", ("run", "--tol", "0", "--max-iter", "40"),
                 8_000, 20, 200, (200, 4, 8)),
    )
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("novel_nmi", "frac"))
PER_LAYER = (
    ("dataset.load_s", "s"), ("dataset.load_mb_per_s", "MB/s"),
    ("dataset.normalize_s", "s"),
    ("solver.initialize_s", "s"), ("baselines.kmeans_fit_s", "s"),
    ("baselines.kmeans_iters", "count"),
    ("solver.update_basis_ms", "ms"), ("solver.update_centroids_ms", "ms"),
    ("solver.make_buffers_ms", "ms"), ("solver.update_labels_ms", "ms"),
    ("solver.compute_residuals_ms", "ms"), ("solver.update_view_weights_ms", "ms"),
    ("solver.objective_ms", "ms"), ("solver.iter_ms", "ms"),
    ("solver.iterations", "count"), ("solver.changed_frac", "frac"),
    ("metrics.score_ms", "ms"), ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "frac"),
)
BLOCKS = ("update_basis", "update_centroids", "make_buffers", "update_labels",
          "compute_residuals", "update_view_weights", "objective")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Bench:
    env: dict
    smoke: bool

    def child(self, result: Path, mode: str, *extra: str) -> dict:
        """Run one child process to completion; its result, or a record of
        why it wrote none."""
        cmd = [sys.executable, str(CHILD), mode, "--result", str(result), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if not result.is_file():
            return {"exit_code": proc.returncode, "crashed": True,
                    "stderr": proc.stderr[-2000:]}
        out = json.loads(result.read_text())
        out["stderr"] = proc.stderr[-2000:]
        return out

    def shape(self, wl: Workload) -> tuple[int, int, int]:
        return wl.smoke if self.smoke else (wl.samples, wl.classes, wl.dim)

    def cli_args(self, wl: Workload, data: Path, out: Path) -> list[str]:
        return [*wl.command, "--data", str(data), "--out", str(out)]


@dataclass
class Inputs:
    data: Path
    truth: np.ndarray          # class of each unlabeled sample, dataset order
    csv_bytes: int
    samples: int
    classes: int
    dim: int
    generate_s: float


def generate(bench: Bench, wl: Workload, seed: int, work: Path) -> Inputs:
    samples, classes, dim = bench.shape(wl)
    data = work / "data"
    cmd = [sys.executable, "-m", "mvncd.cli", "synth", "--views", str(VIEWS),
           "--classes", str(classes), "--per-class", str(samples // classes),
           "--dims", str(dim), "--separation", str(SEPARATION),
           "--noise", str(NOISE), "--seed", str(seed), "--out", str(data)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=bench.env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"mvncd synth failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-1000:]}")
    # flush the new files now, so their writeback does not land in a timed
    # operation
    for path in data.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    labels = np.loadtxt(data / "labels.csv", dtype=int, ndmin=1)
    # default split: the first floor(k/2) class ids are known
    truth = labels[labels >= classes // 2]
    return Inputs(data=data, truth=truth,
                  csv_bytes=sum(p.stat().st_size for p in data.glob("*.csv")),
                  samples=samples, classes=classes, dim=dim,
                  generate_s=time.perf_counter() - start)


def masked_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: WALL_TIME.sub(b'"wall_time": 0', p.read_bytes())
            for p in sorted(out.iterdir())}


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Hungarian accuracy, computed independently of mvncd.metrics."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / pred.size)


def check_outputs(out: Path, inputs: Inputs) -> tuple[list[str], dict]:
    """Problems with one operation's outputs, and its novel-set quality."""
    problems = []
    if (out / "summary.csv").is_file():
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        bad = [line for line in lines if not line.endswith(",ok")]
        if bad or not lines:
            problems.append(f"{len(bad)} of {len(lines)} sweep cells not ok")
        reports = [json.loads(p.read_text()) for p in sorted(out.glob("run_*.json"))]
        if len(reports) != len(lines):
            problems.append(f"{len(reports)} cell reports for {len(lines)} cells")
    else:
        reports = [json.loads((out / "report.json").read_text())]
        pred = np.loadtxt(out / "assignment.csv", dtype=int, ndmin=1)
        if pred.size != inputs.truth.size:
            problems.append(f"assignment has {pred.size} rows, want {inputs.truth.size}")
        elif abs(accuracy(pred, inputs.truth) - reports[0]["metrics"]["acc"]) > 1e-12:
            problems.append("reported acc disagrees with assignment.csv")
    for report in reports:
        if report["dataset"]["num_samples"] != inputs.samples:
            problems.append("report describes another dataset")
    quality = {}
    if reports:
        quality = {"novel_acc": statistics.fmean(r["metrics"]["acc"] for r in reports),
                   "novel_nmi": statistics.fmean(r["metrics"]["nmi"] for r in reports)}
    return problems, quality


class Run:
    """Operations of one workload run; counts attempts and failures."""

    def __init__(self, bench: Bench, wl: Workload, inputs: Inputs, work: Path):
        self.bench, self.wl, self.inputs, self.work = bench, wl, inputs, work
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] | None = None
        self.facts: dict | None = None
        self.problems: list[str] = []

    def op(self, trace: bool = False) -> dict | None:
        """One checked operation; None when it failed."""
        index = self.attempted
        self.attempted += 1
        out = self.work / f"out_{index}"
        argv = self.bench.cli_args(self.wl, self.inputs.data, out)
        res = self.bench.child(self.work / f"op_{index}.json", "op",
                               *(["--trace"] if trace else []), "--", *argv)
        problems = []
        if res["exit_code"] != 0 or res.get("crashed"):
            problems.append(f"exit code {res['exit_code']}: {res['stderr'].strip()}")
        else:
            problems, quality = check_outputs(out, self.inputs)
            outputs = masked_outputs(out)
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                diff = sorted(n for n in set(outputs) | set(self.reference)
                              if outputs.get(n) != self.reference.get(n))
                problems.append(f"outputs differ from the first repeat: {diff[:5]}")
            problems.extend(res.get("replay_problems", []))
            res["quality"] = quality
            res["bytes_written"] = sum(len(b) for b in outputs.values())
            self.facts = self.facts or res.get("facts")
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)
            return None
        return res

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        ok = self.failed == 0 and bool(metrics) and all(
            np.isfinite(v) for v in metrics.values())
        return {"correct": ok, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    done = []
    while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        res = run.op()
        if res is not None:
            done.append(res)
    imports = [r["import_s"] for r in done]
    want = 1 if run.bench.smoke else SETUP_SAMPLES
    for i in range(want - len(imports)):
        setup = run.bench.child(run.work / f"setup_{i}.json", "setup")
        if "import_s" not in setup:
            raise HarnessError(f"setup child failed: {setup['stderr'].strip()}")
        imports.append(setup["import_s"])
    if not done:
        return {}, []
    walls = [r["wall_s"] for r in done]
    # repeats wrote byte-identical reports, so the first one's quality is all of theirs
    quality = done[0]["quality"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in done),
        "novel_nmi": quality["novel_nmi"],
    }
    lines = [f"  wall_s       {metrics['wall_s']:.4f} s  median of {len(walls)}; "
             f"{tail_text(walls)}",
             "               samples " + " ".join(f"{w:.3f}" for w in walls),
             f"  setup_s      {metrics['setup_s']:.4f} s  median of {len(imports)} imports",
             f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
             f"  novel_acc    {quality['novel_acc']:.6f} frac",
             f"  novel_nmi    {quality['novel_nmi']:.6f} frac",
             f"  failed_frac  {run.failed / run.attempted:.4f} frac "
             f"({run.failed} of {run.attempted} operations)"]
    return metrics, lines


def tail_text(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (needs 11 samples, has {n})"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) / n:.0f} {value:.4f} s"


def measure_layers(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Traced operations alternate with untraced ones: the untraced ones are
    the reference for the output check and for the tracing overhead."""
    start = time.perf_counter()
    traced, untraced = [], []
    while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        trace = run.attempted % 2 == 1
        res = run.op(trace=trace)
        if res is not None:
            (traced if trace else untraced).append(res)
    if not (traced and untraced):
        return {}, []
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    per_op, selfs = [], {}
    for res in traced:
        metrics, self_times = layer_metrics(res, run.inputs, untraced_wall)
        per_op.append(metrics)
        for name, value in self_times.items():
            selfs.setdefault(name, []).append(value)
    metrics = {name: statistics.median(m[name] for m in per_op) for name, _ in PER_LAYER}
    lines = [f"  {name:<30} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    lines.append(f"  self time per span, median of {len(per_op)} traced operations; "
                 f"untraced wall_s median of {len(untraced)}: {untraced_wall:.4f} s")
    lines += [f"    {name:<28} {statistics.median(v):.4f} s"
              for name, v in sorted(selfs.items(), key=lambda kv: -statistics.median(kv[1]))]
    return metrics, lines


def layer_metrics(res: dict, inputs: Inputs, untraced_wall: float) -> tuple[dict, dict]:
    spans = res["spans"]
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["children"] = 0.0
        span["blocks"] = {}
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            parent["children"] += span["dur"]
            block = span["name"].removeprefix("solver.")
            parent["blocks"][block] = parent["blocks"].get(block, 0.0) + span["dur"]

    def total(name: str) -> float:
        return sum(s["dur"] for s in spans if s["name"] == name)

    iters = [s for s in spans if s["name"] == "solver.iteration"]
    kmeans = [s for s in spans if s["name"] == "baselines.kmeans_fit"]
    main = next(s for s in spans if s["name"] == "cli.main")
    extra = sum(s["dur"] for s in spans if s.get("extra"))

    def per_iter_ms(block: str) -> float:
        return 1e3 * statistics.median(s["blocks"].get(block, 0.0) for s in iters)

    metrics = {
        "dataset.load_s": total("dataset.load"),
        "dataset.load_mb_per_s": inputs.csv_bytes / 1e6 / total("dataset.load"),
        "dataset.normalize_s": total("dataset.normalize"),
        "solver.initialize_s": total("solver.initialize"),
        "baselines.kmeans_fit_s": total("baselines.kmeans_fit"),
        "baselines.kmeans_iters": statistics.median(s["iterations"] for s in kmeans),
        **{f"solver.{b}_ms": per_iter_ms(b) for b in BLOCKS},
        "solver.iter_ms": 1e3 * statistics.median(
            sum(s["blocks"].get(b, 0.0) for b in BLOCKS) for s in iters),
        "solver.iterations": len(iters),
        "solver.changed_frac": (sum(s["changed"] for s in iters)
                                / sum(s["entries"] for s in iters)),
        "metrics.score_ms": 1e3 * sum(total(f"metrics.{m}") for m in ("acc", "nmi", "purity")),
        "cli.self_s": main["dur"] - main["children"],
        "cli.bytes_written": res["bytes_written"],
        "trace.overhead_frac": (main["dur"] - extra - untraced_wall) / untraced_wall,
    }
    self_times = {}
    for s in spans:
        self_times[s["name"]] = self_times.get(s["name"], 0.0) + s["dur"] - s["children"]
    return metrics, self_times


def measure(bench: Bench, wl: Workload, seed: int, seconds: float,
            traces: tuple[bool, ...]) -> list[tuple[dict, list[str]]]:
    """Generate the workload's input once, then run it in each trace mode."""
    work = WORK_ROOT / f"{wl.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(bench, wl, seed, work)
        results = []
        for trace in traces:
            run_dir = work / ("traced" if trace else "untraced")
            run_dir.mkdir()
            run = Run(bench, wl, inputs, run_dir)
            measured = measure_layers if trace else measure_end_to_end
            metrics, lines = measured(run, seconds)
            units = dict(PER_LAYER if trace else END_TO_END)
            head = [f"workload {wl.name} seed {seed} trace {int(trace)}: n={inputs.samples} "
                    f"classes={inputs.classes} views={VIEWS}x{inputs.dim} "
                    f"csv_bytes={inputs.csv_bytes} generate_s={inputs.generate_s:.2f} "
                    "(counts toward no metric)",
                    "facts " + json.dumps(run.facts, sort_keys=True)]
            head += [f"  FAILED {p}" for p in run.problems]
            results.append((run.result(metrics, units), head + lines))
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def combine(results: dict[str, dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, both trace modes, "
                             "minimum repeats: checks the harness in seconds")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mvncd" / "cli.py").is_file():
        print(f"error: no mvncd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    bench = Bench(env=env, smoke=args.smoke)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.0 if args.smoke else args.seconds

    results = {}
    try:
        for name in names:
            for trace, (result, lines) in zip(
                    traces, measure(bench, WORKLOADS[name], args.seed, seconds, traces)):
                print("\n".join(lines), flush=True)
                results[f"{name}{'.traced' if trace else ''}"] = result
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = next(iter(results.values())) if len(results) == 1 else combine(results)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
