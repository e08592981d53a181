import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FIXTURE_DIR, run_cli

import mvncd.cli
from mvncd import solver
from mvncd.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_dataset,
    write_dataset,
)
from mvncd.solver import FitResult

REPORT_KEYS = {
    "schema_version", "tool_version", "seed", "dataset", "config",
    "metrics", "alpha", "objective_trace", "iterations", "converged",
    "wall_time",
}
DATASET_KEYS = {
    "num_samples", "num_labeled", "num_unlabeled", "num_views", "view_dims",
    "num_known_classes", "num_novel_classes",
}


def run_fixture(out_dir, *extra):
    return run_cli(["run", "--data", str(FIXTURE_DIR), "--out", str(out_dir),
                    *extra])


def strip_wall_time(text):
    return re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', text)


# --- run ---

def test_run_on_bundled_fixture(tmp_path):
    code, stdout, _ = run_fixture(tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert set(report["dataset"]) == DATASET_KEYS
    assert set(report["metrics"]) == {"acc", "nmi", "purity"}
    assert report["metrics"]["acc"] >= 0.95
    assert report["converged"] is True
    assert report["iterations"] < 50
    assert all(0.0 <= report["metrics"][m] <= 1.0 for m in report["metrics"])
    assert "acc=" in stdout

    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,objective,alpha_0,alpha_1"
    assert len(trace) == len(report["objective_trace"]) + 1

    assignment = (tmp_path / "assignment.csv").read_text().splitlines()
    assert len(assignment) == report["dataset"]["num_unlabeled"]


def test_run_deterministic_reports(tmp_path):
    run_fixture(tmp_path / "a", "--seed", "3")
    run_fixture(tmp_path / "b", "--seed", "3")
    a = strip_wall_time((tmp_path / "a" / "report.json").read_text())
    b = strip_wall_time((tmp_path / "b" / "report.json").read_text())
    assert a == b
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_lambda1_zero_does_not_beat_default(tmp_path):
    _, _, _ = run_fixture(tmp_path / "default")
    run_fixture(tmp_path / "nosup", "--lambda1", "0")
    acc = json.loads((tmp_path / "default" / "report.json").read_text())["metrics"]["acc"]
    acc0 = json.loads((tmp_path / "nosup" / "report.json").read_text())["metrics"]["acc"]
    assert acc0 <= acc


def test_run_bad_data_path(tmp_path):
    code, _, stderr = run_cli(["run", "--data", str(tmp_path / "missing"),
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in stderr
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_invalid_lambda(tmp_path):
    code, _, stderr = run_fixture(tmp_path, "--lambda1", "-2")
    assert code == 2
    assert "error" in stderr


def test_run_refuses_non_finite_settings(tmp_path):
    for flag, value in (("--lambda1", "nan"), ("--lambda2", "inf"),
                        ("--tol", "nan")):
        out = tmp_path / flag.lstrip("-")
        code, _, stderr = run_fixture(out, flag, value)
        assert code == 2
        assert f"{flag.lstrip('-')} must be finite" in stderr
        assert f"got {value}" in stderr
        assert not out.exists()


def test_run_refuses_non_monotone_trace(tmp_path, monkeypatch):
    real_fit = mvncd.cli.fit

    def doctored(ds, cfg):
        result = real_fit(ds, cfg)
        trace = list(result.objective_trace) + [result.objective_trace[-1] + 1.0]
        return FitResult(
            novel_assignment=result.novel_assignment,
            objective_trace=trace,
            alpha_trace=result.alpha_trace + [result.alpha_trace[-1]],
            iterations=result.iterations + 1,
            converged=result.converged,
            wall_time=result.wall_time,
            state=result.state,
        )

    monkeypatch.setattr(mvncd.cli, "fit", doctored)
    code, _, stderr = run_fixture(tmp_path)
    assert code == 3
    assert "monoton" in stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flags", [
    ["--normalize", "zscore"], ["--normalize", "l2"], ["--normalize", "none"],
    ["--ablate-labeled"],
])
def test_run_equals_fit_on_the_views_as_stored(tmp_path, flags):
    # run normalizes the views while it loads them (not under
    # --ablate-labeled); its outputs are those of fit on the raw load
    code, _, _ = run_fixture(tmp_path, *flags)
    assert code == 0
    args = mvncd.cli._build_parser().parse_args(
        ["run", "--data", str(FIXTURE_DIR), "--out", str(tmp_path), *flags])
    cfg = mvncd.cli._config_from_args(args, args.lambda1, args.lambda2)
    result = solver.fit(load_dataset(FIXTURE_DIR), cfg)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["objective_trace"] == result.objective_trace
    assert report["alpha"] == list(result.alpha_trace[-1])
    assert (tmp_path / "trace.csv").read_text() == mvncd.cli._trace_csv(result)
    assert (tmp_path / "assignment.csv").read_text() == "".join(
        f"{int(c)}\n" for c in result.novel_assignment)


@pytest.mark.skipif(os.name != "posix", reason="umask semantics are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert run_fixture(tmp_path / "run")[0] == 0
        assert run_cli(["sweep", "--data", str(FIXTURE_DIR),
                        "--lambda1-grid", "1", "--lambda2-grid", "1,10",
                        "--out", str(tmp_path / "sweep")])[0] == 0
    finally:
        os.umask(previous)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert sorted(p.name for p in files) == sorted([
        "report.json", "trace.csv", "assignment.csv",
        "run_l1_1_l2_1.json", "run_l1_1_l2_10.json", "summary.csv"])
    for path in files:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_run_peak_memory_stays_near_one_copy_of_the_views(tmp_path):
    # A fresh interpreter reads its peak RSS after the imports and after a
    # run on 6,000 samples of 3 x 100 features (three CSVs of about 12 MB,
    # parsed by forked children on two or more CPUs). Measured on 2 vCPUs
    # with OpenBLAS, 3 runs each: 3.88x the views' bytes while the raw
    # views were kept beside their normalized copy and k-means' distance
    # product left OpenBLAS's packing pages resident; 2.54x with the views
    # normalized in place at load and the samples on the product's
    # small-block side.
    pytest.importorskip("resource")
    spec = SyntheticSpec(views=3, classes=10, per_class=600, dims=100,
                         separation=4.0, noise=1.0, seed=0)
    write_dataset(generate_synthetic(spec), tmp_path / "data")
    view_bytes = 6000 * 300 * 8
    # A process spawned by this one starts with this one's peak RSS as its
    # own (vfork, then exec), so the probe measures in a forked child of
    # the still small interpreter.
    probe = (
        "import os, resource, sys\n"
        "if os.fork():\n"
        "    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
        "import mvncd.cli\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "code = mvncd.cli.main(['run', '--data', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, before, peak(), flush=True)\n"
        "os._exit(0)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(mvncd.cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "data"), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src_dir), check=True, timeout=300,
        capture_output=True, text=True).stdout
    code, before, after = map(int, out.split()[-3:])
    assert code == 0
    unit = 1 if sys.platform == "darwin" else 1024   # ru_maxrss: bytes or KiB
    ratio = (after - before) * unit / view_bytes
    assert ratio <= 3.2, f"peak RSS grew by {ratio:.2f}x the views' bytes"


def test_run_refuses_label_beyond_integer_range(tmp_path):
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path / "data")
    csv = tmp_path / "data" / "labels.csv"
    lines = csv.read_text().splitlines()
    lines[0] = "1e300"
    csv.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run_cli(["run", "--data", str(tmp_path / "data"),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert "labels must lie in [0, 4), got range [0, 1e+300]" in stderr
    assert not (tmp_path / "out").exists()


def test_run_and_sweep_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs 10-14 ms per CLI call; np.unique, np.setdiff1d and
    # np.isin import it on first use
    probe = ("import json, sys, mvncd.cli\n"
             "assert mvncd.cli.main(json.loads(sys.argv[1])) == 0\n"
             "print('numpy.ma' in sys.modules)")
    src_dir = os.path.dirname(os.path.dirname(mvncd.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    for argv in (["run", "--data", str(FIXTURE_DIR), "--out", str(tmp_path / "run")],
                 ["sweep", "--jobs", "1", "--data", str(FIXTURE_DIR),
                  "--out", str(tmp_path / "sweep")]):
        out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        assert out.splitlines()[-1] == "False", argv


def test_run_refuses_constant_view(tmp_path):
    base = generate_synthetic(SyntheticSpec(views=2, classes=6, per_class=50,
                                            dims=8, separation=6.0, noise=1.0,
                                            seed=0))
    arrays = [v.data for v in base.views]
    arrays.append(np.full((8, base.num_samples), 3.0))
    write_dataset(make_dataset(arrays, base.labels, base.num_classes),
                  tmp_path / "data")
    code, _, stderr = run_cli(["run", "--data", str(tmp_path / "data"),
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "view 2" in stderr and "constant" in stderr
    assert not (tmp_path / "out").exists()


def test_run_refuses_malformed_manifest_field(tmp_path):
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.json"
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()),
                                        views=5)))
    code, _, stderr = run_cli(["run", "--data", str(tmp_path / "data"),
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'views' must be a list of objects" in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("view_0.csv", "view 0: contains non-finite values"),
    ("labels.csv", "labels: contains non-finite values"),
])
def test_run_refuses_nan_in_a_csv(tmp_path, name, message):
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path / "data")
    csv = tmp_path / "data" / name
    lines = csv.read_text().splitlines()
    lines[-1] = ",".join(["nan"] * len(lines[-1].split(",")))
    csv.write_text("\n".join(lines) + "\n")
    code, _, stderr = run_cli(["run", "--data", str(tmp_path / "data"),
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in stderr
    assert not (tmp_path / "out").exists()


def test_cli_no_command():
    code, stdout, _ = run_cli([])
    assert code == 2
    assert "usage" in stdout


# --- synth ---

def test_synth_deterministic(tmp_path):
    args = ["synth", "--seed", "7", "--views", "2", "--classes", "4",
            "--per-class", "5", "--dims", "5,6"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    for name in ("view_0.csv", "view_1.csv", "labels.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_synth_odd_class_split(tmp_path):
    code, _, _ = run_cli(["synth", "--classes", "7", "--per-class", "4",
                          "--dims", "8", "--out", str(tmp_path)])
    assert code == 0
    ds = load_dataset(tmp_path)
    assert ds.num_known == 3 and ds.num_novel == 4


def test_synth_round_trip_runs(tmp_path):
    run_cli(["synth", "--seed", "1", "--classes", "4", "--per-class", "10",
             "--dims", "6,6", "--separation", "9", "--noise", "0.5",
             "--out", str(tmp_path / "data")])
    code, _, _ = run_cli(["run", "--data", str(tmp_path / "data"),
                          "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dataset"]["num_views"] == 2


@pytest.mark.parametrize("flags, field", [
    (["--dims", ","], "dims"),
    (["--noise", ","], "noise"),
    (["--views", "3", "--dims", "8,8"], "dims"),
    (["--views", "3", "--noise", "1,2"], "noise"),
], ids=["no-dims", "no-noise", "two-dims-for-three-views",
        "two-noises-for-three-views"])
def test_synth_refuses_list_of_wrong_length(tmp_path, flags, field):
    code, _, stderr = run_cli(["synth", *flags, "--out", str(tmp_path / "data")])
    assert code == 2
    assert stderr.startswith(f"error: {field} needs one value or one per view")
    assert not (tmp_path / "data").exists()


# --- sweep ---

def test_sweep_default_grid(tmp_path):
    code, _, _ = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                          "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0] == "lambda1,lambda2,acc,nmi,purity,status"
    assert len(rows) == 37  # 6 x 6 grid
    accs = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(accs) - min(accs) <= 0.05
    # the default grid's values keep their short names
    texts = ["1", "10", "100", "1000", "10000", "100000"]
    assert [r.split(",")[:2] for r in rows[1:]] == [[a, b] for a in texts
                                                    for b in texts]
    reports = {p.name for p in tmp_path.glob("run_l1_*.json")}
    assert reports == {f"run_l1_{a}_l2_{b}.json" for a in texts for b in texts}


def test_sweep_names_values_that_print_alike_apart(tmp_path):
    code, _, _ = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                          "--lambda1-grid", "1,1.0000001", "--lambda2-grid", "1",
                          "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("run_l1_*.json")) == [
        "run_l1_1.0000001_l2_1.json", "run_l1_1_l2_1.json"]
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["1", "1"], ["1.0000001", "1"]]


def test_sweep_single_cell_matches_run(tmp_path):
    run_cli(["sweep", "--data", str(FIXTURE_DIR), "--lambda1-grid", "1",
             "--lambda2-grid", "1", "--out", str(tmp_path / "sweep")])
    run_cli(["run", "--data", str(FIXTURE_DIR), "--lambda1", "1",
             "--lambda2", "1", "--out", str(tmp_path / "run")])
    cell = json.loads((tmp_path / "sweep" / "run_l1_1_l2_1.json").read_text())
    single = json.loads((tmp_path / "run" / "report.json").read_text())
    assert cell["metrics"] == single["metrics"]
    assert cell["objective_trace"] == single["objective_trace"]


def test_sweep_records_cell_failure_and_continues(tmp_path):
    code, _, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                               "--lambda1-grid=-1,1", "--lambda2-grid", "1",
                               "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(rows) == 3
    assert "error" in rows[1] and rows[1].startswith("-1,1,,,,")
    ok_row = rows[2].split(",")
    assert ok_row[0] == "1" and ok_row[-1] == "ok"
    assert "lambda1=-1" in stderr


def test_sweep_records_non_finite_lambda_as_cell_error(tmp_path):
    code, _, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                               "--lambda1-grid", "1,nan",
                               "--lambda2-grid", "1,inf", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("1,1,") and rows[1].endswith(",ok")
    assert rows[2].startswith("1,inf,,,,") and "lambda2 must be finite" in rows[2]
    assert "got inf" in rows[2]
    for row in rows[3:]:
        assert row.startswith("nan,") and "lambda1 must be finite" in row
        assert "got nan" in row
    assert "lambda1=nan" in stderr


def test_sweep_refuses_dataset_the_model_cannot_fit(tmp_path):
    run_cli(["synth", "--classes", "4", "--per-class", "5", "--dims", "3",
             "--out", str(tmp_path / "data")])
    out = tmp_path / "out"
    code, _, stderr = run_cli(["sweep", "--data", str(tmp_path / "data"),
                               "--lambda1-grid", "1,10", "--lambda2-grid", "1",
                               "--out", str(out)])
    assert code == 2
    assert "view 0" in stderr
    assert not out.exists()


def test_sweep_refuses_config_error_every_cell_shares(tmp_path):
    for i, flags in enumerate((["--max-iter", "0"], ["--tol", "-1"],
                               ["--tol", "nan"])):
        out = tmp_path / f"case_{i}"
        code, _, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                                   "--lambda1-grid", "1,10",
                                   "--lambda2-grid", "1", *flags,
                                   "--out", str(out)])
        assert code == 2
        assert flags[0].lstrip("-").replace("-", "_") in stderr
        assert not out.exists()


def test_sweep_refuses_jobs_other_than_one(tmp_path):
    for jobs in ("0", "-3", "2"):
        out = tmp_path / f"jobs_{jobs}"
        code, _, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                                   "--lambda1-grid", "1",
                                   "--lambda2-grid", "1", "--jobs", jobs,
                                   "--out", str(out)])
        assert code == 2
        assert "--jobs" in stderr
        assert not out.exists()


def test_sweep_refuses_empty_grid(tmp_path):
    for flag in ("--lambda1-grid", "--lambda2-grid"):
        out = tmp_path / flag.lstrip("-")
        code, stdout, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                                        f"{flag}=,", "--out", str(out)])
        assert code == 2
        assert "grid" in stderr
        assert "sweep of" not in stdout
        assert not out.exists()


def test_sweep_prepares_once(tmp_path, monkeypatch):
    calls = []
    real = solver._initialize
    monkeypatch.setattr(solver, "_initialize",
                        lambda prob, cfg: calls.append(cfg) or real(prob, cfg))
    code, _, _ = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                          "--lambda1-grid", "1,10", "--lambda2-grid", "1,10",
                          "--jobs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


# --- eval ---

def test_eval_rescores_solver_output(tmp_path):
    run_fixture(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    code, stdout, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                               "--assignment", str(tmp_path / "assignment.csv")])
    assert code == 0
    assert json.loads(stdout) == report["metrics"]


def test_eval_truth_scores_perfect(tmp_path):
    ds = load_dataset(FIXTURE_DIR)
    truth = ds.labels[ds.unlabeled_indices]
    path = tmp_path / "truth.csv"
    path.write_text("".join(f"{c}\n" for c in truth))
    code, stdout, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                               "--assignment", str(path)])
    assert code == 0
    assert json.loads(stdout) == {"acc": 1.0, "nmi": 1.0, "purity": 1.0}


def test_eval_shuffled_assignment_near_chance(tmp_path):
    ds = load_dataset(FIXTURE_DIR)
    truth = ds.labels[ds.unlabeled_indices]
    shuffled = truth.copy()
    np.random.default_rng(0).shuffle(shuffled)
    path = tmp_path / "shuffled.csv"
    path.write_text("".join(f"{c}\n" for c in shuffled))
    _, stdout, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                            "--assignment", str(path)])
    acc = json.loads(stdout)["acc"]
    assert 0.5 <= acc <= 0.75  # two balanced novel classes


def test_eval_rejects_bad_assignment(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0\n1\n")
    code, _, stderr = run_cli(["eval", "--data", str(FIXTURE_DIR),
                               "--assignment", str(short)])
    assert code == 2 and "error" in stderr

    frac = tmp_path / "frac.csv"
    frac.write_text("".join("0.5\n" for _ in range(60)))
    code, _, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                          "--assignment", str(frac)])
    assert code == 2

    code, _, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                          "--assignment", str(tmp_path / "missing.csv")])
    assert code == 2

    for bad, message in (("inf", "assignment: contains non-finite values"),
                         ("-inf", "assignment: contains non-finite values"),
                         ("1e300", "64-bit"), ("9.3e18", "64-bit")):
        huge = tmp_path / "huge.csv"
        huge.write_text("".join(f"{bad}\n" if i == 0 else "0\n"
                                for i in range(60)))
        code, _, stderr = run_cli(["eval", "--data", str(FIXTURE_DIR),
                                   "--assignment", str(huge)])
        assert code == 2 and message in stderr, bad


@pytest.mark.parametrize("content", ["", "# header only\n\n"],
                         ids=["empty", "comment-only"])
def test_eval_refuses_assignment_without_data_rows(tmp_path, content):
    empty = tmp_path / "empty.csv"
    empty.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's own warning must not leak
        code, stdout, stderr = run_cli(["eval", "--data", str(FIXTURE_DIR),
                                        "--assignment", str(empty)])
    assert code == 2 and stdout == ""
    assert stderr == f"error: assignment: no data rows in {empty}\n"


def test_cli_import_loads_neither_scipy_nor_executor():
    # every CLI call pays this import; scipy.optimize alone took ~0.5 s, and
    # the parallel CSV parse needs nothing beyond os and io
    probe = ("import mvncd.cli, sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'multiprocessing') "
             "or m == 'concurrent.futures'))")
    src_dir = os.path.dirname(os.path.dirname(mvncd.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
