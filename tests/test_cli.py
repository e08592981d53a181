import dataclasses
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FIXTURE_DIR, run_cli

import mvncd.cli
from mvncd import dataset, solver
from mvncd.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_dataset,
    write_dataset,
)
from mvncd.solver import FitResult, SolverConfig, is_monotone

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


@pytest.mark.parametrize("flags", [[], ["--init-y", "random"],
                                   ["--hard-restrict-novel"],
                                   ["--ablate-labeled"]],
                         ids=["default", "random", "hard", "ablate"])
def test_run_with_a_declared_novel_class_that_has_no_sample(tmp_path, flags):
    # five declared classes, samples of four: novel class 4 is empty. The
    # fit still spreads the unlabeled samples over all three novel ids
    base = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=20,
                                            dims=6, seed=1))
    ds = make_dataset([v.data for v in base.views], base.labels, 5)
    assert ds.novel_classes.tolist() == [2, 3, 4]
    write_dataset(ds, tmp_path / "data")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code, _, _ = run_cli(["run", "--data", str(tmp_path / "data"),
                              "--out", str(out), *flags])
        assert code == 0
    report = json.loads((outs[0] / "report.json").read_text())
    assert is_monotone(report["objective_trace"])
    assert strip_wall_time((outs[0] / "report.json").read_text()) == \
        strip_wall_time((outs[1] / "report.json").read_text())
    for name in ("trace.csv", "assignment.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_huge_lambda1_is_dropped_with_the_labeled_samples(tmp_path):
    # 2 * 1e308 overflows; the ablation's zero mismatches times it would be
    # NaN, so the count is formed first and the term is exactly 0
    for value in ("1", "1e308"):
        assert run_fixture(tmp_path / value, "--lambda1", value, "--ablate-labeled")[0] == 0
    for name in ("trace.csv", "assignment.csv"):
        assert (tmp_path / "1e308" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    assert run_fixture(tmp_path / "kept", "--lambda1", "1e308")[0] == 0


def test_run_refuses_lambda2_whose_separation_term_overflows(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's "invalid value in multiply"
        code, _, stderr = run_fixture(tmp_path / "out", "--lambda2", "1e308")
    assert code == 2
    assert "error: lambda2 must keep 2 * lambda2 * n_l * n_u finite" in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_num_classes_the_class_split_cannot_hold_is_refused(tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(FIXTURE_DIR, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["num_classes"] = 10**12
    (data / "manifest.json").write_text(json.dumps(manifest))
    argv = {"run": ["--out", str(tmp_path / "out")],
            "eval": ["--assignment", str(data / "labels.csv")]}[command]
    code, stdout, stderr = run_cli([command, "--data", str(data), *argv])
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: num_classes must be at least 2 and at most")
    assert stderr.endswith("got 1000000000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("known", ["100000000000000000000", "-100000000000000000000"])
@pytest.mark.parametrize("command", ["run", "eval"])
def test_known_class_ids_past_64_bits_are_refused(tmp_path, command, known):
    argv = {"run": ["--out", str(tmp_path / "out")],
            "eval": ["--assignment", str(FIXTURE_DIR / "labels.csv")]}[command]
    code, stdout, stderr = run_cli([command, "--data", str(FIXTURE_DIR),
                                    "--known-classes", known, *argv])
    shown = f"{float(known):.15g}"
    assert code == 2 and stdout == ""
    assert stderr == (f"error: known class ids must lie in [0, 4), "
                      f"got range [{shown}, {shown}]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("view_file", ["present", "absent"])
@pytest.mark.parametrize("command", ["run", "eval"])
def test_a_declared_dim_counts_only_up_to_what_its_file_holds(tmp_path, command,
                                                              view_file):
    # a huge num_classes beside a view dim as huge: the bound must not take
    # the dim on trust, or the class split allocates 10**12 entries; an
    # absent file holds no column
    data = tmp_path / "data"
    shutil.copytree(FIXTURE_DIR, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["num_classes"] = manifest["views"][0]["dim"] = 10**12
    if view_file == "absent":
        manifest["views"][0]["path"] = "missing.csv"
    (data / "manifest.json").write_text(json.dumps(manifest))
    argv = {"run": ["--out", str(tmp_path / "out")],
            "eval": ["--assignment", str(data / "labels.csv")]}[command]
    code, stdout, stderr = run_cli([command, "--data", str(data), *argv])
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: num_classes must be at least 2 and at most")
    assert stderr.endswith("got 1000000000000\n") and stderr.count("\n") == 1
    # the width it names is the files' cap, not the declared dim
    assert ", counting a declared dim only up to the columns its file can hold, " in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_refused_before_data_is_read(tmp_path, command):
    # the data path does not exist, so only a check made before loading
    # can name the seed
    out = tmp_path / "out"
    code, _, stderr = run_cli([command, "--data", str(tmp_path / "missing"),
                               "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "seed must be >= 0, got -1" in stderr
    assert not out.exists()


def test_run_accepts_huge_seed(tmp_path):
    code, _, _ = run_fixture(tmp_path, "--seed", "99999999999999999999999")
    assert code == 0


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
    cfg = mvncd.cli._from_flags(SolverConfig, args)
    result = solver.fit(load_dataset(FIXTURE_DIR), cfg)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["objective_trace"] == result.objective_trace
    assert report["alpha"] == list(result.alpha_trace[-1])
    assert (tmp_path / "trace.csv").read_text() == mvncd.cli._trace_csv(result)
    assert (tmp_path / "assignment.csv").read_text() == "".join(
        f"{int(c)}\n" for c in result.novel_assignment)


def _with_permuted_truth(tmp_path):
    """A copy of the fixture whose unlabeled samples' truth labels are
    permuted among them; the known/novel split stays as it was."""
    ds = load_dataset(FIXTURE_DIR)
    labels = ds.labels.copy()
    cols = ds.unlabeled_indices
    labels[cols] = labels[cols][np.random.default_rng(0).permutation(cols.size)]
    assert not np.array_equal(labels, ds.labels)
    data = tmp_path / "permuted"
    data.mkdir()
    for path in FIXTURE_DIR.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    (data / "labels.csv").write_text("".join(f"{c}\n" for c in labels))
    return data


def _without_scores(report_path):
    report = json.loads(report_path.read_text())
    del report["metrics"], report["wall_time"]
    return report


@pytest.mark.parametrize("flags", [[], ["--init-y", "random"], ["--ablate-labeled"]],
                         ids=["default", "random-start", "ablate-labeled"])
def test_run_never_reads_the_truth_of_unlabeled_samples(tmp_path, flags):
    # the truth of the unlabeled samples reaches only the metrics
    permuted = _with_permuted_truth(tmp_path)
    for data, out in ((FIXTURE_DIR, "a"), (permuted, "b")):
        code, _, _ = run_cli(["run", "--data", str(data),
                              "--out", str(tmp_path / out), *flags])
        assert code == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("assignment.csv", "trace.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert _without_scores(a / "report.json") == _without_scores(b / "report.json")
    assert (json.loads((a / "report.json").read_text())["metrics"]
            != json.loads((b / "report.json").read_text())["metrics"])


def test_sweep_never_reads_the_truth_of_unlabeled_samples(tmp_path):
    permuted = _with_permuted_truth(tmp_path)
    for data, out in ((FIXTURE_DIR, "a"), (permuted, "b")):
        code, _, _ = run_cli(["sweep", "--data", str(data), "--out", str(tmp_path / out),
                              "--lambda1-grid", "1,10", "--lambda2-grid", "1,100"])
        assert code == 0
    a, b = tmp_path / "a", tmp_path / "b"
    names = sorted(p.name for p in a.glob("run_l1_*.json"))
    assert len(names) == 4 and names == sorted(p.name for p in b.glob("run_l1_*.json"))
    for name in names:
        assert _without_scores(a / name) == _without_scores(b / name)
    # every summary cell but the metrics: acc, nmi and purity
    tables = [[row.split(",") for row in (out / "summary.csv").read_text().splitlines()]
              for out in (a, b)]
    kept = [[row[:2] + row[5:] for row in table] for table in tables]
    assert kept[0] == kept[1]
    assert [row[2:5] for row in tables[0]] != [row[2:5] for row in tables[1]]


def test_run_without_solver_flags_uses_the_config_defaults(tmp_path):
    assert run_fixture(tmp_path)[0] == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"] == dataclasses.asdict(SolverConfig())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_data_without_unlabeled_samples_is_refused(tmp_path, command):
    # classes 2 and 3 are novel under the default split, but no sample has
    # either label
    base = load_dataset(FIXTURE_DIR)
    keep = base.labeled_indices
    write_dataset(make_dataset([v.data[:, keep] for v in base.views],
                               base.labels[keep], 4), tmp_path / "data")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli([command, "--data", str(tmp_path / "data"),
                                    "--out", str(out)])
    assert code == 2 and stdout == ""
    assert stderr == ("error: no unlabeled samples: none of the novel classes "
                      "[2, 3] has a sample to cluster\n")
    assert not out.exists()


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


def test_run_never_writes_through_a_planted_temporary_name(tmp_path, monkeypatch):
    # the random part of the name is fixed, so the symlink sits at exactly
    # the temporary name that report.json is written to
    monkeypatch.setattr(os, "urandom", lambda n: b"\x5a" * n)
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me\n")
    out = tmp_path / "out"
    out.mkdir()
    planted = out / f".report.json.{'5a' * 8}.tmp"
    planted.symlink_to(victim)
    code, stdout, stderr = run_fixture(out)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: [Errno 17] File exists: '{planted}'\n"
    assert victim.read_text() == "keep me\n"
    assert os.listdir(out) == [planted.name]


@pytest.mark.parametrize("command, blocked, written", [
    ("run", "trace.csv", []),
    ("sweep", "summary.csv", ["run_l1_1_l2_1.json"])])
def test_a_refused_write_leaves_no_temporary_file(tmp_path, command, blocked, written):
    # a directory stands where an output file goes, so its rename fails;
    # run writes its three outputs as one group, so it replaces none
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    grids = ["--lambda1-grid", "1", "--lambda2-grid", "1"] if command == "sweep" else []
    code, _, stderr = run_cli([command, "--data", str(FIXTURE_DIR), "--out", str(out),
                               *grids])
    assert code == 2 and stderr.startswith("error: ")
    assert sorted(os.listdir(out)) == sorted([blocked, *written])
    assert os.listdir(out / blocked) == []


def test_run_peak_memory_stays_near_one_copy_of_the_views(tmp_path):
    # A fresh interpreter reads its peak RSS after the imports and after a
    # run on 6,000 samples of 3 x 100 features (three CSVs of about 12 MB,
    # parsed by forked children on two or more CPUs). Measured on 2 vCPUs
    # with OpenBLAS, 3 runs each: 2.55-2.57x the views' bytes while k-means
    # clustered a stacked copy of the unlabeled samples (half of them here,
    # so 0.5x), 2.11x with k-means on the views in place. The bound keeps
    # that copy from coming back, also for a second run that reads the
    # views from the parse cache the first one wrote.
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
    unit = 1 if sys.platform == "darwin" else 1024   # ru_maxrss: bytes or KiB
    cache = tmp_path / "data" / ".mvncd_cache"
    entries = {}
    # cold: the views are parsed and cached; warm: read from their entries
    for run in ("cold", "warm"):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "data"), str(tmp_path / run)],
            env=dict(os.environ, PYTHONPATH=src_dir), check=True, timeout=300,
            capture_output=True, text=True).stdout
        code, before, after = map(int, out.split()[-3:])
        assert code == 0
        ratio = (after - before) * unit / view_bytes
        assert ratio <= 2.4, f"{run} run: peak RSS grew by {ratio:.2f}x the views' bytes"
        # a hit leaves its entry as it was; a miss would replace it
        entries[run] = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                        for p in cache.iterdir()}
    assert sorted(name.split(".")[0] for name in entries["cold"]) == [
        "view_0", "view_1", "view_2"]
    assert entries["warm"] == entries["cold"]


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


def test_synth_without_flags_writes_the_default_spec(tmp_path):
    assert run_cli(["synth", "--out", str(tmp_path / "cli")])[0] == 0
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "lib" / name).read_bytes(), name


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


@pytest.mark.parametrize("flag", ["--separation", "--noise"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_synth_names_a_non_finite_value(tmp_path, flag, value):
    code, _, stderr = run_cli(["synth", flag, value,
                               "--out", str(tmp_path / "data")])
    assert code == 2
    assert stderr.startswith(
        f"error: {flag.lstrip('-')} must be finite and >= 0, got {value}")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("flags", [
    ["--per-class", "100000000000000000"],     # 2.78 EiB of labels
    ["--per-class", "10000000000000000000"],   # past 64 bits
    ["--dims", "100000000000000000"],          # 2.78 EiB of class means
    ["--classes", "1000000000000000000"],      # 6.94 EiB of class ids
], ids=["per-class", "per-class-past-64-bits", "dims", "classes"])
def test_synth_refuses_a_size_too_large_to_allocate(tmp_path, flags):
    # each request is an EiB or more, past any address space, so numpy
    # refuses it before it touches memory
    code, stdout, stderr = run_cli(["synth", *flags, "--out", str(tmp_path / "data")])
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert not (tmp_path / "data").exists()


def test_synth_refuses_negative_seed(tmp_path):
    code, _, stderr = run_cli(["synth", "--seed", "-3",
                               "--out", str(tmp_path / "data")])
    assert code == 2
    assert stderr.startswith("error: seed must be >= 0, got -3")
    assert not (tmp_path / "data").exists()
    code, _, _ = run_cli(["synth", "--seed", "99999999999999999999999",
                          "--out", str(tmp_path / "huge")])
    assert code == 0


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


# labels move from the random start in every cell, and the four cells end
# at two partitions, each reached twice
MOVING_FLAGS = ["--init-y", "random", "--tol", "0", "--max-iter", "5"]
MOVING_GRID = ["--lambda1-grid", "0,1e5", "--lambda2-grid", "0,1e5"]


def _overlapping_blobs(directory):
    spec = SyntheticSpec(classes=4, per_class=20, dims=(6, 6), separation=2.0, seed=1)
    write_dataset(generate_synthetic(spec), directory)
    return directory


def _sweep_equals_lone_runs(data, out):
    """Sweep ``data`` over MOVING_GRID, run each cell alone, and check that
    every cell report is the lone run's report.json and every summary row
    holds its scores; returns the lone runs' reports by cell."""
    code, _, _ = run_cli(["sweep", "--data", str(data), "--out", str(out / "sweep"),
                          *MOVING_FLAGS, *MOVING_GRID])
    assert code == 0
    rows, reports = ["lambda1,lambda2,acc,nmi,purity,status"], {}
    for l1, l2 in [("0", "0"), ("0", "100000"), ("100000", "0"), ("100000", "100000")]:
        lone = out / f"run_{l1}_{l2}"
        code, _, _ = run_cli(["run", "--data", str(data), "--out", str(lone),
                              "--lambda1", l1, "--lambda2", l2, *MOVING_FLAGS])
        assert code == 0
        text = (lone / "report.json").read_text()
        cell = (out / "sweep" / f"run_l1_{l1}_l2_{l2}.json").read_text()
        assert strip_wall_time(cell) == strip_wall_time(text)
        reports[l1, l2] = json.loads(text)
        m = reports[l1, l2]["metrics"]
        rows.append(f"{l1},{l2},{m['acc']:.12g},{m['nmi']:.12g},{m['purity']:.12g},ok")
    assert (out / "sweep" / "summary.csv").read_text() == "\n".join(rows) + "\n"
    return reports


def test_every_sweep_cell_matches_a_lone_run(tmp_path):
    data = _overlapping_blobs(tmp_path / "data")
    reports = _sweep_equals_lone_runs(data, tmp_path)
    # the labels move in every cell, and two cells share each partition
    ds = load_dataset(data, normalize="zscore")
    partitions = set()
    for l1, l2 in reports:
        cfg = SolverConfig(lambda1=float(l1), lambda2=float(l2),
                           init_y_novel="random", tol=0.0, max_iter=5)
        moved = solver.fit(ds, cfg).state.y
        assert (moved != solver.initialize(ds, cfg).y).any()
        partitions.add(moved[ds.unlabeled_indices].tobytes())
    assert len(partitions) == 2


def test_sweep_scores_each_dataset_on_its_own_truth(tmp_path):
    # Two sweeps in one process, on twins whose novel truth differs in six
    # samples. The fits never read that truth, so both sweeps reach the same
    # assignments, byte for byte; the scores of one must not serve the other.
    data = _overlapping_blobs(tmp_path / "data")
    twin = tmp_path / "twin"
    twin.mkdir()
    for path in data.iterdir():
        (twin / path.name).write_bytes(path.read_bytes())
    labels = np.loadtxt(data / "labels.csv", dtype=int)
    second, third = np.flatnonzero(labels == 2)[:3], np.flatnonzero(labels == 3)[:3]
    labels[second], labels[third] = 3, 2
    (twin / "labels.csv").write_text("".join(f"{c}\n" for c in labels))
    first = _sweep_equals_lone_runs(data, tmp_path / "a")
    again = _sweep_equals_lone_runs(twin, tmp_path / "b")
    for cell in first:
        assert first[cell]["objective_trace"] == again[cell]["objective_trace"]
        assert first[cell]["metrics"] != again[cell]["metrics"]


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


def test_sweep_records_an_overflowing_lambda2_as_cell_error(tmp_path):
    code, _, stderr = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                               "--lambda1-grid", "1,10",
                               "--lambda2-grid", "1,1e308", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["1", "1"], ["1", "1e+308"], ["10", "1"], ["10", "1e+308"]]
    for row in rows[0::2]:
        assert row.endswith(",ok")
    for row in rows[1::2]:
        assert ",,,,\"error: lambda2 must keep 2 * lambda2 * n_l * n_u finite" in row
    assert sorted(os.listdir(tmp_path)) == ["run_l1_10_l2_1.json", "run_l1_1_l2_1.json",
                                            "summary.csv"]
    assert stderr.count("lambda2=1e+308: error: lambda2 must keep") == 2


def test_sweep_lets_a_solver_defect_through(tmp_path, monkeypatch):
    # only a cell's own lambdas make an error row; anything a fit raises
    # ends the sweep before it writes any file, so the report of the cell
    # fitted before it is not written either
    def broken_after_one(ds, cfg):
        if cfg.lambda1 > 1:
            raise RuntimeError("solver defect")
        return solver.fit(ds, cfg)

    monkeypatch.setattr(mvncd.cli, "fit", broken_after_one)
    with pytest.raises(RuntimeError, match="solver defect"):
        run_cli(["sweep", "--data", str(FIXTURE_DIR), "--lambda1-grid", "1,10",
                 "--lambda2-grid", "1", "--out", str(tmp_path)])
    assert os.listdir(tmp_path) == []


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


def test_sweep_refuses_repeated_grid_value(tmp_path):
    # a repeated value would fit one cell twice under one report name (a
    # repeated nan would write two error rows of one name); the data path
    # does not exist, so the grid is refused before loading
    for flag, grid, value in (("--lambda1-grid", "1,1", "1"),
                              ("--lambda2-grid", "10,1,1e1", "10"),
                              ("--lambda1-grid", "1,1.0", "1"),
                              ("--lambda2-grid", "nan,1,nan", "nan")):
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(["sweep", "--data", str(tmp_path / "missing"),
                                        flag, grid, "--out", str(out)])
        assert code == 2
        assert f"{flag} repeats the value {value}" in stderr
        assert "sweep of" not in stdout
        assert not out.exists()


def test_sweep_prepares_once(tmp_path, monkeypatch):
    # the fixture's labels do not move from the start, so the one class
    # statistics pass, with its frame product, is the preparation's
    calls, stats_calls = [], []
    real = solver._initial_assignment
    monkeypatch.setattr(solver, "_initial_assignment",
                        lambda prob, *args: calls.append(args) or real(prob, *args))
    real_stats = solver.class_stats
    monkeypatch.setattr(solver, "class_stats",
                        lambda *args: stats_calls.append(1) or real_stats(*args))
    solver._prepare.cache_clear()
    code, _, _ = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                          "--lambda1-grid", "1,10", "--lambda2-grid", "1,10",
                          "--jobs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    assert len(stats_calls) == 1


def test_sweep_cells_that_stop_in_iteration_1_build_one_assignment_cost(
        tmp_path, monkeypatch):
    # at these lambda2 the separation term's constant dwarfs the first step,
    # so every cell stops after iteration 1; all four then score the start's
    # assignment cost, which the preparation holds (the fixture's cells at
    # lambda2 1 and 10 take a second iteration, which drops it)
    calls = []
    real = solver.make_buffers
    monkeypatch.setattr(solver, "make_buffers",
                        lambda *args: calls.append(1) or real(*args))
    solver._prepare.cache_clear()
    code, _, _ = run_cli(["sweep", "--data", str(FIXTURE_DIR),
                          "--lambda1-grid", "1,10", "--lambda2-grid", "1e4,1e5",
                          "--out", str(tmp_path)])
    assert code == 0
    reports = [json.loads(path.read_text()) for path in tmp_path.glob("run_*.json")]
    assert len(reports) == 4 and all(r["iterations"] == 1 for r in reports)
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
    # every refusal names the assignment file first
    def refusal(text, name="bad.csv"):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        code, _, stderr = run_cli(["eval", "--data", str(FIXTURE_DIR),
                                   "--assignment", str(path)])
        assert code == 2
        assert stderr.startswith("error: assignment: "), stderr
        return stderr

    assert "2 entries" in refusal("0\n1\n")
    assert "non-integer" in refusal("".join("0.5\n" for _ in range(60)))
    assert "file not found" in refusal(None, "missing.csv")
    for bad, message in (("inf", "contains non-finite values"),
                         ("-inf", "contains non-finite values"),
                         ("1e300", "cluster id beyond the 64-bit integer range"),
                         ("9.3e18", "cluster id beyond the 64-bit integer range")):
        stderr = refusal("".join(f"{bad}\n" if i == 0 else "0\n"
                                 for i in range(60)))
        assert message in stderr, bad


def test_eval_reads_no_view_csv(tmp_path):
    # eval scores from the manifest and the labels alone, so it gives the
    # fixture's scores with every view CSV replaced by garbage
    run_fixture(tmp_path / "out")
    assignment = str(tmp_path / "out" / "assignment.csv")
    _, want, _ = run_cli(["eval", "--data", str(FIXTURE_DIR),
                          "--assignment", assignment])
    data = tmp_path / "data"
    data.mkdir()
    for path in FIXTURE_DIR.iterdir():
        text = "not, a, number\n" if path.name.startswith("view_") else path.read_text()
        (data / path.name).write_text(text)
    code, stdout, stderr = run_cli(["eval", "--data", str(data),
                                    "--assignment", assignment])
    assert (code, stdout, stderr) == (0, want, "")
    (data / "view_0.csv").unlink()
    assert run_cli(["eval", "--data", str(data), "--assignment", assignment])[0] == 0


@pytest.mark.parametrize("valid", [True, False], ids=["scored", "refused"])
def test_eval_of_a_large_assignment_writes_nothing(tmp_path, valid):
    # an assignment of 4 MiB or more is parsed as a large view CSV is, but
    # only view CSVs are cached: eval never writes into a directory
    run_fixture(tmp_path / "out")
    plain = tmp_path / "out" / "assignment.csv"
    _, want, _ = run_cli(["eval", "--data", str(FIXTURE_DIR), "--assignment", str(plain)])
    ids = plain.read_text().split()
    pad = "#" * (2 * dataset._MIN_RANGE_BYTES // len(ids))
    big = tmp_path / "big" / "assignment.csv"
    big.parent.mkdir()
    big.write_text("".join(f"{c} {pad}\n" for c in ids) + ("" if valid else "0\n"))
    assert big.stat().st_size >= 2 * dataset._MIN_RANGE_BYTES
    code, stdout, stderr = run_cli(["eval", "--data", str(FIXTURE_DIR),
                                    "--assignment", str(big)])
    if valid:
        assert (code, stdout, stderr) == (0, want, "")
    else:
        assert code == 2 and stderr.startswith("error: assignment: 61 entries")
    assert os.listdir(big.parent) == ["assignment.csv"]


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
    # every CLI call pays this import; scipy.optimize alone took ~0.5 s, the
    # parallel CSV parse needs nothing beyond os and io, and the parse cache
    # imports hashlib (5.8 ms) only when it hashes a file
    probe = ("import mvncd.cli, sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'multiprocessing') "
             "or m in ('concurrent.futures', 'hashlib')))")
    src_dir = os.path.dirname(os.path.dirname(mvncd.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
