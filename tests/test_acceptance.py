"""End-to-end acceptance gate.

One test per criterion, in order; each prints a single summary line (visible
under -s or -rA) after its assertions pass. Criteria 1 and 2 share one batch
of property runs. The real-data check at the end is best-effort: it skips
without data and records an expected failure rather than failing the build.
"""

import functools
import json
import os
import re
import time

import numpy as np
import pytest

from conftest import (
    FIXTURE_DIR,
    assert_joint_minimum,
    concat_kmeans_ncd,
    objective_lower_bound,
    replay_fit,
    run_cli,
)

from test_metrics import brute_force_acc, naive_nmi, naive_purity

from mvncd.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
)
from mvncd.metrics import clustering_accuracy, nmi, purity
from oracle import (
    brute_force_label,
    exhaustive_novel_fit,
    simplex_minimize_numeric,
)
from mvncd.solver import (
    ModelState,
    SolverConfig,
    fit,
    is_monotone,
    make_buffers,
    update_labels_known,
    update_labels_novel,
    update_view_weights,
)

BENCH_DIMS = (8, 8, 24)


def _bench_easy(seed):
    # sigma_gap / sigma = 6 in every view
    return generate_synthetic(SyntheticSpec(
        views=3, classes=6, per_class=100, dims=BENCH_DIMS,
        separation=6.0, noise=1.0, seed=seed))


def _bench_moderate(seed):
    # sigma_gap / sigma = 3 on the clean views; the third view is the
    # high-noise one that gives the view-weight module its signal
    return generate_synthetic(SyntheticSpec(
        views=3, classes=6, per_class=100, dims=BENCH_DIMS,
        separation=3.0, noise=(1.0, 1.0, 8.0), seed=seed))


def _novel_acc(ds, result):
    truth = ds.labels[ds.unlabeled_indices]
    return clustering_accuracy(result.novel_assignment, truth)


@functools.lru_cache(maxsize=1)
def _property_runs():
    """20 random instances and their fits."""
    rng = np.random.default_rng(20260814)
    runs = []
    elapsed = 0.0
    for _ in range(20):
        k = int(rng.choice([4, 6]))
        views = int(rng.choice([2, 3]))
        per_class = int(rng.integers(60, 601)) // k
        dims = tuple(int(rng.integers(k, k + 15)) for _ in range(views))
        ds = generate_synthetic(SyntheticSpec(
            views=views, classes=k, per_class=per_class, dims=dims,
            separation=float(rng.uniform(2.0, 6.0)),
            noise=float(rng.uniform(0.6, 1.4)),
            seed=int(rng.integers(2**31))))
        cfg = SolverConfig(seed=int(rng.integers(2**31)), max_iter=12,
                           lambda1=float(rng.uniform(0.5, 2.0)),
                           lambda2=float(rng.uniform(0.5, 2.0)))
        start = time.perf_counter()
        result = fit(ds, cfg)
        elapsed += time.perf_counter() - start
        runs.append((ds, cfg, result))
    return runs, elapsed


@functools.lru_cache(maxsize=1)
def _easy_results():
    out = []
    for seed in range(5):
        ds = _bench_easy(seed)
        out.append((ds, fit(ds, SolverConfig(seed=seed))))
    return out


@functools.lru_cache(maxsize=1)
def _moderate_results():
    # one seed per run, shared by the generator and the solver
    out = []
    for seed in range(20):
        ds = _bench_moderate(seed)
        accs = {}
        for name, cfg in (
            ("full", SolverConfig(seed=seed)),
            ("no_alpha", SolverConfig(seed=seed, ablate_alpha=True)),
            ("no_labeled", SolverConfig(seed=seed, ablate_labeled=True)),
        ):
            accs[name] = _novel_acc(ds, fit(ds, cfg))
        out.append((ds, accs))
    return out


def test_criterion_1_monotone_descent():
    runs, elapsed = _property_runs()
    for ds, cfg, result in runs:
        # the objective after every block, from a replay of fit that is
        # first held to fit's own trace
        replayed, per_block, _ = replay_fit(ds, cfg)
        assert replayed.objective_trace == result.objective_trace
        assert is_monotone(per_block), "objective rose inside an iteration"
        assert is_monotone(result.objective_trace)
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: per-block descent on {len(runs)} instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_lower_bound():
    runs, _ = _property_runs()
    for ds, cfg, result in runs:
        bound = objective_lower_bound(ds, cfg)
        slack = 1e-9 * (abs(bound) + 1.0)
        assert all(v >= bound - slack for v in result.objective_trace)
    print(f"\ncriterion 2 PASS: objective stayed above -2*lambda2*n_l*n_u "
          f"on {len(runs)} instances")


def _tiny_problem(rng):
    views = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    n = int(rng.integers(2, 9))
    bases, centroids, xs = [], [], []
    for _ in range(views):
        d = int(rng.integers(k, k + 3))
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        bases.append(q[:, :k])
        centroids.append(rng.standard_normal((k, k)))
        xs.append(rng.standard_normal((d, n)))
    state = ModelState(bases=bases, centroids=centroids,
                       y=rng.integers(0, k, size=n),
                       view_weights=rng.dirichlet(np.ones(views)))
    return state, xs, k, n


def test_criterion_3_block_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)

    checked = 0
    while checked < 500:  # labeled-column updates
        state, xs, k, n = _tiny_problem(rng)
        truth_rows = rng.integers(0, k, size=n)
        counts = np.bincount(truth_rows, minlength=k).astype(float)
        lam1 = float(rng.uniform(0.0, 2.0))
        buffers = make_buffers(state, xs, counts)
        update_labels_known(state, buffers, np.arange(n), truth_rows, lam1)
        for j in range(n):
            expect = brute_force_label([x[:, j] for x in xs], buffers.maps,
                                       state.view_weights, lambda1=lam1,
                                       truth_row=int(truth_rows[j]))
            assert state.y[j] == expect
        checked += n

    while checked < 1000:  # unlabeled-column updates
        state, xs, k, n = _tiny_problem(rng)
        counts = rng.integers(0, 4, size=k).astype(float)
        lam2 = float(rng.uniform(0.0, 2.0))
        buffers = make_buffers(state, xs, counts)
        update_labels_novel(state, buffers, np.arange(n), lam2)
        for j in range(n):
            expect = brute_force_label([x[:, j] for x in xs], buffers.maps,
                                       state.view_weights, lambda2=lam2,
                                       label_counts=counts)
            assert state.y[j] == expect
        checked += n
    label_updates = checked

    for _ in range(200):  # whole-block enumeration
        state, xs, k, n = _tiny_problem(rng)
        n = min(n, 6)
        xs = [x[:, :n] for x in xs]
        state.y = state.y[:n]
        counts = rng.integers(0, 3, size=k).astype(float)
        lam2 = float(rng.uniform(0.0, 2.0))
        buffers = make_buffers(state, xs, counts)
        update_labels_novel(state, buffers, np.arange(n), lam2)
        expect, _ = exhaustive_novel_fit(xs, buffers.maps, state.view_weights,
                                         lam2, counts)
        assert np.array_equal(state.y, expect)

    for _ in range(200):  # view-weight closed form vs numeric minimizer
        v = int(rng.integers(1, 5))
        residuals = rng.uniform(0.1, 10.0, size=v)
        state = ModelState(bases=[np.eye(2)] * v, centroids=[np.eye(2)] * v,
                           y=np.zeros(1, dtype=int),
                           view_weights=np.full(v, 1.0 / v))
        update_view_weights(state, residuals)
        numeric = simplex_minimize_numeric(residuals)
        assert np.max(np.abs(state.view_weights - numeric)) < 1e-6

    for i in range(200):  # basis update attains the joint minimum
        state, xs, k, n = _tiny_problem(rng)
        if i % 3 == 0:
            state.y = rng.integers(0, k - 1, size=n)  # row k - 1 stays empty
        assert_joint_minimum(state, xs)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\ncriterion 3 PASS: {label_updates} label updates, 200 exhaustive "
          f"blocks, 200 weight draws, 200 bases ({elapsed:.1f}s)")


def test_criterion_4_synthetic_recovery():
    worst = {"acc": 1.0, "nmi": 1.0, "purity": 1.0}
    for ds, result in _easy_results():
        truth = ds.labels[ds.unlabeled_indices]
        scores = {
            "acc": clustering_accuracy(result.novel_assignment, truth),
            "nmi": nmi(result.novel_assignment, truth),
            "purity": purity(result.novel_assignment, truth),
        }
        assert scores["acc"] >= 0.95
        assert scores["nmi"] >= 0.90
        assert scores["purity"] >= 0.95
        assert result.converged and result.iterations < 50
        worst = {k: min(worst[k], scores[k]) for k in worst}
    print(f"\ncriterion 4 PASS: 5 seeds, worst acc={worst['acc']:.3f} "
          f"nmi={worst['nmi']:.3f} purity={worst['purity']:.3f}")


def test_criterion_5_ablation_direction():
    results = _moderate_results()
    head = results[:5]
    for name in ("no_alpha", "no_labeled"):
        mean_full = np.mean([accs["full"] for _, accs in head])
        mean_ablated = np.mean([accs[name] for _, accs in head])
        assert mean_full >= mean_ablated, f"5-seed mean: full < {name}"
    gaps = {}
    for name in ("no_alpha", "no_labeled"):
        mean_full = np.mean([accs["full"] for _, accs in results])
        mean_ablated = np.mean([accs[name] for _, accs in results])
        gaps[name] = mean_full - mean_ablated
        assert gaps[name] >= 0.01, f"20-seed margin vs {name}: {gaps[name]:.4f}"
    print(f"\ncriterion 5 PASS: 20-seed acc margins "
          f"w/o-alpha=+{gaps['no_alpha']:.3f} w/o-labeled=+{gaps['no_labeled']:.3f}")


def _per_iteration_times(sizes, seed):
    """Per-iteration fit time at each sample count in ``sizes``."""
    datasets = {n: generate_synthetic(SyntheticSpec(
        views=3, classes=10, per_class=n // 10, dims=100,
        separation=4.0, noise=1.0, seed=seed)) for n in sizes}
    # both sizes and both lengths interleaved, so a slow spell of the host
    # slows every timing; fit keeps one preparation, so an untimed fit
    # prepares each dataset again before its timed ones
    best = {(n, iters): np.inf for n in sizes for iters in (5, 25)}
    for _ in range(5):
        for n, ds in datasets.items():
            fit(ds, SolverConfig(seed=0, tol=0.0, max_iter=1))
            for iters in (5, 25):
                start = time.perf_counter()
                fit(ds, SolverConfig(seed=0, tol=0.0, max_iter=iters))
                best[n, iters] = min(best[n, iters], time.perf_counter() - start)
    return {n: (best[n, 25] - best[n, 5]) / 20.0 for n in sizes}


def test_criterion_6_linear_scaling():
    ratios = []
    for trial in range(5):
        times = _per_iteration_times((2000, 4000), seed=trial)
        ratios.append(times[4000] / times[2000])
    median = float(np.median(ratios))
    assert 1.5 <= median <= 3.0, f"doubling-n time ratios {ratios}"
    print(f"\ncriterion 6 PASS: median per-iteration ratio {median:.2f} "
          f"for n=4000 vs n=2000")


def test_criterion_7_metric_correctness():
    rng = np.random.default_rng(271828)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        pred = rng.integers(0, int(rng.integers(2, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            brute_force_acc(pred, truth), abs=1e-12)
        assert nmi(pred, truth) == pytest.approx(naive_nmi(pred, truth),
                                                 abs=1e-12)
        assert purity(pred, truth) == pytest.approx(naive_purity(pred, truth),
                                                    abs=1e-12)
    print("\ncriterion 7 PASS: hungarian acc, nmi, purity match naive "
          "recomputation on 200 instances")


def test_criterion_8_deterministic_reports(tmp_path):
    for sub in ("a", "b"):
        code, _, _ = run_cli(["run", "--data", str(FIXTURE_DIR), "--seed", "11",
                              "--out", str(tmp_path / sub)])
        assert code == 0
    mask = lambda text: re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', text)
    report_a = mask((tmp_path / "a" / "report.json").read_text())
    report_b = mask((tmp_path / "b" / "report.json").read_text())
    assert report_a == report_b
    for name in ("trace.csv", "assignment.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    print("\ncriterion 8 PASS: reports byte-identical modulo wall_time")


def test_criterion_9_real_data_best_effort():
    data_dir = os.environ.get("MVNCD_UCI_DIGIT_DIR")
    if not data_dir:
        print("\ncriterion 9 SKIP: MVNCD_UCI_DIGIT_DIR not set")
        pytest.skip("real-data check needs MVNCD_UCI_DIGIT_DIR pointing at a "
                    "multiple-features digits manifest")
    ds = load_dataset(data_dir)
    truth = ds.labels[ds.unlabeled_indices]
    best = 0.0
    for p1 in range(6):
        for p2 in range(6):
            cfg = SolverConfig(seed=0, lambda1=10.0**p1, lambda2=10.0**p2)
            result = fit(ds, cfg)
            best = max(best, clustering_accuracy(result.novel_assignment, truth))
    if best < 0.85:
        print(f"\ncriterion 9 SOFT-FAIL: best acc {best:.3f} < 0.85")
        pytest.xfail(f"best-effort real-data acc {best:.3f} below 0.85; "
                     "this criterion alone does not fail the build")
    print(f"\ncriterion 9 PASS: best sweep acc {best:.3f} >= 0.85")


def test_solver_not_below_concat_baseline():
    # the method should not materially underperform its own initializer on
    # any acceptance benchmark
    for ds, result in _easy_results():
        truth = ds.labels[ds.unlabeled_indices]
        base = clustering_accuracy(concat_kmeans_ncd(ds, seed=0), truth)
        assert _novel_acc(ds, result) >= base - 0.02
    for ds, accs in _moderate_results()[:5]:
        truth = ds.labels[ds.unlabeled_indices]
        base = clustering_accuracy(concat_kmeans_ncd(ds, seed=0), truth)
        assert accs["full"] >= base - 0.02
