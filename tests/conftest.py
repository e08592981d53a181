"""Shared helpers: random problem instances, a naive objective recomputation
that shares nothing with the solver's fast paths, the objective's lower
bound, a structural check on solver states, a check of the basis update
against the joint minimum, fit replayed block by block through the public
functions, the concatenated k-means baseline, an in-process CLI driver and
a traced allocation peak."""

import contextlib
import copy
import dataclasses
import io
import tracemalloc
from pathlib import Path

import numpy as np

from mvncd.baselines import kmeans_fit
from mvncd.cli import main as cli_main
from mvncd.dataset import (
    generate_synthetic,
    normalize_features,
    unlabeled_subset,
    SyntheticSpec,
)
from mvncd.solver import (
    RIDGE,
    FitResult,
    compute_residuals,
    initialize,
    make_buffers,
    objective_value,
    update_basis,
    update_centroids,
    update_labels_known,
    update_labels_novel,
    update_view_weights,
)
from oracle import literal_class_sums, procrustes_pair, reconstruction_errors

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "separable"


def random_dataset(rng, views=None, classes=None, per_class=None, dims=None,
                   separation=None, noise=None):
    """Small random blob dataset for property loops. Any field left None is
    drawn from a range that keeps d_v >= k (the solver's rank requirement)."""
    views = int(rng.integers(2, 4)) if views is None else views
    classes = int(rng.choice([4, 6])) if classes is None else classes
    per_class = int(rng.integers(10, 40)) if per_class is None else per_class
    if dims is None:
        dims = tuple(int(rng.integers(classes, classes + 8)) for _ in range(views))
    if separation is None:
        separation = float(rng.uniform(2.0, 8.0))
    if noise is None:
        noise = float(rng.uniform(0.5, 1.5))
    spec = SyntheticSpec(views=views, classes=classes, per_class=per_class,
                         dims=dims, separation=separation, noise=noise,
                         seed=int(rng.integers(2**31)))
    return generate_synthetic(spec)


def naive_objective(state, ds, cfg):
    """Recompute the full objective by literal summation.

    Reconstruction: explicit one-hot matrix product per view, elementwise
    squared difference. Supervision: squared norm of each labeled one-hot
    column minus its ground-truth column. Separation: double loop over
    labeled x unlabeled one-hot column pairs. Mirrors the preprocessing the
    fit path applies (normalization, labeled ablation) via the public
    dataset functions only.
    """
    work = unlabeled_subset(ds) if cfg.ablate_labeled else ds
    work = normalize_features(work, cfg.normalize)
    k = work.num_classes
    n = work.num_samples
    ymat = np.zeros((k, n))
    ymat[state.y, np.arange(n)] = 1.0

    total = 0.0
    for v, view in enumerate(work.views):
        recon = state.bases[v] @ state.centroids[v] @ ymat
        total += float(state.view_weights[v]) ** 2 * float(
            np.sum((view.data - recon) ** 2))

    rows = work.class_rows()
    for i in work.labeled_indices:
        g = np.zeros(k)
        g[rows[work.labels[i]]] = 1.0
        total += cfg.lambda1 * float(np.sum((ymat[:, i] - g) ** 2))

    for i in work.labeled_indices:
        g = np.zeros(k)
        g[rows[work.labels[i]]] = 1.0
        for j in work.unlabeled_indices:
            total -= cfg.lambda2 * float(np.sum((g - ymat[:, j]) ** 2))
    return total


def objective_lower_bound(ds, cfg):
    """Smallest value the objective can take on ``ds``: the reconstruction
    and supervision terms are nonnegative and each one-hot pair differs by
    at most 2 in squared norm, so J >= -2 * lambda2 * n_l * n_u."""
    n_l = 0 if cfg.ablate_labeled else ds.num_labeled
    return -2.0 * cfg.lambda2 * n_l * ds.num_unlabeled


def validate_state(state, atol_basis=1e-8, atol_simplex=1e-10):
    """Raise ValueError when a structural invariant is broken: orthonormal
    bases, one-hot assignments in range, view weights on the simplex."""
    k = state.num_classes
    for v, basis in enumerate(state.bases):
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(k))) > atol_basis:
            raise ValueError(f"view {v}: basis columns are not orthonormal")
        if state.centroids[v].shape != (k, k):
            raise ValueError(f"view {v}: centroids must be {k} x {k}")
    if state.y.min() < 0 or state.y.max() >= k:
        raise ValueError("assignment rows out of range")
    w = state.view_weights
    if w.min() < 0 or abs(float(w.sum()) - 1.0) > atol_simplex:
        raise ValueError("view weights are not on the simplex")


def assert_joint_minimum(prior, xs):
    """Run update_basis on a copy of ``prior`` and hold the result to the
    joint minimum of both blocks: orthonormal bases, basis @ centroids
    equal to the literal class sums over counts + RIDGE, and a
    reconstruction error no larger than after the polar-factor basis and
    its least-squares centroids. Returns the updated copy."""
    state = copy.deepcopy(prior)
    update_basis(state, xs)
    k = prior.num_classes
    counts = np.bincount(prior.y, minlength=k)
    for x, b, c in zip(xs, state.bases, state.centroids):
        assert np.max(np.abs(b.T @ b - np.eye(k))) <= 1e-12
        want = literal_class_sums(x, prior.y, k) / (counts + RIDGE)
        assert np.linalg.norm(b @ c - want) <= 1e-12 * np.linalg.norm(want)
    pair = procrustes_pair(xs, prior.y, k, prior.centroids, RIDGE)
    joint = reconstruction_errors(xs, prior.y, state.bases, state.centroids)
    alone = reconstruction_errors(xs, prior.y, *pair)
    totals = np.array([np.sum(x * x) for x in xs])
    assert np.all(joint <= alone + 1e-12 * totals)
    return state


def replay_fit(ds, cfg):
    """fit's block order through the public functions only, the way an
    outside caller (the benchmark's traced replay) runs it: normalize once,
    then hand every function the normalized views and no class statistics.
    Returns the result, the objective at the start and after every block
    (bases, centroids, labels, view weights: four values per iteration),
    and the number of iterations whose label updates moved y."""
    work = normalize_features(ds, cfg.normalize)
    raw = dataclasses.replace(cfg, normalize="none")
    state = initialize(work, raw)
    xs = [view.data for view in work.views]
    labeled, unlabeled = work.labeled_indices, work.unlabeled_indices
    truth_rows = work.class_rows()[work.labels[labeled]]
    label_counts = np.bincount(truth_rows, minlength=work.num_classes).astype(float)
    per_block = [objective_value(state, work, raw)]
    trace = per_block[:]
    alphas = [state.view_weights.copy()]
    moved = 0
    for iterations in range(1, cfg.max_iter + 1):
        update_basis(state, xs)
        per_block.append(objective_value(state, work, raw))
        update_centroids(state, xs)
        per_block.append(objective_value(state, work, raw))
        buffers = make_buffers(state, xs, label_counts)
        before = state.y.copy()
        update_labels_known(state, buffers, labeled, truth_rows, cfg.lambda1)
        update_labels_novel(state, buffers, unlabeled, cfg.lambda2,
                            num_known=work.num_known,
                            hard_restrict=cfg.hard_restrict_novel)
        moved += not np.array_equal(before, state.y)
        per_block.append(objective_value(state, work, raw))
        update_view_weights(state, compute_residuals(buffers, state.y),
                            cfg.ablate_alpha)
        per_block.append(objective_value(state, work, raw))
        trace.append(per_block[-1])
        alphas.append(state.view_weights.copy())
        if abs(trace[-2] - trace[-1]) / (abs(trace[-2]) + 1.0) < cfg.tol:
            break
    result = FitResult(novel_assignment=state.y[unlabeled].copy(),
                       objective_trace=trace, alpha_trace=alphas,
                       iterations=iterations, converged=False,
                       wall_time=0.0, state=state)
    return result, per_block, moved


def concat_kmeans_ncd(ds, k=None, normalize="zscore", seed=0):
    """Novel-class-discovery baseline: k-means on the unlabeled samples of
    the normalized views, stacked along the features. Returns a cluster id
    in [0, k_u) per unlabeled sample in dataset order."""
    work = normalize_features(ds, normalize)
    k_u = work.num_novel if k is None else int(k)
    return kmeans_fit([v.data for v in work.views], k_u, seed=seed,
                      cols=work.unlabeled_indices).assignment


def run_cli(argv):
    """Invoke the CLI entry point in process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def traced_peak(fn, *args):
    """Bytes of the highest traced allocation level reached inside
    ``fn(*args)``, above what was live when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
