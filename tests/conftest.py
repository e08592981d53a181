"""Shared helpers: random problem instances, a naive objective recomputation
that shares nothing with the solver's fast paths, the objective's lower
bound, a structural check on solver states, an in-process CLI driver and a
traced allocation peak."""

import contextlib
import io
import tracemalloc
from pathlib import Path

import numpy as np

from mvncd.cli import main as cli_main
from mvncd.dataset import (
    generate_synthetic,
    normalize_features,
    unlabeled_subset,
    SyntheticSpec,
)

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
