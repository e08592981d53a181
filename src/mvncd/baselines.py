"""Reference clustering baselines: plain k-means and concatenated k-means.

The k-means here is deliberately self-contained so its behavior is pinned:
k-means++ seeding, Lloyd iterations, ties broken toward the lowest index,
empty clusters reseeded to the point farthest from its assigned centroid,
fully deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvncd.dataset import MultiViewDataset, normalize_features

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-8  # stop once the inertia drops by no more than this


@dataclass
class KMeansResult:
    centroids: np.ndarray       # k x d, one centroid per row
    assignment: np.ndarray      # cluster id per sample
    inertia: float
    iterations: int
    inertia_trace: list[float] = field(default_factory=list)


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Cluster the columns of ``points`` (d x n) into ``k`` groups."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a d x n matrix")
    d, n = points.shape
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    x = points.T                              # n x d, row per sample
    xsq = np.einsum("ij,ij->i", x, x)
    centroids = _plus_plus_seed(x, xsq, k, rng)

    assignment = np.full(n, -1)
    inertia = np.inf
    trace: list[float] = []
    iterations = 0
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        dist = _sq_dist(x, xsq, centroids)
        new_assignment = np.argmin(dist, axis=1)
        sample_cost = dist[np.arange(n), new_assignment]
        for c in range(k):
            if not np.any(new_assignment == c):
                # relocate the empty cluster onto the worst-fit point
                far = int(np.argmax(sample_cost))
                centroids[c] = x[far]
                new_assignment[far] = c
                sample_cost[far] = 0.0
        new_inertia = float(sample_cost.sum())
        trace.append(new_inertia)
        if np.array_equal(new_assignment, assignment) or inertia - new_inertia <= KMEANS_TOL:
            assignment = new_assignment
            inertia = new_inertia
            break
        assignment = new_assignment
        inertia = new_inertia
        for c in range(k):
            centroids[c] = x[assignment == c].mean(axis=0)
    return KMeansResult(centroids=centroids, assignment=assignment,
                        inertia=inertia, iterations=iterations,
                        inertia_trace=trace)


def _plus_plus_seed(x: np.ndarray, xsq: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = x[idx]
    closest = xsq - 2.0 * x @ centroids[0] + centroids[0] @ centroids[0]
    closest = np.maximum(closest, 0.0)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = x[idx]
        cand = xsq - 2.0 * x @ centroids[c] + centroids[c] @ centroids[c]
        closest = np.minimum(closest, np.maximum(cand, 0.0))
    return centroids


def _sq_dist(x: np.ndarray, xsq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    csq = np.einsum("ij,ij->i", centroids, centroids)
    return np.maximum(xsq[:, None] - 2.0 * x @ centroids.T + csq[None, :], 0.0)


def concat_kmeans_ncd(ds: MultiViewDataset, k: int | None = None,
                      normalize: str = "zscore", seed: int = 0) -> np.ndarray:
    """Novel-class-discovery baseline: stack all normalized views along the
    feature axis and run k-means on the unlabeled samples only.

    Returns a cluster id in [0, k_u) per unlabeled sample in dataset order.
    """
    work = normalize_features(ds, normalize)
    cols = work.unlabeled_indices
    stacked = np.vstack([v.data[:, cols] for v in work.views])
    k_u = work.num_novel if k is None else int(k)
    return kmeans_fit(stacked, k_u, seed=seed).assignment
