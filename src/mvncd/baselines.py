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
_GATHER_ROWS = 1024  # samples per block of stacked_samples' gather


@dataclass
class KMeansResult:
    centroids: np.ndarray       # k x d, one centroid per row
    assignment: np.ndarray      # cluster id per sample
    inertia: float
    iterations: int
    inertia_trace: list[float] = field(default_factory=list)


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Cluster the columns of ``points`` (d x n) into ``k`` groups.

    The work runs on a C-ordered n x d matrix, one row per sample. Passing
    the transpose of one (as :func:`stacked_samples` returns) costs no copy;
    anything else is copied once into that layout.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a d x n matrix")
    d, n = points.shape
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(points.T)        # n x d, row per sample
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
    closest = xsq - 2.0 * (x @ centroids[0]) + centroids[0] @ centroids[0]
    closest = np.maximum(closest, 0.0)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = x[idx]
        cand = xsq - 2.0 * (x @ centroids[c]) + centroids[c] @ centroids[c]
        closest = np.minimum(closest, np.maximum(cand, 0.0))
    return centroids


def _sq_dist(x: np.ndarray, xsq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # parenthesized: 2.0 * x @ c would scale a copy of all of x; doubling
    # is exact, so the bits are the same either way
    csq = np.einsum("ij,ij->i", centroids, centroids)
    return np.maximum(xsq[:, None] - 2.0 * (x @ centroids.T) + csq[None, :], 0.0)


def stacked_samples(xs: list[np.ndarray], cols: np.ndarray) -> np.ndarray:
    """The columns ``cols`` of the views ``xs`` (each d_v x n), stacked along
    the features into one C-ordered matrix with a row per sample
    (cols.size x sum d_v). Its transpose equals
    ``np.vstack([x[:, cols] for x in xs])`` bit for bit, but is written in
    blocks of samples, so no view's gathered copy exists."""
    ends = np.cumsum([x.shape[0] for x in xs])
    out = np.empty((cols.size, int(ends[-1])))
    for start in range(0, cols.size, _GATHER_ROWS):
        block = cols[start:start + _GATHER_ROWS]
        rows = out[start:start + block.size]
        for x, end in zip(xs, ends):
            rows[:, end - x.shape[0]:end] = x[:, block].T
    return out


def concat_kmeans_ncd(ds: MultiViewDataset, k: int | None = None,
                      normalize: str = "zscore", seed: int = 0) -> np.ndarray:
    """Novel-class-discovery baseline: stack all normalized views along the
    feature axis and run k-means on the unlabeled samples only.

    Returns a cluster id in [0, k_u) per unlabeled sample in dataset order.
    """
    work = normalize_features(ds, normalize)
    stacked = stacked_samples([v.data for v in work.views], work.unlabeled_indices)
    k_u = work.num_novel if k is None else int(k)
    return kmeans_fit(stacked.T, k_u, seed=seed).assignment
