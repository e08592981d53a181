"""Reference k-means: the solver's start for the novel samples.

Deliberately self-contained so its behavior is pinned: k-means++ seeding,
Lloyd iterations, ties broken toward the lowest index, fully deterministic
under a seed. Each empty cluster, in increasing order, takes the sample
farthest from its centroid among the clusters that keep another member
(ties toward the lowest index), so no cluster ends a pass empty. It runs
in place on one d x n matrix or on a list of d_v x n views, as if they
were stacked along the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-8  # stop once the inertia drops by no more than this


@dataclass(eq=False)
class KMeansResult:
    centroids: np.ndarray       # k x sum(d_v), one centroid per row
    assignment: np.ndarray      # cluster id per clustered sample
    inertia: float
    iterations: int


def kmeans_fit(points: np.ndarray | list[np.ndarray], k: int, seed: int = 0,
               cols: np.ndarray | None = None) -> KMeansResult:
    """Cluster samples of ``points`` into ``k`` groups.

    ``points`` is one d x n matrix or a list of d_v x n views; a sample is
    a column, its features those of all views in order. ``cols`` picks the
    distinct samples to cluster, in the order of the assignment (default:
    all). ``kmeans_fit(np.vstack([x[:, cols] for x in views]), k, seed)``
    gives the same clustering.

    Each data pass reads the columns from the first to the last picked one
    in place, so no copy of the samples is made; scattered ``cols`` make it
    read the unpicked columns in between too.
    """
    xs = [points] if isinstance(points, np.ndarray) else list(points)
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs or any(x.ndim != 2 or x.shape[1] != xs[0].shape[1] for x in xs):
        raise ValueError("points must be a d x n matrix or a list of "
                         "d_v x n views")
    cols = np.arange(xs[0].shape[1]) if cols is None else np.asarray(cols, dtype=int)
    n = cols.size
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    lo = int(cols.min())
    xs = [x[:, lo:int(cols.max()) + 1] for x in xs]   # views, not copies
    at = cols - lo
    ends = np.cumsum([x.shape[0] for x in xs])
    rng = np.random.default_rng(seed)
    xsq = sum(np.einsum("ij,ij->j", x, x) for x in xs)[at]
    centroids = _plus_plus_seed(xs, ends, at, xsq, k, rng)

    assignment = np.full(n, -1)
    inertia = np.inf
    iterations = 0
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        dist = _sq_dist(xs, ends, at, xsq, centroids)
        new_assignment = np.argmin(dist, axis=1)
        sample_cost = dist[np.arange(n), new_assignment]
        counts = np.bincount(new_assignment, minlength=k)
        for c in np.flatnonzero(counts == 0):
            # relocate the empty cluster onto the worst-fit sample of a
            # cluster that keeps another member; costs are >= 0
            far = int(np.argmax(np.where(counts[new_assignment] > 1,
                                         sample_cost, -1.0)))
            centroids[c] = _sample(xs, at[far])
            counts[new_assignment[far]] -= 1
            counts[c] = 1
            new_assignment[far] = c
            sample_cost[far] = 0.0
        new_inertia = float(sample_cost.sum())
        if np.array_equal(new_assignment, assignment) or inertia - new_inertia <= KMEANS_TOL:
            assignment = new_assignment
            inertia = new_inertia
            break
        assignment = new_assignment
        inertia = new_inertia
        # class sums as one-hot products over the span, zero off ``cols``
        onehot = np.zeros((k, xs[0].shape[1]))
        onehot[assignment, at] = 1.0
        for x, end in zip(xs, ends):
            centroids[:, end - x.shape[0]:end] = (onehot @ x.T) / counts[:, None]
    return KMeansResult(centroids=centroids, assignment=assignment,
                        inertia=inertia, iterations=iterations)


def _sample(xs: list[np.ndarray], j: int) -> np.ndarray:
    return np.concatenate([x[:, j] for x in xs])


def _plus_plus_seed(xs: list[np.ndarray], ends: np.ndarray, at: np.ndarray,
                    xsq: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = at.size
    centroids = np.empty((k, int(ends[-1])))
    idx = int(rng.integers(n))
    centroids[0] = _sample(xs, at[idx])
    closest = _sq_dist(xs, ends, at, xsq, centroids[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = _sample(xs, at[idx])
        cand = _sq_dist(xs, ends, at, xsq, centroids[c:c + 1])[:, 0]
        closest = np.minimum(closest, cand)
    return centroids


def _sq_dist(xs: list[np.ndarray], ends: np.ndarray, at: np.ndarray,
             xsq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances, samples ``at`` x centroids, of the views ``xs``
    stacked along the features. The cross term is summed over the views'
    products and then indexed, so no sample's features are gathered."""
    cross = sum(centroids[:, end - x.shape[0]:end] @ x for x, end in zip(xs, ends))
    csq = np.einsum("ij,ij->i", centroids, centroids)
    return np.maximum(xsq[:, None] - 2.0 * cross[:, at].T + csq[None, :], 0.0)
