"""Slow, independent reference computations used to certify the solver.

Everything here evaluates objectives literally (explicit norms, explicit
enumeration) and deliberately shares no algebra with the solver's
vectorized update paths: matching results therefore certify the fast
implementations rather than restating them.
"""

from __future__ import annotations

import itertools

import numpy as np


def brute_force_label(sample_views: list[np.ndarray],
                      maps: list[np.ndarray],
                      view_weights: np.ndarray,
                      lambda1: float = 0.0,
                      truth_row: int | None = None,
                      lambda2: float = 0.0,
                      label_counts: np.ndarray | None = None,
                      allowed_rows: np.ndarray | None = None) -> int:
    """Best one-hot row for a single sample by trying every candidate.

    Scores each candidate row l as the literal per-sample objective:
    the weighted squared reconstruction errors, plus (labeled case)
    lambda1 * ||e_l - e_truth||^2, minus (unlabeled case) lambda2 times the
    summed squared distances to every labeled ground-truth one-hot column.
    First row among ties wins.
    """
    k = maps[0].shape[1]
    rows = range(k) if allowed_rows is None else [int(r) for r in allowed_rows]
    best_row = -1
    best_score = np.inf
    for row in rows:
        score = 0.0
        for v in range(len(maps)):
            diff = np.asarray(sample_views[v], dtype=float) - maps[v][:, row]
            score += float(view_weights[v]) ** 2 * float(np.linalg.norm(diff) ** 2)
        if truth_row is not None:
            candidate = np.zeros(k)
            candidate[row] = 1.0
            truth = np.zeros(k)
            truth[truth_row] = 1.0
            score += lambda1 * float(np.linalg.norm(candidate - truth) ** 2)
        if label_counts is not None:
            candidate = np.zeros(k)
            candidate[row] = 1.0
            for cls in range(k):
                anchor = np.zeros(k)
                anchor[cls] = 1.0
                score -= lambda2 * float(label_counts[cls]) * float(
                    np.linalg.norm(anchor - candidate) ** 2
                )
        if score < best_score:
            best_score = score
            best_row = row
    return best_row


def exhaustive_novel_fit(unlabeled_views: list[np.ndarray],
                         maps: list[np.ndarray],
                         view_weights: np.ndarray,
                         lambda2: float,
                         label_counts: np.ndarray) -> tuple[np.ndarray, float]:
    """Globally optimal unlabeled assignment by full enumeration.

    Tries every assignment in k^n_u order (so ties resolve to the
    lexicographically first optimum) and scores each with the literal
    objective restricted to the unlabeled block. Only viable for tiny
    instances; callers should keep k^n_u small.
    """
    k = maps[0].shape[1]
    n_u = unlabeled_views[0].shape[1]
    if k**n_u > 1e6:
        raise ValueError(f"enumeration of {k}**{n_u} assignments is too large")
    best_assign = None
    best_score = np.inf
    for assign in itertools.product(range(k), repeat=n_u):
        score = 0.0
        for v in range(len(maps)):
            for j in range(n_u):
                diff = unlabeled_views[v][:, j] - maps[v][:, assign[j]]
                score += float(view_weights[v]) ** 2 * float(np.linalg.norm(diff) ** 2)
        for j in range(n_u):
            candidate = np.zeros(k)
            candidate[assign[j]] = 1.0
            for cls in range(k):
                anchor = np.zeros(k)
                anchor[cls] = 1.0
                score -= lambda2 * float(label_counts[cls]) * float(
                    np.linalg.norm(anchor - candidate) ** 2
                )
        if score < best_score:
            best_score = score
            best_assign = np.array(assign)
    return best_assign, best_score


def simplex_minimize_numeric(residuals: np.ndarray,
                             max_iter: int = 200_000,
                             tol: float = 1e-10) -> np.ndarray:
    """Minimize sum_v x_v^2 * residual_v over the probability simplex by
    projected gradient descent, run to ~1e-10 stationarity.

    Certifies the solver's closed-form view-weight update without reusing
    it; residuals must be strictly positive.
    """
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1 or r.size == 0 or np.any(r <= 0):
        raise ValueError("residuals must be a non-empty vector of positives")
    x = np.full(r.size, 1.0 / r.size)
    step = 1.0 / (2.0 * r.max())
    for _ in range(max_iter):
        nxt = project_simplex(x - step * 2.0 * r * x)
        if np.max(np.abs(nxt - x)) <= tol:
            x = nxt
            break
        x = nxt
    return x


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    x = np.asarray(x, dtype=float)
    srt = np.sort(x)[::-1]
    cumsum = np.cumsum(srt)
    rho = np.nonzero(srt + (1.0 - cumsum) / np.arange(1, x.size + 1) > 0)[0][-1]
    theta = (1.0 - cumsum[rho]) / (rho + 1.0)
    return np.maximum(x + theta, 0.0)


def procrustes_bound_check(target: np.ndarray, basis: np.ndarray,
                           draws: int = 1000, seed: int = 0,
                           atol: float = 1e-8) -> bool:
    """Certify that ``basis`` maximizes trace(basis.T @ target) over
    orthonormal matrices.

    The optimum equals the sum of singular values of ``target``; those are
    recomputed here from the Gram spectrum rather than any SVD the solver
    ran. Also requires that none of ``draws`` random orthonormal matrices
    beats the candidate. Raises ValueError if ``basis`` is not orthonormal.
    """
    target = np.asarray(target, dtype=float)
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[1]
    if np.max(np.abs(basis.T @ basis - np.eye(k))) > 1e-8:
        raise ValueError("candidate basis is not orthonormal")
    eigs = np.linalg.eigvalsh(target.T @ target)
    # sqrt turns O(eps)-level eigenvalue noise into O(sqrt(eps)) singular
    # values, so zero out anything below the relative rank floor first
    floor = np.finfo(float).eps * max(float(eigs.max(initial=0.0)), 0.0) * eigs.size
    eigs = np.where(eigs < floor, 0.0, eigs)
    sigma_sum = float(np.sqrt(np.clip(eigs, 0.0, None)).sum())
    attained = float(np.trace(basis.T @ target))
    if attained < sigma_sum - atol:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        q, _ = np.linalg.qr(rng.standard_normal(basis.shape))
        if float(np.trace(q.T @ target)) > attained + atol:
            return False
    return True


def literal_class_sums(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The d x k class sums of the d x n view ``x`` under ``y``, added up
    sample by sample."""
    sums = np.zeros((x.shape[0], k))
    for i, row in enumerate(y):
        sums[:, row] += x[:, i]
    return sums


def reconstruction_errors(xs: list[np.ndarray], y: np.ndarray,
                          bases: list[np.ndarray],
                          centroids: list[np.ndarray]) -> np.ndarray:
    """Per view, sum_i ||x_i - basis @ centroids[:, y_i]||^2, one sample at
    a time."""
    errors = np.zeros(len(xs))
    for v, (x, b, c) in enumerate(zip(xs, bases, centroids)):
        for i, row in enumerate(y):
            diff = x[:, i] - b @ c[:, row]
            errors[v] += float(diff @ diff)
    return errors


def procrustes_pair(xs: list[np.ndarray], y: np.ndarray, k: int,
                    centroids: list[np.ndarray],
                    ridge: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A basis update and then a centroid update, each the exact minimizer
    of its block alone: per view the polar factor of S_v @ C_v.T (the
    orthogonal-Procrustes maximizer of trace(B.T @ S_v @ C_v.T), from its
    SVD), then the least-squares centroids B.T @ S_v / (counts + ridge)
    of that basis. S_v are the literal class sums."""
    counts = np.bincount(y, minlength=k).astype(float)
    bases, fitted = [], []
    for x, c in zip(xs, centroids):
        sums = literal_class_sums(x, y, k)
        u, _, vt = np.linalg.svd(sums @ np.asarray(c).T, full_matrices=False)
        bases.append(u @ vt)
        fitted.append(bases[-1].T @ sums / (counts + ridge))
    return bases, fitted


def all_assignments(n: int, k: int) -> np.ndarray:
    """Every y in [0, k)^n, one per row, in lexicographic order."""
    return np.indices((k,) * n).reshape(n, -1).T


def class_mean_objective(xs: list[np.ndarray], ys: np.ndarray, k: int,
                         labeled: np.ndarray, truth_rows: np.ndarray,
                         unlabeled: np.ndarray, lambda1: float,
                         lambda2: float) -> np.ndarray:
    """J*(y), the least objective over bases, centroids and view weights,
    for each assignment y in the rows of ``ys``.

    Given y, basis @ centroids can be any d_v x k matrix, so the
    reconstruction error is least at the literal per-class means, where it
    is the within-class scatter W_v, summed sample by sample. The least
    sum_v w_v^2 W_v over the simplex is 1 / sum_v (1 / W_v), or 0 when a
    view has W_v = 0 and takes all the weight. The supervision and
    separation terms are summed over the labeled samples and over the
    labeled x unlabeled pairs of one-hot columns.
    """
    ys = np.atleast_2d(ys)
    members = ys[:, None, :] == np.arange(k)[None, :, None]   # A x k x n
    counts = members.sum(axis=2)
    scatter = []
    for x in xs:
        means = (members @ x.T) / np.maximum(counts, 1)[:, :, None]   # A x k x d
        diff = x.T[None] - np.take_along_axis(means, ys[:, :, None], axis=1)
        scatter.append(np.einsum("anj,anj->a", diff, diff))
    scatter = np.stack(scatter, axis=1)
    spread = (scatter > 0).all(axis=1)
    recon = np.zeros(len(ys))
    recon[spread] = 1.0 / (1.0 / scatter[spread]).sum(axis=1)
    mismatches = (ys[:, labeled] != truth_rows).sum(axis=1)
    apart = (ys[:, unlabeled][:, :, None] != truth_rows[None, None, :]).sum(axis=(1, 2))
    return recon + 2.0 * lambda1 * mismatches - 2.0 * lambda2 * apart
