"""Clustering agreement metrics: accuracy under optimal matching, NMI, purity.

All metrics compare a predicted clustering against ground-truth classes on
the same samples (the novel set, in this package's evaluation protocol),
are invariant to relabeling of either side, and live in [0, 1].
"""

from __future__ import annotations

import numpy as np


def contingency_table(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Joint counts between predicted cluster ids (rows) and true class ids
    (columns); only ids actually present get a row/column."""
    pred, truth = _check_pair(pred, truth)
    pred_ids, pi = np.unique(pred, return_inverse=True)
    true_ids, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pred_ids.size, true_ids.size), dtype=int)
    np.add.at(counts, (pi, ti), 1)
    return counts


def hungarian_match(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one assignment of rows to columns.

    Rectangular matrices are fine; the smaller side is matched completely.
    Returns (row_indices, col_indices) sorted by row.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-d matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")
    if cost.shape[0] > cost.shape[1]:
        rows = _assign_rows(cost.T)
        order = np.argsort(rows)
        return rows[order], order
    return np.arange(cost.shape[0]), _assign_rows(cost)


def _assign_rows(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row of a finite cost with rows <= cols.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant,
    Computing 1987; Crouse, IEEE TAES 2016): each pass adds one row to an
    optimal partial matching by a Dijkstra search over reduced costs
    ``cost[i, j] - u[i] - v[j]``, which the dual update keeps non-negative.
    """
    num_rows, num_cols = cost.shape
    u = np.zeros(num_rows)
    v = np.zeros(num_cols)
    col4row = np.full(num_rows, -1)
    row4col = np.full(num_cols, -1)
    for start in range(num_rows):
        shortest = np.full(num_cols, np.inf)
        path = np.full(num_cols, -1)
        scanned = np.zeros(num_cols, dtype=bool)
        i, dist = start, 0.0
        while True:
            reduced = dist + cost[i] - u[i] - v
            better = ~scanned & (reduced < shortest)
            shortest[better] = reduced[better]
            path[better] = i
            j = int(np.argmin(np.where(scanned, np.inf, shortest)))
            dist = shortest[j]
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[start] += dist
        inner = np.flatnonzero(scanned & (row4col >= 0))
        u[row4col[inner]] += dist - shortest[inner]
        v[scanned] -= dist - shortest[scanned]
        while True:  # flip the matching along the path that ends in column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def clustering_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of samples correct under the best cluster-to-class matching."""
    return _accuracy(contingency_table(pred, truth))


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information (natural log) over the geometric mean of the two
    entropies; degenerate 0/0 cases (either side constant) return 0.0."""
    return _nmi(contingency_table(pred, truth))


def purity(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over samples of the majority-class fraction of their cluster."""
    return _purity(contingency_table(pred, truth))


def scores(pred: np.ndarray, truth: np.ndarray) -> dict:
    """The three metrics above, keyed acc, nmi and purity, from one table."""
    counts = contingency_table(pred, truth)
    return {"acc": _accuracy(counts), "nmi": _nmi(counts), "purity": _purity(counts)}


def _accuracy(counts: np.ndarray) -> float:
    rows, cols = hungarian_match(-counts.astype(float))
    return float(counts[rows, cols].sum() / counts.sum())


def _nmi(counts: np.ndarray) -> float:
    n = counts.sum()
    joint = counts / n
    # marginals from the integer counts, not from float row sums, so a
    # constant partition gets probability exactly 1 and entropy exactly 0
    p_pred = counts.sum(axis=1) / n
    p_true = counts.sum(axis=0) / n
    h_pred = _entropy(p_pred)
    h_true = _entropy(p_true)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * (np.log(joint[nz])
                                   - np.log(np.outer(p_pred, p_true)[nz]))))
    denom = np.sqrt(h_pred * h_true)
    if denom <= 0:
        return 0.0
    return float(min(1.0, max(0.0, mi / denom)))


def _purity(counts: np.ndarray) -> float:
    return float(counts.max(axis=1).sum() / counts.sum())


def _entropy(p: np.ndarray) -> float:
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=int).ravel()
    truth = np.asarray(truth, dtype=int).ravel()
    if pred.size == 0 or pred.size != truth.size:
        raise ValueError(f"need two equal-length non-empty label arrays, "
                         f"got {pred.size} and {truth.size}")
    return pred, truth
