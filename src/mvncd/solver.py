"""Alternating solver for multi-view novel class discovery.

The model factorizes every view as (orthonormal basis) x (centroids) x
(one-hot assignment), shares the assignment matrix across views, and learns
a simplex-constrained weight per view. Labeled samples pull their assignment
toward the ground truth; unlabeled samples pay a penalty for landing on a
class that owns labeled samples, which keeps novel clusters away from the
known classes. Every block update below is the exact minimizer of its
subproblem given the others, so the objective never increases.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from mvncd.baselines import kmeans_fit
from mvncd.dataset import (
    NORMALIZATIONS,
    DatasetError,
    MultiViewDataset,
    _normalized,
    encode_onehot,
    normalize_features,
    unlabeled_subset,
)

RIDGE = 1e-8          # keeps centroid columns of empty classes defined
DESCENT_SLACK = 1e-9  # relative slack for monotone-descent checks
INIT_MODES = ("kmeans", "random")


@dataclass
class SolverConfig:
    """Knobs for :func:`fit`.

    lambda1 weighs the supervision term on labeled assignments, lambda2 the
    separation reward that repels novel assignments from known classes.
    ``ablate_alpha`` freezes view weights at uniform; ``ablate_labeled``
    drops the labeled samples (and with them both lambda terms) from the
    problem. ``hard_restrict_novel`` forbids known rows for unlabeled
    samples outright instead of relying on the lambda2 penalty.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    max_iter: int = 100
    tol: float = 1e-7
    seed: int = 0
    init_y_novel: str = "kmeans"    # one of INIT_MODES
    normalize: str = "zscore"       # one of NORMALIZATIONS
    ablate_alpha: bool = False
    ablate_labeled: bool = False
    hard_restrict_novel: bool = False
    track_block_objective: bool = False

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.init_y_novel not in INIT_MODES:
            raise ValueError(f"unknown init_y_novel: {self.init_y_novel!r}")
        if self.normalize not in NORMALIZATIONS:
            raise ValueError(f"unknown normalize mode: {self.normalize!r}")


@dataclass(eq=False)
class ModelState:
    """Current iterate: per-view orthonormal bases (d_v x k), per-view
    centroids (k x k), one assignment row per sample, and view weights on
    the simplex. The block updates store the centroids as one V x k x k
    array, and the bases as one V x d x k array when every view has d
    features; a list of per-view arrays is read the same way."""

    bases: list[np.ndarray]
    centroids: list[np.ndarray]
    y: np.ndarray
    view_weights: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.bases[0].shape[1])


@dataclass(eq=False)
class ClassStats:
    """All the basis, centroid and residual updates read of the data under
    one assignment y, so they need not touch the views while y stays put.

    ``counts`` holds the samples per one-hot row. The per-view matrices are
    stacked over the views, d_v x k ones padded with zero rows to the
    largest d, so every block update is one batched call: ``sums[v]`` is
    the class-sum matrix S_v = X_v @ Y.T, ``frames`` its thin QR factors
    (the Q_v stack, the k x k R_v stack), ``means[v]`` the class means
    S_v / counts (zero on empty rows) and ``scatter[v]`` the within-class
    scatter W_v = sum_i ||x_i - mean_{y_i}||^2. ``z`` holds the views in
    their class frames, rows v*k to (v+1)*k being Z_v = Q_v.T @ X_v, so it
    is (V*k) x n; a basis in span(Q_v) scores every sample through it.
    """

    counts: np.ndarray
    sums: np.ndarray
    frames: tuple[np.ndarray, np.ndarray]
    means: np.ndarray
    scatter: np.ndarray
    z: np.ndarray


@dataclass(eq=False)
class WorkBuffers:
    """Per-iteration quantities shared by the assignment updates and the
    reconstruction error.

    ``xs`` are the views and ``maps[v]`` is basis @ centroids for view v, so
    view v reconstructs sample i as ``maps[v][:, y[i]]``. ``cost`` is the
    k x n assignment cost, sum_v w_v^2 (||x_{v,i} - maps[v][:, c]||^2 -
    ||x_{v,i}||^2) at row c and column i: what putting sample i on row c
    adds to the weighted reconstruction error, up to a per-sample constant.
    Both label updates gather their columns of it. ``label_counts`` counts
    ground-truth labeled samples per one-hot row (zero on novel rows).
    """

    xs: list[np.ndarray]
    maps: list[np.ndarray]
    cost: np.ndarray
    label_counts: np.ndarray


@dataclass(eq=False)
class FitResult:
    novel_assignment: np.ndarray     # one-hot row id per unlabeled sample
    objective_trace: list[float]     # objective after init, then per iteration
    alpha_trace: list[np.ndarray]    # view weights along the same grid
    iterations: int
    converged: bool
    wall_time: float
    state: ModelState
    block_objective_trace: list[float] | None = None


@dataclass(eq=False)
class _Problem:
    """Preprocessed fitting problem in one-hot row coordinates."""

    xs: list[np.ndarray]
    labeled: np.ndarray
    unlabeled: np.ndarray
    truth_rows: np.ndarray     # ground-truth row per labeled column
    label_counts: np.ndarray
    num_classes: int
    num_known: int


def _build_problem(ds: MultiViewDataset, normalize: str,
                   ablate_labeled: bool) -> _Problem:
    """The normalized problem ``fit`` solves for ``ds``."""
    if not ds.num_unlabeled:
        raise DatasetError(
            f"no unlabeled samples: none of the novel classes "
            f"{ds.novel_classes.tolist()} has a sample to cluster"
        )
    if ablate_labeled:
        # the subset is a fresh copy, so it is normalized in place
        work = _normalized(unlabeled_subset(ds), normalize, in_place=True)
    else:
        work = normalize_features(ds, normalize)
    k = work.num_classes
    for i, view in enumerate(work.views):
        if view.dim < k:
            raise DatasetError(
                f"view {i}: {view.dim} features cannot carry an "
                f"orthonormal basis for {k} classes"
            )
        if not np.ptp(view.data, axis=1).any():
            raise DatasetError(
                f"view {i}: every feature is constant over the "
                f"{view.num_samples} samples, so it carries no cluster structure"
            )
    rows = work.class_rows()
    truth_rows = rows[work.labels[work.labeled_indices]]
    counts = np.bincount(truth_rows, minlength=k).astype(float)
    return _Problem(
        xs=[view.data for view in work.views],
        labeled=work.labeled_indices,
        unlabeled=work.unlabeled_indices,
        truth_rows=truth_rows,
        label_counts=counts,
        num_classes=k,
        num_known=work.num_known,
    )


@functools.lru_cache(maxsize=1)
def _prepare(ds: MultiViewDataset, normalize: str, ablate_labeled: bool,
             seed: int, init_y_novel: str
             ) -> tuple[_Problem, np.ndarray, ClassStats]:
    """The problem, initial assignment and its class statistics. None depends
    on the lambdas, so the last is cached (it holds ``ds``, which hashes by
    identity) and a sweep prepares once. Callers never mutate the result."""
    prob = _build_problem(ds, normalize, ablate_labeled)
    y = _initial_assignment(prob, seed, init_y_novel)
    return prob, y, class_stats(prob.xs, y, prob.num_classes)


def _start(prob: _Problem, y: np.ndarray, stats: ClassStats) -> ModelState:
    """A fresh iterate at ``y`` that shares no array with the arguments:
    each basis is the Q factor of its view's class sums S_v, so basis @
    centroids = S_v / (counts + RIDGE) minimizes both blocks exactly."""
    num_views = len(prob.xs)
    state = ModelState(
        bases=_unpadded(stats.frames[0].copy(), prob.xs),
        centroids=np.zeros_like(stats.frames[1]),
        y=y.copy(),
        view_weights=np.full(num_views, 1.0 / num_views),
    )
    update_centroids(state, prob.xs, stats)
    return state


def initialize(ds: MultiViewDataset, cfg: SolverConfig) -> ModelState:
    """Build the starting iterate (the one :func:`fit` starts from)."""
    return _start(*_prepare(ds, cfg.normalize, cfg.ablate_labeled,
                            cfg.seed, cfg.init_y_novel))


def _initial_assignment(prob: _Problem, seed: int, init_y_novel: str) -> np.ndarray:
    """Ground-truth rows for labeled samples; k-means on the views in place
    for the unlabeled ones, or random novel rows when asked for or when
    there are fewer unlabeled samples than novel classes."""
    rng = np.random.default_rng(seed)
    k = prob.num_classes
    y = np.zeros(prob.xs[0].shape[1], dtype=int)
    y[prob.labeled] = prob.truth_rows
    n_u, k_u = prob.unlabeled.size, k - prob.num_known
    if init_y_novel == "kmeans" and n_u >= k_u:
        km = kmeans_fit(prob.xs, k_u, seed=int(rng.integers(2**32)),
                        cols=prob.unlabeled)
        y[prob.unlabeled] = prob.num_known + km.assignment
    else:
        y[prob.unlabeled] = rng.integers(prob.num_known, k, size=n_u)
    return y


_SCATTER_COLUMNS = 1024   # samples per block of the scatter pass
_SPAN_TOL = 1e-12         # relative distance of the class sums from span(B_v)


def class_stats(xs: list[np.ndarray], y: np.ndarray, k: int) -> ClassStats:
    """Class statistics of assignment ``y`` over the views ``xs``."""
    ymat_t = encode_onehot(y, k).T
    counts = np.bincount(y, minlength=k).astype(float)
    shape = (len(xs), max(x.shape[0] for x in xs), k)
    sums, means, q = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    r = np.empty((len(xs), k, k))
    scatter = np.empty(len(xs))
    z = np.empty((len(xs) * k, y.size))
    for v, x in enumerate(xs):
        rows = slice(0, x.shape[0])
        np.matmul(x, ymat_t, out=sums[v, rows])
        np.divide(sums[v, rows], counts, out=means[v, rows], where=counts > 0)
        scatter[v] = _within_scatter(x, y, means[v, rows])
        q[v, rows], r[v] = np.linalg.qr(sums[v, rows])
        np.matmul(q[v, rows].T, x, out=z[v * k:(v + 1) * k])
    return ClassStats(counts=counts, sums=sums, frames=(q, r), means=means,
                      scatter=scatter, z=z)


def _padded(mats, rows: int) -> np.ndarray:
    """The d_v x k matrices ``mats`` as one V x rows x k array, zero below
    row d_v; ``mats`` itself when it already is that array."""
    if isinstance(mats, np.ndarray) or all(m.shape[0] == rows for m in mats):
        return np.asarray(mats)
    out = np.zeros((len(mats), rows, mats[0].shape[1]))
    for o, m in zip(out, mats):
        o[:m.shape[0]] = m
    return out


def _unpadded(stack: np.ndarray, xs: list[np.ndarray]):
    """The per-view d_v x k blocks of a padded stack: the stack itself when
    no view is shorter than it."""
    if all(x.shape[0] == stack.shape[1] for x in xs):
        return stack
    return [m[:x.shape[0]] for m, x in zip(stack, xs)]


def _within_scatter(x: np.ndarray, y: np.ndarray, means: np.ndarray) -> float:
    """sum_i ||x_i - means[:, y_i]||^2, a block of columns at a time so no
    d x n temporary exists."""
    total = 0.0
    for start in range(0, y.size, _SCATTER_COLUMNS):
        cols = slice(start, start + _SCATTER_COLUMNS)
        diff = np.take(means, y[cols], axis=1)
        diff -= x[:, cols]
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def update_basis(state: ModelState, xs: list[np.ndarray],
                 stats: ClassStats | None = None) -> None:
    """Per view, set the basis to the polar factor of S_v @ centroids.T,
    with S_v = X_v @ Y.T the class sums (the orthogonal-Procrustes maximizer
    of the trace it pairs with). With S_v = Q_v R_v that factor is Q_v times
    the polar factor of the k x k matrix R_v @ centroids.T, so a single
    batched SVD of k x k matrices serves every view, whatever its d_v; this
    per-iteration cost does not grow with n. ``stats`` are the class
    statistics of ``state.y``; without them they are computed from
    ``xs``.

    The basis is kept, and the SVD skipped, when the centroids are the
    least-squares centroids of the current basis (C_v = B_v.T S_v D with D
    the inverse ridged counts, compared exactly) and the basis spans the
    class sums (B_v B_v.T S_v = S_v to rounding): then
    S_v @ C_v.T = B_v (B_v.T S_v D S_v.T B_v), the basis times a symmetric
    positive semidefinite matrix, and the basis is its polar factor. That
    holds at :func:`fit`'s start and after one basis and one centroid update
    under an assignment, so repeating the two updates changes no bit, which
    is why ``fit`` skips them while the assignment stays put and a caller
    that repeats them gets the same iterate."""
    if stats is None:
        stats = class_stats(xs, state.y, state.num_classes)
    q, r = stats.frames
    bases = _padded(state.bases, q.shape[1])
    centroids = np.asarray(state.centroids)
    fitted = bases.transpose(0, 2, 1) @ stats.sums
    if (centroids == fitted * (1.0 / (stats.counts + RIDGE))).all():
        gap = bases @ fitted
        gap -= stats.sums
        if (np.einsum("vij,vij->v", gap, gap) <= _SPAN_TOL**2 * np.einsum(
                "vij,vij->v", stats.sums, stats.sums)).all():
            return
    u, _, vt = np.linalg.svd(r @ centroids.transpose(0, 2, 1))
    state.bases = _unpadded(q @ (u @ vt), xs)


def update_centroids(state: ModelState, xs: list[np.ndarray],
                     stats: ClassStats | None = None) -> None:
    """Per view, least-squares centroids given basis and assignment:
    basis.T @ S_v divided column-wise by the class counts.

    Y @ Y.T is diagonal with the per-class counts; the ridge keeps columns
    of empty classes defined (they go to ~zero). ``stats`` as in
    :func:`update_basis`.
    """
    if stats is None:
        stats = class_stats(xs, state.y, state.num_classes)
    bases = _padded(state.bases, stats.sums.shape[1])
    state.centroids = (bases.transpose(0, 2, 1) @ stats.sums) * (
        1.0 / (stats.counts + RIDGE))


def make_buffers(state: ModelState, xs: list[np.ndarray],
                 label_counts: np.ndarray,
                 stats: ClassStats | None = None) -> WorkBuffers:
    """Assemble the shared per-iteration quantities for the current bases,
    centroids and view weights; they stay valid while only ``y`` changes.
    The cost is formed once, in place, as diag - 2 * score: the weighted
    squared column norms of the maps less twice their inner products with
    the data.

    With ``stats``, the class statistics of ``state.y``, the maps are
    scored in the class frames: when every basis lies in span(Q_v), as
    :func:`fit` keeps it, (B_v C_v).T @ X_v = (Q_v.T B_v C_v).T @ Z_v and
    the column norms are those of Q_v.T B_v C_v, so one (k x V*k) @
    (V*k x n) product replaces a k x d_v by d_v x n product per view.
    Without ``stats`` the maps are scored against ``xs`` directly, which
    holds for any basis: that path is the reference the tests hold the
    frame to, and the one a caller without class statistics takes.
    """
    w2 = state.view_weights**2
    stacked = _stacked_maps(state, max(x.shape[0] for x in xs))
    maps = _unpadded(stacked, xs)
    if stats is None:
        diag = sum(w2[v] * np.einsum("ij,ij->j", m, m) for v, m in enumerate(maps))
        score = sum(w2[v] * (m.T @ xs[v]) for v, m in enumerate(maps))
    else:
        framed = stats.frames[0].transpose(0, 2, 1) @ stacked
        weighted = (w2[:, None, None] * framed).reshape(-1, framed.shape[2])
        diag = np.einsum("ij,ij->j", weighted, framed.reshape(weighted.shape))
        score = weighted.T @ stats.z
    score *= -2.0
    score += diag[:, None]
    return WorkBuffers(xs=xs, maps=maps, cost=score,
                       label_counts=np.asarray(label_counts, dtype=float))


def _stacked_maps(state: ModelState, rows: int) -> np.ndarray:
    """basis @ centroids for every view, as one V x rows x k array."""
    return _padded(state.bases, rows) @ np.asarray(state.centroids)


def compute_residuals(buffers: WorkBuffers, y: np.ndarray,
                      stats: ClassStats | None = None) -> np.ndarray:
    """Per-view squared reconstruction error for assignment ``y``;
    ``stats`` are the class statistics of ``y``, computed from
    ``buffers.xs`` when not given."""
    if stats is None:
        stats = class_stats(buffers.xs, y, buffers.maps[0].shape[1])
    return _residuals(stats, _padded(buffers.maps, stats.means.shape[1]))


def _residuals(stats: ClassStats, maps: np.ndarray) -> np.ndarray:
    """``||X_v - maps[v][:, y]||^2`` per view, split at the class means
    (Koenig-Huygens): W_v + sum_c n_c ||mean_c - maps[v][:, c]||^2. Both
    terms are sums of squares, so nothing cancels, and an empty row adds
    exactly 0. ``maps`` is padded like ``stats.means``. The one formula
    behind the view-weight update and every objective value."""
    gap = stats.means - maps
    return stats.scatter + np.einsum("vij,vij,j->v", gap, gap, stats.counts)


def update_labels_known(state: ModelState, buffers: WorkBuffers,
                        labeled: np.ndarray, truth_rows: np.ndarray,
                        lambda1: float) -> None:
    """Exact per-column minimizer for labeled samples: their assignment
    cost plus the supervision pull toward the ground-truth row. Ties go to
    the lowest row index (argmin semantics)."""
    scores = buffers.cost[:, labeled]
    scores[truth_rows, np.arange(labeled.size)] -= 2.0 * lambda1
    state.y[labeled] = np.argmin(scores, axis=0)


def update_labels_novel(state: ModelState, buffers: WorkBuffers,
                        unlabeled: np.ndarray, lambda2: float,
                        num_known: int = 0,
                        hard_restrict: bool = False) -> None:
    """Exact per-column minimizer for unlabeled samples: their assignment
    cost plus 2*lambda2*(labeled count of the row), the one-hot form of the
    separation reward. ``hard_restrict`` masks known rows entirely."""
    scores = buffers.cost[:, unlabeled]
    scores += 2.0 * lambda2 * buffers.label_counts[:, None]
    if hard_restrict:
        scores[:num_known, :] = np.inf
    state.y[unlabeled] = np.argmin(scores, axis=0)


def update_view_weights(state: ModelState, residuals: np.ndarray,
                        ablate_alpha: bool = False) -> None:
    """Closed-form simplex minimizer of sum_v weight_v^2 * residual_v:
    weights proportional to inverse residuals or, when some views have
    (numerically) zero residual, uniform over those. No-op when ablated."""
    if ablate_alpha:
        return
    r = np.maximum(np.asarray(residuals, dtype=float), 0.0)
    zero = r <= 1e-12 * (1.0 + r.max())
    inv = zero if zero.any() else 1.0 / r
    state.view_weights = inv / inv.sum()


def objective_value(state: ModelState, ds: MultiViewDataset,
                    cfg: SolverConfig) -> float:
    """Full objective of ``state`` on ``ds`` under ``cfg`` (same
    preprocessing fit applies: normalization and the labeled-ablation
    restriction)."""
    prob = _build_problem(ds, cfg.normalize, cfg.ablate_labeled)
    return _objective(state, prob, cfg,
                      class_stats(prob.xs, state.y, prob.num_classes))


def _objective(state: ModelState, prob: _Problem, cfg: SolverConfig,
               stats: ClassStats, residuals: np.ndarray | None = None) -> float:
    """Objective of ``state``, whose assignment has class statistics
    ``stats``; ``residuals`` are its per-view reconstruction errors when the
    caller already has them."""
    if residuals is None:
        residuals = _residuals(stats, _stacked_maps(state, stats.means.shape[1]))
    total = 0.0
    for w, r in zip(state.view_weights.tolist(), residuals.tolist()):
        total += w * w * r
    mismatches = int(np.count_nonzero(state.y[prob.labeled] != prob.truth_rows))
    total += cfg.lambda1 * 2.0 * mismatches
    u_counts = np.bincount(state.y[prob.unlabeled], minlength=prob.num_classes)
    overlap = float(prob.label_counts @ u_counts)
    total -= cfg.lambda2 * 2.0 * (prob.labeled.size * prob.unlabeled.size - overlap)
    return total


def fit(ds: MultiViewDataset, cfg: SolverConfig) -> FitResult:
    """Run the alternating optimization to convergence.

    Block order per iteration: bases, centroids, assignments (labeled then
    unlabeled columns), view weights. Stops when the relative objective
    change |J_prev - J| / (|J_prev| + 1) drops below cfg.tol. The views are
    read only when the assignment moves, to rebuild its class statistics
    and the views' projection onto the class frames; every block and the
    objective work from those, so an iteration that keeps the assignment
    costs k x V*k multiply-adds per sample. Nor does such an iteration run
    the basis and centroid updates: the start, and one update of each after
    a move, are the exact minimum of both blocks for the assignment, which
    further updates would keep bit for bit (see :func:`update_basis`).

    ``ds`` and its arrays are treated as immutable, since the last
    preparation is reused for the same ``ds``. After changing data in
    place, build a new dataset with ``make_dataset``.
    """
    start = time.perf_counter()
    prob, y, stats = _prepare(ds, cfg.normalize, cfg.ablate_labeled,
                              cfg.seed, cfg.init_y_novel)
    state = _start(prob, y, stats)

    trace = [_objective(state, prob, cfg, stats)]
    alphas = [state.view_weights.copy()]
    block_trace: list[float] | None = [] if cfg.track_block_objective else None
    converged = False
    moved = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if moved:
            update_basis(state, prob.xs, stats)
        if block_trace is not None:
            block_trace.append(_objective(state, prob, cfg, stats))
        if moved:
            update_centroids(state, prob.xs, stats)
        if block_trace is not None:
            block_trace.append(_objective(state, prob, cfg, stats))
        buffers = make_buffers(state, prob.xs, prob.label_counts, stats)
        previous_y = state.y.copy()
        update_labels_known(state, buffers, prob.labeled, prob.truth_rows,
                            cfg.lambda1)
        update_labels_novel(state, buffers, prob.unlabeled, cfg.lambda2,
                            num_known=prob.num_known,
                            hard_restrict=cfg.hard_restrict_novel)
        moved = not np.array_equal(previous_y, state.y)
        if moved:
            stats = class_stats(prob.xs, state.y, prob.num_classes)
        if block_trace is not None:
            block_trace.append(_objective(state, prob, cfg, stats))
        residuals = compute_residuals(buffers, state.y, stats)
        update_view_weights(state, residuals, cfg.ablate_alpha)
        current = _objective(state, prob, cfg, stats, residuals)
        if block_trace is not None:
            block_trace.append(current)
        trace.append(current)
        alphas.append(state.view_weights.copy())
        previous = trace[-2]
        if abs(previous - current) / (abs(previous) + 1.0) < cfg.tol:
            converged = True
            break

    return FitResult(
        novel_assignment=state.y[prob.unlabeled].copy(),
        objective_trace=trace,
        alpha_trace=alphas,
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
        state=state,
        block_objective_trace=block_trace,
    )


def is_monotone(trace: list[float]) -> bool:
    """True when the trace never increases beyond ``DESCENT_SLACK``, relative."""
    return all(
        trace[i + 1] <= trace[i] + DESCENT_SLACK * (abs(trace[i]) + 1.0)
        for i in range(len(trace) - 1)
    )

