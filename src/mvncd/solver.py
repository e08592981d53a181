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

import math
import time
from dataclasses import dataclass

import numpy as np

from mvncd.baselines import kmeans_fit, stacked_samples
from mvncd.dataset import (
    NORMALIZATIONS,
    DatasetError,
    MultiViewDataset,
    encode_onehot,
    normalize_features,
    unlabeled_subset,
)

RIDGE = 1e-8          # keeps centroid columns of empty classes defined
DESCENT_SLACK = 1e-9  # relative slack for monotone-descent checks


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
    init_y_novel: str = "kmeans"    # {"kmeans", "random"}
    normalize: str = "zscore"       # {"zscore", "l2", "none"}
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
        if self.init_y_novel not in ("kmeans", "random"):
            raise ValueError(f"unknown init_y_novel: {self.init_y_novel!r}")
        if self.normalize not in NORMALIZATIONS:
            raise ValueError(f"unknown normalize mode: {self.normalize!r}")


@dataclass
class ModelState:
    """Current iterate: per-view orthonormal bases (d_v x k), per-view
    centroids (k x k), one assignment row per sample, and view weights on
    the simplex."""

    bases: list[np.ndarray]
    centroids: list[np.ndarray]
    y: np.ndarray
    view_weights: np.ndarray

    @property
    def num_views(self) -> int:
        return len(self.bases)

    @property
    def num_classes(self) -> int:
        return int(self.bases[0].shape[1])


@dataclass
class ClassStats:
    """All the basis, centroid and residual updates read of the data under
    one assignment y, so they need not touch the views while y stays put.

    ``counts`` holds the samples per one-hot row. Per view v, ``sums[v]`` is
    the d_v x k class-sum matrix S_v = X_v @ Y.T, ``frames[v]`` its thin QR
    factors (Q_v, R_v), ``means[v]`` the class means S_v / counts (zero on
    empty rows) and ``scatter[v]`` the within-class scatter
    W_v = sum_i ||x_i - mean_{y_i}||^2.
    """

    counts: np.ndarray
    sums: list[np.ndarray]
    frames: list[tuple[np.ndarray, np.ndarray]]
    means: list[np.ndarray]
    scatter: np.ndarray


@dataclass
class WorkBuffers:
    """Per-iteration quantities shared by the assignment updates and the
    reconstruction error.

    ``xs`` are the views and ``maps[v]`` is basis @ centroids for view v, so
    view v reconstructs sample i as ``maps[v][:, y[i]]``. ``diag`` holds the
    weight-combined squared norms of the columns of the maps and ``score``
    the weight-combined inner products with the data; the label updates read
    both. ``label_counts`` counts ground-truth labeled samples per one-hot
    row (zero on novel rows).
    """

    xs: list[np.ndarray]
    maps: list[np.ndarray]
    diag: np.ndarray
    score: np.ndarray
    label_counts: np.ndarray


@dataclass
class FitResult:
    novel_assignment: np.ndarray     # one-hot row id per unlabeled sample
    objective_trace: list[float]     # objective after init, then per iteration
    alpha_trace: list[np.ndarray]    # view weights along the same grid
    iterations: int
    converged: bool
    wall_time: float
    state: ModelState
    block_objective_trace: list[float] | None = None


@dataclass
class _Problem:
    """Preprocessed fitting problem in one-hot row coordinates."""

    xs: list[np.ndarray]
    labeled: np.ndarray
    unlabeled: np.ndarray
    truth_rows: np.ndarray     # ground-truth row per labeled column
    label_counts: np.ndarray
    num_classes: int
    num_known: int


def _build_problem(ds: MultiViewDataset, cfg: SolverConfig) -> _Problem:
    work = unlabeled_subset(ds) if cfg.ablate_labeled else ds
    work = normalize_features(work, cfg.normalize)
    k = work.num_classes
    for view in work.views:
        if view.dim < k:
            raise DatasetError(
                f"view {view.view_index}: {view.dim} features cannot carry an "
                f"orthonormal basis for {k} classes"
            )
        if not np.ptp(view.data, axis=1).any():
            raise DatasetError(
                f"view {view.view_index}: every feature is constant over the "
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


# The SolverConfig fields that _build_problem and _initialize read; the
# other fields (the lambdas, the stopping rule and the switches of the
# iterations) leave the preparation unchanged.
_PREPARE_FIELDS = ("normalize", "ablate_labeled", "seed", "init_y_novel")
_prepared: tuple | None = None   # (dataset, key, problem, initial state, its stats)


def _prepare(ds: MultiViewDataset,
             cfg: SolverConfig) -> tuple[_Problem, ModelState, ClassStats]:
    """The problem, the initial iterate and its class statistics for ``ds``
    under ``cfg``.

    The last preparation is kept in a single slot and reused while the
    dataset object and the fields in ``_PREPARE_FIELDS`` stay the same, so
    a sweep over the lambdas prepares once. The slot holds the dataset, so
    its identity cannot be recycled while cached. Callers never mutate what
    this returns.
    """
    global _prepared
    key = tuple(getattr(cfg, name) for name in _PREPARE_FIELDS)
    slot = _prepared
    if slot is not None and slot[0] is ds and slot[1] == key:
        return slot[2], slot[3], slot[4]
    prob = _build_problem(ds, cfg)
    state, stats = _initialize(prob, cfg)
    _prepared = (ds, key, prob, state, stats)
    return prob, state, stats


def _copy_state(state: ModelState) -> ModelState:
    """A state that shares no array with ``state``, so neither the block
    updates nor a caller of :func:`initialize` can change the cached one."""
    return ModelState(bases=[b.copy() for b in state.bases],
                      centroids=[c.copy() for c in state.centroids],
                      y=state.y.copy(),
                      view_weights=state.view_weights.copy())


def initialize(ds: MultiViewDataset, cfg: SolverConfig) -> ModelState:
    """Build the starting iterate (the one :func:`fit` starts from)."""
    return _copy_state(_prepare(ds, cfg)[1])


def _initialize(prob: _Problem, cfg: SolverConfig) -> tuple[ModelState, ClassStats]:
    k = prob.num_classes
    num_views = len(prob.xs)
    bases = [_leading_basis(x, k) for x in prob.xs]
    y = _initial_assignment(prob, cfg)
    # computed once the k-means input is released, to keep the peak down
    stats = class_stats(prob.xs, y, k)
    state = ModelState(
        bases=bases,
        centroids=[np.zeros((k, k)) for _ in range(num_views)],
        y=y,
        view_weights=np.full(num_views, 1.0 / num_views),
    )
    update_centroids(state, prob.xs, stats)
    return state, stats


def _initial_assignment(prob: _Problem, cfg: SolverConfig) -> np.ndarray:
    """Ground-truth rows for labeled samples; k-means on the stacked views
    for the unlabeled ones, or random novel rows when asked for or when
    there are fewer unlabeled samples than novel classes."""
    rng = np.random.default_rng(cfg.seed)
    k = prob.num_classes
    y = np.zeros(prob.xs[0].shape[1], dtype=int)
    y[prob.labeled] = prob.truth_rows
    n_u = prob.unlabeled.size
    if n_u:
        k_u = k - prob.num_known
        if cfg.init_y_novel == "kmeans" and n_u >= k_u:
            stacked = stacked_samples(prob.xs, prob.unlabeled)
            km = kmeans_fit(stacked.T, k_u, seed=int(rng.integers(2**32)))
            y[prob.unlabeled] = prob.num_known + km.assignment
        else:
            y[prob.unlabeled] = rng.integers(prob.num_known, k, size=n_u)
    return y


def _leading_basis(x: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of the d x d Gram X X^T, largest first: an
    orthonormal basis of the view's leading k-dimensional left subspace.
    Only its span matters: a rotation inside it cancels between the
    centroids and the next basis update."""
    _, vecs = np.linalg.eigh(x @ x.T)
    return vecs[:, ::-1][:, :k].copy()


_SCATTER_COLUMNS = 1024   # samples per block of the scatter pass


def class_stats(xs: list[np.ndarray], y: np.ndarray, k: int) -> ClassStats:
    """Class statistics of assignment ``y`` over the views ``xs``."""
    ymat_t = encode_onehot(y, k).T
    counts = np.bincount(y, minlength=k).astype(float)
    sums = [x @ ymat_t for x in xs]
    means = [np.divide(s, counts, out=np.zeros_like(s), where=counts > 0)
             for s in sums]
    scatter = np.array([_within_scatter(x, y, mu) for x, mu in zip(xs, means)])
    return ClassStats(counts=counts, sums=sums,
                      frames=[np.linalg.qr(s) for s in sums],
                      means=means, scatter=scatter)


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
    ``xs``."""
    if stats is None:
        stats = class_stats(xs, state.y, state.num_classes)
    u, _, vt = np.linalg.svd(np.stack([r @ c.T for (_, r), c
                                       in zip(stats.frames, state.centroids)]))
    for v, ((q, _), polar) in enumerate(zip(stats.frames, u @ vt)):
        state.bases[v] = q @ polar


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
    inv = 1.0 / (stats.counts + RIDGE)
    for v, s in enumerate(stats.sums):
        state.centroids[v] = (state.bases[v].T @ s) * inv[None, :]


def make_buffers(state: ModelState, xs: list[np.ndarray],
                 label_counts: np.ndarray) -> WorkBuffers:
    """Assemble the shared per-iteration quantities for the current bases
    and centroids; they stay valid while only ``y`` and the view weights
    change."""
    w2 = state.view_weights**2
    maps = [state.bases[v] @ state.centroids[v] for v in range(state.num_views)]
    diag = sum(w2[v] * np.einsum("ij,ij->j", m, m) for v, m in enumerate(maps))
    score = sum(w2[v] * (m.T @ xs[v]) for v, m in enumerate(maps))
    return WorkBuffers(xs=xs, maps=maps, diag=diag, score=score,
                       label_counts=np.asarray(label_counts, dtype=float))


def compute_residuals(buffers: WorkBuffers, y: np.ndarray,
                      stats: ClassStats | None = None) -> np.ndarray:
    """Per-view squared reconstruction error for assignment ``y``;
    ``stats`` are the class statistics of ``y``, computed from
    ``buffers.xs`` when not given."""
    if stats is None:
        stats = class_stats(buffers.xs, y, buffers.maps[0].shape[1])
    return _residuals(stats, buffers.maps)


def _residuals(stats: ClassStats, maps: list[np.ndarray]) -> np.ndarray:
    """``||X_v - maps[v][:, y]||^2`` per view, split at the class means
    (Koenig-Huygens): W_v + sum_c n_c ||mean_c - maps[v][:, c]||^2. Both
    terms are sums of squares, so nothing cancels, and an empty row adds
    exactly 0. The one formula behind the view-weight update and every
    objective value."""
    out = np.empty(len(maps))
    for v, m in enumerate(maps):
        gap = stats.means[v] - m
        out[v] = stats.scatter[v] + np.einsum("ij,ij,j->", gap, gap, stats.counts)
    return out


def update_labels_known(state: ModelState, buffers: WorkBuffers,
                        labeled: np.ndarray, truth_rows: np.ndarray,
                        lambda1: float) -> None:
    """Exact per-column minimizer for labeled samples: reconstruction score
    plus the supervision pull toward the ground-truth row. Ties go to the
    lowest row index (argmin semantics)."""
    if labeled.size == 0:
        return
    scores = buffers.diag[:, None] - 2.0 * buffers.score[:, labeled]
    scores[truth_rows, np.arange(labeled.size)] -= 2.0 * lambda1
    state.y[labeled] = np.argmin(scores, axis=0)


def update_labels_novel(state: ModelState, buffers: WorkBuffers,
                        unlabeled: np.ndarray, lambda2: float,
                        num_known: int = 0,
                        hard_restrict: bool = False) -> None:
    """Exact per-column minimizer for unlabeled samples: reconstruction
    score plus 2*lambda2*(labeled count of the row), the one-hot form of the
    separation reward. ``hard_restrict`` masks known rows entirely."""
    if unlabeled.size == 0:
        return
    scores = buffers.diag[:, None] - 2.0 * buffers.score[:, unlabeled]
    scores += 2.0 * lambda2 * buffers.label_counts[:, None]
    if hard_restrict:
        scores[:num_known, :] = np.inf
    state.y[unlabeled] = np.argmin(scores, axis=0)


def update_view_weights(state: ModelState, residuals: np.ndarray,
                        ablate_alpha: bool = False) -> None:
    """Closed-form simplex minimizer of sum_v weight_v^2 * residual_v:
    weights proportional to inverse residuals. Views with (numerically)
    zero residual share all the weight uniformly. No-op when ablated."""
    if ablate_alpha:
        return
    r = np.maximum(np.asarray(residuals, dtype=float), 0.0)
    zero = r <= 1e-12 * (1.0 + r.max())
    if np.any(zero):
        weights = zero / zero.sum()
    else:
        inv = 1.0 / r
        weights = inv / inv.sum()
    state.view_weights = weights


def objective_value(state: ModelState, ds: MultiViewDataset,
                    cfg: SolverConfig) -> float:
    """Full objective of ``state`` on ``ds`` under ``cfg`` (same
    preprocessing fit applies: normalization and the labeled-ablation
    restriction)."""
    prob = _build_problem(ds, cfg)
    return _objective(state, prob, cfg,
                      class_stats(prob.xs, state.y, prob.num_classes))


def _objective(state: ModelState, prob: _Problem, cfg: SolverConfig,
               stats: ClassStats, residuals: np.ndarray | None = None) -> float:
    """Objective of ``state``, whose assignment has class statistics
    ``stats``; ``residuals`` are its per-view reconstruction errors when the
    caller already has them."""
    if residuals is None:
        residuals = _residuals(stats, [b @ c for b, c in zip(state.bases,
                                                             state.centroids)])
    w2 = state.view_weights**2
    total = 0.0
    for v in range(len(prob.xs)):
        total += w2[v] * float(residuals[v])
    mismatches = int(np.count_nonzero(state.y[prob.labeled] != prob.truth_rows))
    total += cfg.lambda1 * 2.0 * mismatches
    n_l = prob.labeled.size
    n_u = prob.unlabeled.size
    if n_l and n_u:
        u_counts = np.bincount(state.y[prob.unlabeled], minlength=prob.num_classes)
        overlap = float(prob.label_counts @ u_counts)
        total -= cfg.lambda2 * 2.0 * (n_l * n_u - overlap)
    return total


def fit(ds: MultiViewDataset, cfg: SolverConfig) -> FitResult:
    """Run the alternating optimization to convergence.

    Block order per iteration: bases, centroids, assignments (labeled then
    unlabeled columns), view weights. Stops when the relative objective
    change |J_prev - J| / (|J_prev| + 1) drops below cfg.tol. Only the
    assignment update reads the views; the other blocks and the objective
    work from the class statistics, rebuilt when the assignment moves.

    ``ds`` and its arrays are treated as immutable: the normalized problem,
    the initial iterate and its statistics of the last call are reused when
    ``ds`` is the same object and normalize, ablate_labeled, seed and
    init_y_novel are unchanged. After changing data in place, build a new
    dataset with ``make_dataset``.
    """
    start = time.perf_counter()
    prob, initial, stats = _prepare(ds, cfg)
    state = _copy_state(initial)

    trace = [_objective(state, prob, cfg, stats)]
    alphas = [state.view_weights.copy()]
    block_trace: list[float] | None = [] if cfg.track_block_objective else None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        update_basis(state, prob.xs, stats)
        if block_trace is not None:
            block_trace.append(_objective(state, prob, cfg, stats))
        update_centroids(state, prob.xs, stats)
        if block_trace is not None:
            block_trace.append(_objective(state, prob, cfg, stats))
        buffers = make_buffers(state, prob.xs, prob.label_counts)
        previous_y = state.y.copy()
        update_labels_known(state, buffers, prob.labeled, prob.truth_rows,
                            cfg.lambda1)
        update_labels_novel(state, buffers, prob.unlabeled, cfg.lambda2,
                            num_known=prob.num_known,
                            hard_restrict=cfg.hard_restrict_novel)
        if not np.array_equal(previous_y, state.y):
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

