"""Alternating solver for multi-view novel class discovery.

The model factorizes every view as (orthonormal basis) x (centroids) x
(one-hot assignment), shares the assignment matrix across views, and learns
a simplex-constrained weight per view. Labeled samples pull their assignment
toward the ground truth; unlabeled samples pay a penalty for landing on a
class that owns labeled samples, which keeps novel clusters away from the
known classes. The basis update sets the bases and centroids together to
their joint minimum given the assignment, and every other block update is
the exact minimizer of its subproblem given the others, so the objective
never increases.
"""

from __future__ import annotations

import copy
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
    _column_blocks,
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
    # not a field: perfbench/child.py reads it; it goes with ROADMAP items 17 and 3
    track_block_objective = False

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
    """Current iterate: a list of per-view orthonormal bases (d_v x k),
    a list of per-view centroids (k x k), one assignment row per sample,
    and view weights on the simplex."""

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

    ``counts`` holds the samples per one-hot row. The d_v x k matrices are
    per-view lists: ``sums[v]`` is the class-sum matrix S_v = X_v @ Y.T,
    ``frames[v]`` the Q factor Q_v of its thin QR, the basis that
    :func:`update_basis` sets, and ``means[v]`` the class means
    S_v / counts (zero on empty rows).
    ``scatter[v]`` is the within-class scatter
    W_v = sum_i ||x_i - mean_{y_i}||^2, taken from the view's own class
    sums as ||X_v||_F^2 - sum_c ||S_c||^2 / n_c, one pass over the view,
    unless that falls below ``_SCATTER_IDENTITY_MIN`` times ||X_v||_F^2,
    where the difference cancels and a blocked pass over the samples gives
    it instead.
    """

    counts: np.ndarray
    sums: list[np.ndarray]
    frames: list[np.ndarray]
    means: list[np.ndarray]
    scatter: np.ndarray


@dataclass(eq=False)
class WorkBuffers:
    """Per-iteration quantities shared by the assignment updates and the
    reconstruction error.

    ``xs`` are the views and ``maps[v]`` is basis @ centroids for view v, so
    view v reconstructs sample i as ``maps[v][:, y[i]]``. ``products``
    stacks maps[v].T @ xs[v] over the views, V x k x n; it depends on the
    maps, not on the view weights. ``cost`` is the k x n assignment cost,
    sum_v w_v^2 (||x_{v,i} - maps[v][:, c]||^2 - ||x_{v,i}||^2) at row c
    and column i: what putting sample i on row c adds to the weighted
    reconstruction error, up to a per-sample constant. Both label updates
    gather their columns of it. ``label_counts`` counts ground-truth
    labeled samples per one-hot row (zero on novel rows).
    """

    xs: list[np.ndarray]
    maps: list[np.ndarray]
    products: np.ndarray
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
    totals: list[float]        # ||X_v||_F^2 per view, for class_stats


def _build_problem(ds: MultiViewDataset, normalize: str,
                   ablate_labeled: bool) -> _Problem:
    """The normalized problem ``fit`` solves for ``ds``."""
    if not ds.num_unlabeled:
        raise DatasetError(
            f"no unlabeled samples: none of the novel classes "
            f"{ds.novel_classes.tolist()} has a sample to cluster"
        )
    k = ds.num_classes
    for i, view in enumerate(ds.views):
        if view.dim < k:   # before the subset below, which could refuse k
            raise DatasetError(
                f"view {i}: {view.dim} features cannot carry an "
                f"orthonormal basis for {k} classes"
            )
    if ablate_labeled:
        # the subset is a fresh copy, so it is normalized in place
        work = _normalized(unlabeled_subset(ds), normalize, in_place=True)
    else:
        work = normalize_features(ds, normalize)
    for i, view in enumerate(work.views):
        if not _varies(view.data):
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
        totals=[float(np.einsum("ij,ij->", view.data, view.data)) for view in work.views],
    )


@dataclass(eq=False)
class _Preparation:
    """What :func:`fit` reads of its start before the lambdas act: the
    problem, the start iterate, its assignment's class statistics, its
    per-view residuals and the products of its maps with the views.
    ``buffers`` are the start's read-only :class:`WorkBuffers`; a fit that
    reaches a second iteration drops them, and the next fit rebuilds them
    by reweighting ``products``."""

    prob: _Problem
    state: ModelState
    stats: ClassStats
    residuals: np.ndarray
    products: np.ndarray
    buffers: WorkBuffers | None


@functools.lru_cache(maxsize=1)
def _prepare(ds: MultiViewDataset, normalize: str, ablate_labeled: bool,
             seed: int, init_y_novel: str) -> _Preparation:
    """The iteration-0 state of every fit of ``ds`` under these settings:
    the start iterate, its class statistics, and its read-only residuals
    and buffers, from which :func:`fit` enters its loop. None of it
    depends on the lambdas, so the last is cached (it holds ``ds``, which
    hashes by identity) and a sweep prepares once. Callers mutate only its
    ``buffers`` slot; :func:`fit` and :func:`initialize` copy the state.
    Its bases and centroids are the joint minimum of its assignment, set
    by :func:`update_basis`, so an iteration that keeps the start's
    assignment keeps all of it."""
    prob = _build_problem(ds, normalize, ablate_labeled)
    y = _initial_assignment(prob, seed, init_y_novel)
    stats = class_stats(prob.xs, y, prob.num_classes, prob.totals)
    start = ModelState(bases=None, centroids=None, y=y,
                       view_weights=np.full(len(prob.xs), 1.0 / len(prob.xs)))
    update_basis(start, prob.xs, stats)
    buffers = make_buffers(start, prob.xs, prob.label_counts)
    residuals = _residuals(stats, buffers.maps)
    for array in (residuals, buffers.products, buffers.cost):
        array.flags.writeable = False
    return _Preparation(prob, start, stats, residuals, buffers.products, buffers)


def initialize(ds: MultiViewDataset, cfg: SolverConfig) -> ModelState:
    """Build the starting iterate (the one :func:`fit` starts from)."""
    return copy.deepcopy(_prepare(ds, cfg.normalize, cfg.ablate_labeled,
                                  cfg.seed, cfg.init_y_novel).state)


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


# W_v = T_v - sum_c ||S_c||^2 / n_c loses up to about 2e-15 * T_v / W_v of
# W_v to cancellation. Measured against the blocked pass on z-scored synth
# data (3 views; 100 x 4,000, 100 x 20,000 and 200 x 8,000), by noise level,
# W/T and the largest relative error at 100 x 4,000:
#   noise 1: 0.88, 5e-16;  1e-2: 8.7e-4, 1.6e-12;  1e-3: 8.7e-6, 1.3e-10;
#   1e-6: 8.7e-12, 1e-4;   1e-9: 8.7e-18, 1e2 (W can come out negative).
# Below this W/T the blocked pass is taken instead, which keeps the
# identity's error under about 2e-13; 1e-3 would let 1.1e-12 through
# (200 x 8,000 at noise 1e-2, W/T 1.5e-3).
_SCATTER_IDENTITY_MIN = 1e-2


def _varies(x: np.ndarray) -> bool:
    """``np.ptp(x, axis=1).any()`` for finite ``x``: whether some column
    differs from the first, compared a block of columns at a time and
    decided at the first block that differs. ±0.0 compare equal, as their
    difference is 0."""
    first = x[:, :1]
    return any((x[:, cols] != first).any() for cols in _column_blocks(x))


def class_stats(xs: list[np.ndarray], y: np.ndarray, k: int,
                totals: list[float] | None = None) -> ClassStats:
    """Class statistics of assignment ``y`` over the views ``xs``.
    ``totals`` are the views' squared Frobenius norms T_v, which do not
    depend on ``y``; they are computed here when not given."""
    ymat_t = encode_onehot(y, k).T
    counts = np.bincount(y, minlength=k).astype(float)
    sums = [x @ ymat_t for x in xs]
    means = [np.divide(s, counts, out=np.zeros_like(s), where=counts > 0)
             for s in sums]
    frames = [np.linalg.qr(s)[0] for s in sums]
    scatter = np.empty(len(xs))
    for v, x in enumerate(xs):
        # W_v = T_v - sum_c S_c . mean_c, an empty row's mean being 0; the
        # blocked pass where that cancels or T_v overflows (under "none")
        total = float(np.einsum("ij,ij->", x, x)) if totals is None else totals[v]
        scatter[v] = total - float(np.einsum("ij,ij->", sums[v], means[v]))
        if not _SCATTER_IDENTITY_MIN * total <= scatter[v] < math.inf:
            scatter[v] = _within_scatter(x, y, means[v])
    return ClassStats(counts=counts, sums=sums, frames=frames, means=means,
                      scatter=scatter)


def _within_scatter(x: np.ndarray, y: np.ndarray, means: np.ndarray) -> float:
    """sum_i ||x_i - means[:, y_i]||^2, a block of columns at a time so no
    d x n temporary exists: :func:`class_stats`'s fallback where its
    identity for the scatter cancels."""
    total = 0.0
    for cols in _column_blocks(x):
        diff = np.take(means, y[cols], axis=1)
        diff -= x[:, cols]
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def update_basis(state: ModelState, xs: list[np.ndarray],
                 stats: ClassStats | None = None) -> None:
    """Per view, set the basis and the centroids to their joint minimum
    given the assignment: the basis is Q_v, the Q factor of the class sums
    S_v = X_v @ Y.T, and the centroids are its least-squares centroids
    (:func:`update_centroids`). Then basis @ centroids = S_v / (counts +
    RIDGE), the class means up to the ridge, whatever the bases and
    centroids were before, and a second call changes no bit. ``stats`` are
    the class statistics of ``state.y``; without them they are computed
    from ``xs``."""
    if stats is None:
        stats = class_stats(xs, state.y, state.num_classes)
    state.bases = list(stats.frames)
    update_centroids(state, xs, stats)


def update_centroids(state: ModelState, xs: list[np.ndarray],
                     stats: ClassStats | None = None) -> None:
    """Per view, least-squares centroids given basis and assignment:
    basis.T @ S_v divided column-wise by the class counts.

    Y @ Y.T is diagonal with the per-class counts; the ridge keeps columns
    of empty classes defined (they go to ~zero). ``stats`` as in
    :func:`update_basis`, which ends with this update, so calling it after
    that changes no bit.
    """
    if stats is None:
        stats = class_stats(xs, state.y, state.num_classes)
    scale = 1.0 / (stats.counts + RIDGE)
    state.centroids = [(b.T @ s) * scale for b, s in zip(state.bases, stats.sums)]


def make_buffers(state: ModelState, xs: list[np.ndarray],
                 label_counts: np.ndarray,
                 products: np.ndarray | None = None) -> WorkBuffers:
    """Assemble the shared per-iteration quantities for the current bases,
    centroids and view weights; they stay valid while only ``y`` changes.
    The cost is the weighted squared column norms of the maps less twice
    the w^2-weighted sum of the products maps[v].T @ xs[v], formed in one
    pass over the products.

    ``products`` are those of earlier buffers whose maps equal these,
    which the cost then only reweights; without them they are computed
    from ``xs``, one k x d_v by d_v x n product per view.
    """
    w2 = state.view_weights**2
    maps = _maps(state)
    if products is None:
        products = np.empty((len(maps), maps[0].shape[1], xs[0].shape[1]))
        for v, m in enumerate(maps):
            np.matmul(m.T, xs[v], out=products[v])
    diag = sum(w2[v] * np.einsum("ij,ij->j", m, m) for v, m in enumerate(maps))
    cost = np.tensordot(-2.0 * w2, products, 1)
    cost += diag[:, None]
    return WorkBuffers(xs=xs, maps=maps, products=products, cost=cost,
                       label_counts=np.asarray(label_counts, dtype=float))


def _maps(state: ModelState) -> list[np.ndarray]:
    """basis @ centroids for every view, d_v x k each."""
    return [b @ c for b, c in zip(state.bases, state.centroids)]


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
    exactly 0. ``maps`` are the d_v x k maps, one per view. The one formula
    behind the view-weight update and every objective value."""
    gaps = [mean - m for mean, m in zip(stats.means, maps)]
    return stats.scatter + [np.einsum("ij,ij,j->", g, g, stats.counts) for g in gaps]


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
    scores += 2.0 * buffers.label_counts[:, None] * lambda2
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
    stats = class_stats(prob.xs, state.y, prob.num_classes, prob.totals)
    return _objective(state, prob, cfg, _residuals(stats, _maps(state)))


def _objective(state: ModelState, prob: _Problem, cfg: SolverConfig,
               residuals: np.ndarray) -> float:
    """Objective of ``state`` from ``residuals``, the per-view
    reconstruction errors of its maps and assignment. Its callers hold
    them already, so it recomputes no block."""
    total = 0.0
    for w, r in zip(state.view_weights.tolist(), residuals.tolist()):
        total += w * w * r
    mismatches = int(np.count_nonzero(state.y[prob.labeled] != prob.truth_rows))
    total += 2.0 * mismatches * cfg.lambda1
    u_counts = np.bincount(state.y[prob.unlabeled], minlength=prob.num_classes)
    overlap = float(prob.label_counts @ u_counts)
    total -= 2.0 * (prob.labeled.size * prob.unlabeled.size - overlap) * cfg.lambda2
    return total


def _check_lambda2(ds: MultiViewDataset, cfg: SolverConfig) -> None:
    """Refuse a lambda2 whose largest term, 2 * lambda2 * n_l * n_u, is not
    finite; ``ablate_labeled`` drops the labeled samples and the term."""
    n_l = 0 if cfg.ablate_labeled else ds.num_labeled
    if not math.isfinite(2.0 * (n_l * ds.num_unlabeled) * cfg.lambda2):
        raise ValueError(f"lambda2 must keep 2 * lambda2 * n_l * n_u finite "
                         f"(n_l {n_l}, n_u {ds.num_unlabeled}), got {cfg.lambda2}")


def fit(ds: MultiViewDataset, cfg: SolverConfig) -> FitResult:
    """Run the alternating optimization to convergence.

    Block order per iteration: bases and centroids jointly, assignments
    (labeled then unlabeled columns), view weights. Stops when the
    relative objective change |J_prev - J| / (|J_prev| + 1) drops below
    cfg.tol.

    A block is recomputed only when the last label update moved what it
    reads. The loop enters from the preparation's iteration-0 state: the
    start iterate, its class statistics and residuals, and its read-only
    buffers, whose cost the first fit after a drop rebuilds from the held
    products. A move of the assignment rebuilds the class statistics and
    the residuals; the next iteration then sets the bases and centroids
    from them (:func:`update_basis`), whose new maps need their products
    with the views and the residuals once more. An iteration that moves
    nothing would recompute all of them bit for bit, since the bases and
    centroids are read off the unchanged class statistics; it passes the
    last products to :func:`make_buffers`, which only reweights them for
    the new view weights, V x k multiply-adds per sample.
    Each iteration after the first drops the start's held buffers before
    it builds its own, so a fit holds one k x n cost at a time.

    ``ds`` and its arrays are treated as immutable, since the last
    preparation is reused for the same ``ds``. After changing data in
    place, build a new dataset with ``make_dataset``.
    """
    start = time.perf_counter()
    _check_lambda2(ds, cfg)
    prep = _prepare(ds, cfg.normalize, cfg.ablate_labeled, cfg.seed,
                    cfg.init_y_novel)
    prob, stats, residuals = prep.prob, prep.stats, prep.residuals
    state = copy.deepcopy(prep.state)

    trace = [_objective(state, prob, cfg, residuals)]
    alphas = [state.view_weights.copy()]
    products = prep.products
    buffers = prep.buffers   # read once: another fit may drop the held one
    if buffers is None:
        buffers = make_buffers(prep.state, prob.xs, prob.label_counts, products)
        buffers.cost.flags.writeable = False
        prep.buffers = buffers
    converged = moved = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        refitted = moved
        if buffers is None:   # every iteration after the first
            prep.buffers = None   # so a fit holds one k x n cost at a time
            if refitted:
                update_basis(state, prob.xs, stats)
                products = None   # the maps moved
            buffers = make_buffers(state, prob.xs, prob.label_counts, products)
            products = buffers.products
        previous_y = state.y.copy()
        update_labels_known(state, buffers, prob.labeled, prob.truth_rows,
                            cfg.lambda1)
        update_labels_novel(state, buffers, prob.unlabeled, cfg.lambda2,
                            num_known=prob.num_known,
                            hard_restrict=cfg.hard_restrict_novel)
        moved = not np.array_equal(previous_y, state.y)
        if moved:
            stats = class_stats(prob.xs, state.y, prob.num_classes, prob.totals)
        if moved or refitted:
            residuals = compute_residuals(buffers, state.y, stats)
        buffers = None   # the next cost is built without this one
        update_view_weights(state, residuals, cfg.ablate_alpha)
        current = _objective(state, prob, cfg, residuals)
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
    )


def is_monotone(trace: list[float]) -> bool:
    """True when the trace never increases beyond ``DESCENT_SLACK``, relative."""
    return all(
        trace[i + 1] <= trace[i] + DESCENT_SLACK * (abs(trace[i]) + 1.0)
        for i in range(len(trace) - 1)
    )

