import dataclasses
import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_DIR,
    assert_joint_minimum,
    naive_objective,
    objective_lower_bound,
    random_dataset,
    replay_fit,
    traced_peak,
    validate_state,
)

from mvncd.dataset import (
    DatasetError,
    SyntheticSpec,
    encode_onehot,
    generate_synthetic,
    load_dataset,
    make_dataset,
    normalize_features,
    unlabeled_subset,
)
from mvncd import solver
from mvncd.baselines import kmeans_fit
from mvncd.metrics import clustering_accuracy
from mvncd.solver import (
    INIT_MODES,
    ModelState,
    SolverConfig,
    compute_residuals,
    fit,
    initialize,
    is_monotone,
    make_buffers,
    objective_value,
    update_basis,
    update_centroids,
    update_labels_known,
    update_labels_novel,
    update_view_weights,
)

I2 = np.eye(2)


def manual_state(bases, centroids, y, weights):
    return ModelState(
        bases=[np.asarray(b, dtype=float) for b in bases],
        centroids=[np.asarray(c, dtype=float) for c in centroids],
        y=np.asarray(y, dtype=int),
        view_weights=np.asarray(weights, dtype=float),
    )


def random_state(rng, ds, num_columns=None):
    k = ds.num_classes
    n = ds.num_samples if num_columns is None else num_columns
    bases = []
    for d in ds.view_dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        bases.append(q[:, :k])
    centroids = [rng.standard_normal((k, k)) for _ in ds.view_dims]
    weights = rng.dirichlet(np.ones(ds.num_views))
    return manual_state(bases, centroids, rng.integers(0, k, size=n), weights)


def crafted_overlap(seed=0, pull=0.85):
    """Blob data where known class 1 is dragged most of the way onto novel
    class 2, so supervision is the only thing holding its labels in place."""
    base = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=40,
                                            dims=(8, 9), separation=6.0,
                                            noise=1.0, seed=seed))
    arrays = []
    for view in base.views:
        data = view.data.copy()
        m1 = data[:, base.labels == 1].mean(axis=1, keepdims=True)
        m2 = data[:, base.labels == 2].mean(axis=1, keepdims=True)
        data[:, base.labels == 1] += pull * (m2 - m1)
        arrays.append(data)
    return make_dataset(arrays, base.labels, base.num_classes)


# --- config ---

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(lambda2=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1e-9)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SolverConfig(seed=-1)
    for field in ("lambda1", "lambda2", "tol"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SolverConfig(**{field: value})
    with pytest.raises(ValueError):
        SolverConfig(init_y_novel="pseudo")
    with pytest.raises(ValueError):
        SolverConfig(normalize="minmax")


def test_config_has_no_block_objective_knob():
    # per-block descent is checked by replay_fit in the tests, so fit keeps
    # no knob for it; the class attribute is no field and no report key
    assert len(dataclasses.fields(SolverConfig)) == 10
    assert "track_block_objective" not in dataclasses.asdict(SolverConfig())
    with pytest.raises(TypeError):
        SolverConfig(track_block_objective=True)


# --- initialization ---

def test_initialize_invariants_and_determinism():
    rng = np.random.default_rng(1)
    for _ in range(5):
        ds = random_dataset(rng, per_class=12)
        cfg = SolverConfig(seed=3)
        state = initialize(ds, cfg)
        validate_state(state)
        again = initialize(ds, cfg)
        assert np.array_equal(state.y, again.y)
        for a, b in zip(state.bases, again.bases):
            assert np.array_equal(a, b)
        rows = ds.class_rows()
        truth_rows = rows[ds.labels[ds.labeled_indices]]
        assert np.array_equal(state.y[ds.labeled_indices], truth_rows)


def test_initialize_kmeans_start_on_separable_data():
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=20,
                                          dims=(6, 8), separation=12.0,
                                          noise=0.4, seed=2))
    state = initialize(ds, SolverConfig(seed=0))
    truth = ds.labels[ds.unlabeled_indices]
    assert clustering_accuracy(state.y[ds.unlabeled_indices], truth) == 1.0
    assert state.y[ds.unlabeled_indices].min() >= ds.num_known


@pytest.mark.parametrize("dims", [(8, 8, 8), (8, 8, 24)])
def test_bases_are_a_list_of_per_view_arrays(dims):
    # one representation whether or not the views share a width
    ds = generate_synthetic(SyntheticSpec(views=3, classes=4, per_class=20,
                                          dims=dims, seed=0))
    cfg = SolverConfig(seed=0, tol=0.0, max_iter=3)
    for state in (initialize(ds, cfg), fit(ds, cfg).state):
        assert type(state.bases) is list
        assert [basis.shape for basis in state.bases] == [(d, 4) for d in dims]


def test_initialize_random_mode():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, per_class=10)
    state = initialize(ds, SolverConfig(seed=1, init_y_novel="random"))
    validate_state(state)
    assert state.y[ds.unlabeled_indices].min() >= ds.num_known


def _start_cases():
    """(dataset, config, whether a one-hot row starts empty) triples."""
    rng = np.random.default_rng(12)
    cases = [(random_dataset(rng), SolverConfig(seed=seed, normalize=normalize),
              False)
             for seed, normalize in ((0, "zscore"), (1, "l2"), (2, "none"))]
    cases.append((random_dataset(rng, per_class=10),
                  SolverConfig(seed=3, init_y_novel="random"), False))
    # known class 0 has no sample, so its row starts (and stays) empty
    full = random_dataset(rng)
    keep = full.labels != 0
    cases.append((make_dataset([v.data[:, keep] for v in full.views],
                               full.labels[keep], full.num_classes,
                               full.known_classes), SolverConfig(seed=4), True))
    cases.append((_fewer_samples_than_classes(), SolverConfig(seed=0), True))
    return cases


def _assert_maps(state, want):
    for b, c, w in zip(state.bases, state.centroids, want):
        assert np.linalg.norm(b @ c - w) <= 1e-12 * np.linalg.norm(w)


def test_start_is_the_block_minimum_of_its_assignment():
    # the start's maps are the class sums over count + RIDGE, which is
    # where a basis and a centroid update take any basis
    for ds, cfg, has_empty_row in _start_cases():
        state = initialize(ds, cfg)
        xs = [v.data for v in normalize_features(ds, cfg.normalize).views]
        k = ds.num_classes
        counts = np.bincount(state.y, minlength=k)
        assert np.any(counts == 0) == has_empty_row
        want = [(x @ encode_onehot(state.y, k).T) / (counts + solver.RIDGE)
                for x in xs]
        _assert_maps(state, want)
        update_basis(state, xs)
        update_centroids(state, xs)
        _assert_maps(state, want)


def _shuffled_blobs(layout, per_class=300, dims=(40, 60), separation=4.0,
                    seed=0):
    """Blob data with the samples in random order, so the unlabeled
    indices are scattered, and the views in ``layout`` order ("C" is what
    load_dataset and generate_synthetic return, "F" a sample-major array
    passed as its transpose)."""
    base = generate_synthetic(SyntheticSpec(views=len(dims), classes=8,
                                            per_class=per_class, dims=dims,
                                            separation=separation,
                                            noise=1.0, seed=seed))
    order = np.random.default_rng(seed).permutation(base.num_samples)
    return make_dataset([np.asarray(v.data[:, order], order=layout)
                         for v in base.views], base.labels[order], 8)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_initial_assignment_is_kmeans_on_stacked_unlabeled_views(layout):
    # the benchmark's replay runs k-means on this np.vstack input and
    # requires the same assignment as initialization's
    for seed in (0, 1):
        prob = solver._build_problem(_shuffled_blobs(layout, seed=seed),
                                     "zscore", False)
        unlabeled = prob.unlabeled
        assert all(x.flags[f"{layout}_CONTIGUOUS"] for x in prob.xs)
        # scattered, so k-means reads labeled columns inside the span and
        # must leave them out of every sum
        assert np.any(np.diff(unlabeled) > 1) and unlabeled.size > 1024
        stacked = np.vstack([x[:, unlabeled] for x in prob.xs])
        km_seed = int(np.random.default_rng(seed).integers(2**32))
        km = kmeans_fit(stacked, prob.num_classes - prob.num_known, km_seed)
        y = solver._initial_assignment(prob, seed, "kmeans")
        assert np.array_equal(y[unlabeled], prob.num_known + km.assignment)


def test_initial_assignment_holds_no_copy_of_the_kmeans_input():
    # k-means runs on the views in place: beside them it holds vectors and
    # k x n products over the unlabeled samples' column span (here the
    # whole sample axis), 0.14x the input at k = 4. A stacked copy of the
    # input alone is 1x, a gather of one of the four balanced classes 0.25x.
    prob = solver._build_problem(_shuffled_blobs("F", per_class=1000,
                                                 dims=(100, 100, 100),
                                                 separation=20.0), "zscore", False)
    input_bytes = prob.unlabeled.size * sum(x.shape[0] for x in prob.xs) * 8
    peak = traced_peak(solver._initial_assignment, prob, 0, "kmeans")
    assert peak < 0.25 * input_bytes


@pytest.mark.parametrize("mode", ["zscore", "l2"])
def test_ablated_labels_normalize_the_subset_in_place(mode):
    # the unlabeled subset is a fresh copy, so normalizing it needs none
    # more: a second copy would read 2x
    ds = _shuffled_blobs("F", per_class=1000, dims=(100, 100, 100))
    subset = unlabeled_subset(ds)
    subset_bytes = sum(v.data.nbytes for v in subset.views)
    peak = traced_peak(solver._build_problem, ds, mode, True)
    assert peak <= 1.3 * subset_bytes
    prob = solver._build_problem(ds, mode, True)
    want = normalize_features(subset, mode)
    assert all(x.tobytes() == v.data.tobytes() for x, v in zip(prob.xs, want.views))


# --- basis update ---

def test_basis_identity_and_diagonal_targets():
    for target in (np.eye(2), np.diag([3.0, 5.0])):
        state = manual_state([np.eye(2)], [np.eye(2)], [0, 1], [1.0])
        update_basis(state, [target])  # y = identity, A = I, so B = target
        assert np.allclose(state.bases[0], np.eye(2), atol=1e-12)


def test_basis_permutation_target():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    state = manual_state([np.eye(2)], [np.eye(2)], [0, 1], [1.0])
    assert_joint_minimum(state, [swap])


def test_basis_attains_the_joint_minimum_on_random_targets():
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, d + 1))
        target = rng.standard_normal((d, k))
        state = manual_state([np.eye(d)[:, :k]], [np.eye(k)],
                             np.arange(k), [1.0])
        validate_state(assert_joint_minimum(state, [target]))


# --- the class frame ---

@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(k=st.integers(2, 6), extra_dims=st.lists(st.integers(0, 7), min_size=1,
                                                 max_size=3),
       n=st.integers(8, 60), data_seed=st.integers(0, 2**32 - 1))
def test_frame_scores_and_norms_match_the_views(k, extra_dims, n, data_seed):
    # uneven dims with d_v = k among them, a class with no sample, view
    # weights far from uniform, and a start basis off span(Q_v)
    rng = np.random.default_rng(data_seed)
    dims = [k, *(k + e for e in extra_dims)]
    xs = [rng.standard_normal((d, n)) for d in dims]
    y = rng.integers(0, k - 1, size=n)  # row k - 1 stays empty
    weights = 0.1 ** np.arange(len(dims))
    state = manual_state([np.linalg.qr(rng.standard_normal((d, k)))[0]
                          for d in dims],
                         [rng.standard_normal((k, k)) for _ in dims], y,
                         weights / weights.sum())
    stats = solver.class_stats(xs, y, k)
    update_centroids(state, xs, stats)
    update_basis(state, xs, stats)
    update_centroids(state, xs, stats)
    q = stats.frames
    for v, basis in enumerate(state.bases):
        frame = q[v]
        assert np.linalg.norm(basis - frame @ (frame.T @ basis)) <= 1e-12
    framed = make_buffers(state, xs, np.zeros(k), stats).cost
    direct = make_buffers(state, xs, np.zeros(k)).cost
    assert np.max(np.abs(framed - direct)) <= 1e-12 * np.max(np.abs(direct))
    # the basis now is the block minimum of its own centroids: the next
    # update keeps it, and it attains the Procrustes bound
    kept = [basis.copy() for basis in state.bases]
    update_basis(state, xs, stats)
    for v, (basis, x) in enumerate(zip(state.bases, xs)):
        assert np.array_equal(basis, kept[v])
        target = x @ encode_onehot(y, k).T @ state.centroids[v].T
        bound = np.linalg.svd(target, compute_uv=False).sum()
        assert np.trace(basis.T @ target) == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cost_is_the_weighted_distance_less_the_sample_norm(seed):
    # d-space path, uneven dims, an empty class and skewed weights:
    # cost[c, i] = sum_v w_v^2 (||x_{v,i} - m_{v,c}||^2 - ||x_{v,i}||^2)
    rng = np.random.default_rng(seed)
    k, n, dims = 4, 30, (4, 7, 11)
    xs = [rng.standard_normal((d, n)) for d in dims]
    weights = 0.1 ** np.arange(len(dims))
    state = manual_state([np.linalg.qr(rng.standard_normal((d, k)))[0]
                          for d in dims],
                         [np.zeros((k, k)) for _ in dims],
                         rng.integers(0, k - 1, size=n),  # row k - 1 stays empty
                         weights / weights.sum())
    update_centroids(state, xs)
    want = np.zeros((k, n))
    for v, x in enumerate(xs):
        maps = state.bases[v] @ state.centroids[v]
        dist = ((x[:, None, :] - maps[:, :, None]) ** 2).sum(axis=0)
        want += state.view_weights[v] ** 2 * (dist - (x**2).sum(axis=0))
    got = make_buffers(state, xs, np.zeros(k)).cost
    assert got.shape == (k, n)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- class statistics ---

@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(k=st.integers(2, 6), extra_dims=st.lists(st.integers(0, 8), min_size=1,
                                                 max_size=3),
       n=st.integers(2, 80), separation=st.integers(0, 6), skew=st.integers(0, 8),
       offset=st.integers(-1, 8), data_seed=st.integers(0, 2**32 - 1))
def test_scatter_matches_the_blocked_pass(k, extra_dims, n, separation, skew,
                                          offset, data_seed):
    # uneven dims, an empty class, class means from level with the noise to
    # 1e6 above it, feature scales 10**skew apart, and an offset of up to
    # 1e8 that no normalization takes out (normalize="none")
    rng = np.random.default_rng(data_seed)
    dims = [k + e for e in extra_dims]
    y = rng.integers(0, k - 1, size=n)  # row k - 1 stays empty
    xs = []
    for d in dims:
        centers = rng.standard_normal((d, k)) * 10.0**separation
        x = centers[:, y] + rng.standard_normal((d, n))
        x *= 10.0 ** rng.uniform(-skew / 2, skew / 2, size=(d, 1))
        xs.append(x + (10.0**offset if offset >= 0 else 0.0))
    stats = solver.class_stats(xs, y, k)
    for v, x in enumerate(xs):
        want = solver._within_scatter(x, y, stats.means[v])
        assert abs(stats.scatter[v] - want) <= 1e-12 * want


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_scatter_of_near_noiseless_views_is_the_blocked_pass(noise):
    # W_v / T_v is about 1e-29 and 1e-17 here, where the class-sum identity
    # keeps no correct digit
    ds = normalize_features(generate_synthetic(SyntheticSpec(
        views=3, classes=10, per_class=40, dims=20, separation=4.0,
        noise=noise, seed=0)), "zscore")
    y = ds.class_rows()[ds.labels]
    xs = [view.data for view in ds.views]
    stats = solver.class_stats(xs, y, ds.num_classes)
    for v, x in enumerate(xs):
        want = solver._within_scatter(x, y, stats.means[v])
        assert stats.scatter[v] == want


def test_scatter_of_a_view_whose_squares_overflow_is_the_blocked_pass():
    # ||X||_F^2 is inf, the scatter about 1.4e306 (possible under "none")
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=40)
    x = 1e155 * (1.0 + 1e-3 * rng.standard_normal((4, 40)))
    stats = solver.class_stats([x], y, 3)
    want = solver._within_scatter(x, y, stats.means[0])
    assert np.isfinite(want) and stats.scatter[0] == want


def test_column_scans_of_a_wide_view_hold_no_view_sized_temporary():
    # far more features than samples, the paper's regime: the scatter's
    # blocked pass and the constant-view check take about 256 KiB of
    # columns at a time, where blocks of a fixed column count would each
    # span this whole 19.2 MB view (and its 2.4 MB comparison mask)
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, size=600)
    x = rng.standard_normal((4000, 600))
    means = solver.class_stats([x], y, 4).means[0]
    assert traced_peak(solver._within_scatter, x, y, means) < 1 << 20
    x.fill(1.5)   # a constant view, so the check scans every column
    assert traced_peak(solver._varies, x) < 1 << 20
    assert not solver._varies(x)


def test_fit_passes_the_squared_norms_summed_once(monkeypatch):
    # _build_problem sums each view's T_v once; every class_stats call of
    # fit gets them and gives the statistics computed without them, bit for bit
    ds = _shuffled_blobs("F", seed=2)
    prob = solver._build_problem(ds, "zscore", False)
    assert prob.totals == [float(np.einsum("ij,ij->", x, x)) for x in prob.xs]
    real, calls = solver.class_stats, []

    def spy(xs, y, k, *totals):
        calls.append(totals)
        given, computed = real(xs, y, k, *totals), real(xs, y, k)
        for field in ("counts", "scatter", "z"):
            assert getattr(given, field).tobytes() == getattr(computed, field).tobytes()
        for field in ("sums", "means"):
            assert [m.tobytes() for m in getattr(given, field)] == \
                [m.tobytes() for m in getattr(computed, field)]
        return given
    monkeypatch.setattr(solver, "class_stats", spy)
    solver._prepare.cache_clear()
    result = fit(ds, SolverConfig(seed=0, init_y_novel="random"))
    assert result.iterations > 1 and len(calls) > 1
    assert all(totals == (prob.totals,) for totals in calls)


# --- centroid update ---

def test_centroids_class_mean_example():
    x = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    state = manual_state([np.eye(2)], [np.zeros((2, 2))], [0, 0, 1], [1.0])
    update_centroids(state, [x])
    assert np.allclose(state.centroids[0], [[2.0, 5.0], [3.0, 6.0]], atol=1e-6)


def test_centroids_recover_exact_factorization():
    rng = np.random.default_rng(15)
    for _ in range(10):
        d, k, n = 6, 3, 30
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        a_true = rng.standard_normal((k, k))
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)  # no empty class
        ymat = np.zeros((k, n))
        ymat[y, np.arange(n)] = 1.0
        x = q @ a_true @ ymat
        state = manual_state([q], [np.zeros((k, k))], y, [1.0])
        update_centroids(state, [x])
        assert np.allclose(state.centroids[0], a_true, atol=1e-6)


def test_centroids_normal_equations_residual():
    rng = np.random.default_rng(16)
    for _ in range(20):
        ds = random_dataset(rng, per_class=8)
        state = random_state(rng, ds)
        xs = [v.data for v in ds.views]
        update_centroids(state, xs)
        ymat = encode_onehot(state.y, ds.num_classes)
        counts = np.diag(ymat @ ymat.T)
        for v, x in enumerate(xs):
            residual = state.bases[v].T @ x @ ymat.T \
                - state.centroids[v] * counts[None, :]
            assert np.max(np.abs(residual)) < 1e-6


def test_centroids_empty_class_decays():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = manual_state([np.eye(2)], [np.ones((2, 2))], [0, 0], [1.0])
    update_centroids(state, [x])
    assert np.max(np.abs(state.centroids[0][:, 1])) < 1e-6


# --- assignment updates (worked single-column cases) ---

def _one_column_state(x):
    state = manual_state([I2], [I2], [0], [1.0])
    xs = [np.asarray(x, dtype=float).reshape(2, 1)]
    return state, xs


def test_labels_known_supervision_flip():
    for lam1, expected in ((0.0, 0), (1.0, 1)):
        state, xs = _one_column_state([0.9, 0.1])
        buffers = make_buffers(state, xs, label_counts=np.array([0.0, 1.0]))
        update_labels_known(state, buffers, np.array([0]), np.array([1]), lam1)
        assert state.y[0] == expected


def test_labels_known_dominant_lambda1():
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, per_class=10)
    result = fit(ds, SolverConfig(seed=0, lambda1=1e6, max_iter=10))
    rows = ds.class_rows()
    truth_rows = rows[ds.labels[ds.labeled_indices]]
    assert np.array_equal(result.state.y[ds.labeled_indices], truth_rows)


def test_labels_novel_separation_flip():
    for lam2, expected in ((0.2, 0), (0.3, 1)):
        state, xs = _one_column_state([0.9, 0.1])
        buffers = make_buffers(state, xs, label_counts=np.array([3.0, 0.0]))
        update_labels_novel(state, buffers, np.array([0]), lam2)
        assert state.y[0] == expected


def test_labels_novel_nearest_centroid():
    state, xs = _one_column_state([0.2, 0.8])
    buffers = make_buffers(state, xs, label_counts=np.zeros(2))
    update_labels_novel(state, buffers, np.array([0]), 0.0)
    assert state.y[0] == 1


def test_labels_novel_hard_restriction():
    state, xs = _one_column_state([0.9, 0.1])
    buffers = make_buffers(state, xs, label_counts=np.zeros(2))
    update_labels_novel(state, buffers, np.array([0]), 0.0,
                        num_known=1, hard_restrict=True)
    assert state.y[0] == 1  # row 0 masked even though it is closer


def test_label_updates_on_no_columns_leave_y_unchanged():
    state, xs = _one_column_state([0.9, 0.1])
    buffers = make_buffers(state, xs, label_counts=np.array([1.0, 0.0]))
    none = np.array([], dtype=int)
    update_labels_known(state, buffers, none, none, 1.0)
    update_labels_novel(state, buffers, none, 1.0, num_known=1,
                        hard_restrict=True)
    assert state.y.tolist() == [0]


def test_labels_novel_penalty_dominance():
    rng = np.random.default_rng(22)
    ds = random_dataset(rng, per_class=8)
    result = fit(ds, SolverConfig(seed=0, lambda2=1e6, max_iter=5))
    assert result.novel_assignment.min() >= ds.num_known


def test_lambda2_is_refused_once_the_separation_term_overflows():
    # the largest lambda2 with 2 * lambda2 * n_l * n_u finite fits with a
    # finite, monotone trace; the next float up is refused, except under
    # ablate_labeled, which drops the term
    ds = random_dataset(np.random.default_rng(22), per_class=8)
    pairs = 2.0 * (ds.num_labeled * ds.num_unlabeled)
    top = sys.float_info.max / pairs
    while math.isfinite(pairs * math.nextafter(top, math.inf)):
        top = math.nextafter(top, math.inf)
    while not math.isfinite(pairs * top):
        top = math.nextafter(top, 0.0)
    result = fit(ds, SolverConfig(seed=0, lambda2=top, tol=0.0, max_iter=5))
    assert np.all(np.isfinite(result.objective_trace))
    assert is_monotone(result.objective_trace)
    over = math.nextafter(top, math.inf)
    with pytest.raises(ValueError, match="^lambda2 must keep 2 \\* lambda2 \\* n_l \\* n_u finite"):
        fit(ds, SolverConfig(seed=0, lambda2=over))
    ablated = [fit(ds, SolverConfig(seed=0, lambda2=value, ablate_labeled=True))
               for value in (1.0, over)]
    assert ablated[0].objective_trace == ablated[1].objective_trace


# --- view weights ---

def test_view_weights_examples():
    state = manual_state([I2] * 3, [I2] * 3, [0], [1 / 3] * 3)
    update_view_weights(state, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(state.view_weights, [1 / 3, 1 / 3, 1 / 3])

    state = manual_state([I2] * 2, [I2] * 2, [0], [0.5, 0.5])
    update_view_weights(state, np.array([1.0, 4.0]))
    assert np.allclose(state.view_weights, [0.8, 0.2])

    state = manual_state([I2], [I2], [0], [1.0])
    update_view_weights(state, np.array([3.7]))
    assert np.allclose(state.view_weights, [1.0])


def test_view_weights_zero_residual():
    state = manual_state([I2] * 3, [I2] * 3, [0], [1 / 3] * 3)
    update_view_weights(state, np.array([0.0, 2.0, 0.0]))
    assert np.allclose(state.view_weights, [0.5, 0.0, 0.5])


def test_view_weights_ablated_noop():
    state = manual_state([I2] * 2, [I2] * 2, [0], [0.5, 0.5])
    update_view_weights(state, np.array([1.0, 4.0]), ablate_alpha=True)
    assert np.allclose(state.view_weights, [0.5, 0.5])


# --- objective ---

def test_objective_zero_on_exact_factorization():
    rng = np.random.default_rng(30)
    d, k, n = 6, 4, 24
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    a = rng.standard_normal((k, k))
    labels = np.repeat(np.arange(k), n // k)
    ymat = np.zeros((k, n))
    ymat[labels, np.arange(n)] = 1.0
    ds = make_dataset([q @ a @ ymat], labels, k)
    state = manual_state([q], [a], labels, [1.0])
    cfg = SolverConfig(lambda2=0.0, normalize="none")
    assert objective_value(state, ds, cfg) == pytest.approx(0.0, abs=1e-16)
    # with the separation reward on and no novel sample in a known row,
    # the objective sits exactly at its lower bound
    cfg2 = SolverConfig(lambda2=1.5, normalize="none")
    expected = -2.0 * 1.5 * ds.num_labeled * ds.num_unlabeled
    assert objective_value(state, ds, cfg2) == pytest.approx(expected)
    assert objective_lower_bound(ds, cfg2) == pytest.approx(expected)


def test_objective_matches_naive_recomputation():
    rng = np.random.default_rng(33)
    for normalize in ("zscore", "l2", "none"):
        for ablate_labeled in (False, True):
            ds = random_dataset(rng, per_class=6)
            cfg = SolverConfig(lambda1=float(rng.uniform(0, 3)),
                               lambda2=float(rng.uniform(0, 3)),
                               normalize=normalize,
                               ablate_labeled=ablate_labeled)
            cols = ds.num_unlabeled if ablate_labeled else ds.num_samples
            state = random_state(rng, ds, num_columns=cols)
            fast = objective_value(state, ds, cfg)
            slow = naive_objective(state, ds, cfg)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

            # leave rows empty: they must add exactly 0, whatever their
            # centroid columns hold, and no mean may divide by a zero count
            empty = rng.choice(ds.num_classes, size=2, replace=False)
            keep = np.setdiff1d(np.arange(ds.num_classes), empty)
            state.y = keep[state.y % keep.size]
            with np.errstate(divide="raise", invalid="raise"):
                fast = objective_value(state, ds, cfg)
                for centroids in state.centroids:
                    centroids[:, empty] = rng.standard_normal((ds.num_classes, 2)) * 1e3
                assert objective_value(state, ds, cfg) == fast
            assert fast == pytest.approx(naive_objective(state, ds, cfg),
                                         rel=1e-9, abs=1e-9)


def test_objective_matches_naive_recomputation_on_near_noiseless_data():
    # at a fitted state with lambda2 = 0 the objective is the reconstruction
    # error alone, about 5e-10 here against data of norm 200 per entry
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=60,
                                          dims=50, separation=200.0,
                                          noise=1e-7, seed=0))
    cfg = SolverConfig(lambda2=0.0, normalize="none")
    state = fit(ds, cfg).state
    slow = naive_objective(state, ds, cfg)
    assert 0 < slow < 1e-8
    assert objective_value(state, ds, cfg) == pytest.approx(slow, rel=1e-9, abs=0)


def test_lower_bound_fields():
    rng = np.random.default_rng(35)
    ds = random_dataset(rng, per_class=5)
    cfg = SolverConfig(lambda2=2.5)
    assert objective_lower_bound(ds, cfg) == -2.0 * 2.5 * ds.num_labeled * ds.num_unlabeled
    assert objective_lower_bound(ds, SolverConfig(ablate_labeled=True)) == 0.0


# --- fit ---

def test_fit_monotone_and_bounded():
    rng = np.random.default_rng(40)
    for _ in range(6):
        ds = random_dataset(rng, per_class=10)
        cfg = SolverConfig(seed=int(rng.integers(2**31)), max_iter=15)
        result = fit(ds, cfg)
        replayed, per_block, _ = replay_fit(ds, cfg)
        assert replayed.objective_trace == result.objective_trace
        assert is_monotone(per_block)
        assert is_monotone(result.objective_trace)
        bound = objective_lower_bound(ds, cfg)
        assert all(v >= bound - 1e-9 * (abs(bound) + 1) for v in result.objective_trace)
        validate_state(result.state)
        for alpha in result.alpha_trace:
            assert alpha.min() >= 0
            assert alpha.sum() == pytest.approx(1.0, abs=1e-10)


def test_fit_deterministic():
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, per_class=12)
    cfg = SolverConfig(seed=7)
    a = fit(ds, cfg)
    b = fit(ds, cfg)
    assert np.array_equal(a.novel_assignment, b.novel_assignment)
    assert a.objective_trace == b.objective_trace
    assert a.iterations == b.iterations


def test_fit_final_objective_consistent():
    rng = np.random.default_rng(42)
    ds = random_dataset(rng, per_class=10)
    cfg = SolverConfig(seed=1, max_iter=8)
    result = fit(ds, cfg)
    assert result.objective_trace[-1] == pytest.approx(
        objective_value(result.state, ds, cfg), rel=1e-12)


def test_fit_runs_exactly_max_iter_with_zero_tol():
    rng = np.random.default_rng(43)
    ds = random_dataset(rng, per_class=8)
    result = fit(ds, SolverConfig(seed=0, tol=0.0, max_iter=6))
    assert result.iterations == 6
    assert not result.converged
    assert len(result.objective_trace) == 7


def test_fit_converges_on_separable_data():
    ds = generate_synthetic(SyntheticSpec(views=3, classes=6, per_class=30,
                                          dims=(8, 8, 10), separation=8.0,
                                          noise=1.0, seed=4))
    result = fit(ds, SolverConfig(seed=0))
    truth = ds.labels[ds.unlabeled_indices]
    assert clustering_accuracy(result.novel_assignment, truth) == 1.0
    assert result.converged
    assert result.iterations < 50


def test_fit_rejects_rank_deficient_views():
    x = np.random.default_rng(0).standard_normal((3, 40))
    ds = make_dataset([x], np.repeat(np.arange(4), 10), 4)
    with pytest.raises(DatasetError):
        fit(ds, SolverConfig())


def test_ablation_refuses_narrow_views_by_their_width():
    # the unlabeled subset has fewer samples than classes, so its own
    # num_classes bound would refuse it; the width is checked first
    labels = np.array([0] * 3 + [1] * 3 + [2] * 3 + [3, 4, 5])
    ds = make_dataset([np.random.default_rng(0).standard_normal((4, 12))], labels, 6)
    for ablate in (False, True):
        with pytest.raises(DatasetError, match="^view 0: 4 features cannot carry"):
            fit(ds, SolverConfig(ablate_labeled=ablate))


def test_fit_refuses_constant_view():
    base = generate_synthetic(SyntheticSpec(views=2, classes=6, per_class=50,
                                            dims=8, separation=6.0, noise=1.0,
                                            seed=0))
    arrays = [v.data for v in base.views]
    arrays.append(np.full((8, base.num_samples), 3.0))
    ds = make_dataset(arrays, base.labels, base.num_classes)
    for normalize in ("zscore", "l2", "none"):
        with pytest.raises(DatasetError, match="view 2: every feature is constant"):
            fit(ds, SolverConfig(normalize=normalize))


def _varying_cases():
    rng = np.random.default_rng(3)
    wide = np.full((4, 3000), 2.0)
    wide[2, -1] = 2.5   # past the first block of columns
    signed = np.zeros((3, 2500))
    signed[:, 1::2] = -0.0
    mixed = signed.copy()
    mixed[1, 2400] = 1e-300
    return {
        "random": rng.standard_normal((5, 40)),
        "constant": np.full((5, 40), -1.5),
        "one sample": rng.standard_normal((5, 1)),
        "one feature": rng.standard_normal((1, 2049)),
        "last column only": wide,
        "signed zeros": signed,
        "signed zeros and a tiny value": mixed,
    }


@pytest.mark.parametrize("case", list(_varying_cases()))
@pytest.mark.parametrize("order", ["C", "F"])
def test_constant_view_scan_agrees_with_ptp(case, order):
    x = np.asarray(_varying_cases()[case], order=order)
    assert solver._varies(x) == bool(np.ptp(x, axis=1).any())
    assert solver._varies(x[:, ::-1]) == bool(np.ptp(x, axis=1).any())


def _fewer_samples_than_classes():
    rng = np.random.default_rng(47)
    return make_dataset([rng.standard_normal((8, 4)), rng.standard_normal((7, 4))],
                        np.array([0, 1, 3, 4]), 6)


def test_fit_with_fewer_samples_than_classes():
    # 4 samples, 6 classes: the class sums have rank 4 at most, and their
    # QR still gives every view an orthonormal basis of 6 columns
    ds = _fewer_samples_than_classes()
    cfg = SolverConfig(seed=0, max_iter=10)
    a = fit(ds, cfg)
    b = fit(ds, cfg)
    validate_state(a.state)
    assert np.array_equal(a.state.y, b.state.y)
    for basis_a, basis_b in zip(a.state.bases, b.state.bases):
        assert np.array_equal(basis_a, basis_b)
    assert is_monotone(a.objective_trace)


# --- preparation reuse ---

def _fresh_fit(ds, cfg):
    solver._prepare.cache_clear()
    return fit(ds, cfg)


def _assert_same_fit(a, b):
    assert a.objective_trace == b.objective_trace
    assert a.iterations == b.iterations
    assert np.array_equal(a.novel_assignment, b.novel_assignment)
    assert len(a.alpha_trace) == len(b.alpha_trace)
    for alpha_a, alpha_b in zip(a.alpha_trace, b.alpha_trace):
        assert np.array_equal(alpha_a, alpha_b)


def _overlapping_blobs(seed=5):
    # overlapping enough that seed, init, normalization and ablation each
    # change the fit
    return generate_synthetic(SyntheticSpec(views=2, classes=6, per_class=15,
                                            dims=(7, 9), separation=2.5,
                                            noise=1.0, seed=seed))


def test_records_compare_by_identity():
    # records that hold arrays compare and hash by identity: comparing
    # their arrays would raise, and the solver caches by dataset
    ds_a, ds_b = _overlapping_blobs(), _overlapping_blobs()
    cfg = SolverConfig(seed=0, max_iter=5)
    fit_a, fit_b = fit(ds_a, cfg), fit(ds_b, cfg)
    for a, b in ((ds_a, ds_b), (ds_a.views[0], ds_b.views[0]),
                 (fit_a.state, fit_b.state), (fit_a, fit_b)):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_prepare_reuses_only_on_same_dataset_and_key():
    ds = _overlapping_blobs()
    base = SolverConfig(seed=0, max_iter=20)
    reference = _fresh_fit(ds, base)
    for change in ({"normalize": "l2"}, {"seed": 1},
                   {"init_y_novel": "random"}, {"ablate_labeled": True}):
        cfg = dataclasses.replace(base, **change)
        fit(ds, base)                 # the caches now hold base's preparation
        warm = fit(ds, cfg)
        cold = _fresh_fit(ds, cfg)
        _assert_same_fit(warm, cold)
        assert cold.objective_trace[0] != reference.objective_trace[0], change
    # same contents in a new dataset object: prepared anew, same result
    twin = make_dataset([v.data.copy() for v in ds.views], ds.labels.copy(),
                        ds.num_classes, ds.known_classes)
    solver._prepare.cache_clear()
    fit(ds, base)
    _assert_same_fit(fit(twin, base), reference)
    assert solver._prepare.cache_info().misses == 2
    # other contents in a new dataset object of the same shape
    other = _overlapping_blobs(seed=6)
    fit(ds, base)
    _assert_same_fit(fit(other, base), _fresh_fit(other, base))


def test_prepare_reused_across_lambdas(monkeypatch):
    ds = _overlapping_blobs()
    calls = []
    real = solver._initial_assignment
    monkeypatch.setattr(solver, "_initial_assignment",
                        lambda prob, *args: calls.append(args) or real(prob, *args))
    solver._prepare.cache_clear()
    for lambda1 in (1.0, 10.0):
        for lambda2 in (1.0, 100.0):
            fit(ds, SolverConfig(lambda1=lambda1, lambda2=lambda2, tol=0.0,
                                 max_iter=3, ablate_alpha=lambda1 > 1))
    assert len(calls) == 1


def _held_start(ds, cfg):
    return solver._prepare(ds, cfg.normalize, cfg.ablate_labeled, cfg.seed,
                           cfg.init_y_novel)


@pytest.mark.parametrize("init_y_novel", INIT_MODES)
def test_a_fit_that_iterates_drops_the_held_start_buffers(init_y_novel):
    # a one-iteration fit leaves the start's buffers in the preparation; a
    # fit that reaches a second iteration drops them, and the next fit
    # builds them again to the same bits. The k-means start keeps its
    # labels in iteration 1, so J1 reads the held residuals; the random
    # start moves them
    ds = _overlapping_blobs()
    once = SolverConfig(seed=0, max_iter=1, init_y_novel=init_y_novel)
    iterated = dataclasses.replace(once, tol=0.0, max_iter=3)
    solver._prepare.cache_clear()
    fit(ds, once)
    prep = _held_start(ds, once)
    held = weakref.ref(prep.buffers.cost)
    assert fit(ds, iterated).iterations == 3
    gc.collect()
    assert held() is None and prep.buffers is None
    warm = [fit(ds, cfg) for cfg in (once, iterated)]
    assert _held_start(ds, once) is prep
    for cfg, result in zip((once, iterated), warm):
        _assert_same_fit(result, _fresh_fit(ds, cfg))


def test_the_held_start_cost_and_residuals_are_read_only():
    ds = _overlapping_blobs()
    cfg = SolverConfig(seed=0, max_iter=1)
    _fresh_fit(ds, cfg)
    prep = _held_start(ds, cfg)
    with pytest.raises(ValueError, match="read-only"):
        prep.buffers.cost[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        prep.residuals[0] = 0.0


def test_objective_value_keeps_no_dataset_alive():
    # the solver holds at most the dataset fit last prepared; one passed
    # only to objective_value is released with the caller's reference
    ds_a, ds_b = _overlapping_blobs(seed=5), _overlapping_blobs(seed=6)
    cfg = SolverConfig(seed=0, max_iter=5)
    state = fit(ds_a, cfg).state
    objective_value(state, ds_b, cfg)
    refs_a = [weakref.ref(v.data) for v in ds_a.views]
    refs_b = [weakref.ref(v.data) for v in ds_b.views]
    del ds_a, ds_b, state
    gc.collect()
    assert not any(ref() is not None for ref in refs_b)
    # what survives is the dataset the preparation cache holds, no more
    solver._prepare.cache_clear()
    gc.collect()
    assert not any(ref() is not None for ref in refs_a)


def test_fit_leaves_the_prepared_state_untouched():
    ds_a = _overlapping_blobs(seed=5)
    ds_b = _overlapping_blobs(seed=6)
    cfg = SolverConfig(seed=0, max_iter=20)
    fresh_a = _fresh_fit(ds_a, cfg)
    fresh_b = _fresh_fit(ds_b, cfg)
    _assert_same_fit(fit(ds_b, cfg), fresh_b)
    for ds, fresh in ((ds_a, fresh_a), (ds_a, fresh_a), (ds_b, fresh_b),
                      (ds_a, fresh_a), (ds_b, fresh_b), (ds_b, fresh_b)):
        _assert_same_fit(fit(ds, cfg), fresh)
    # nor does a caller's change to the state initialize hands out
    state = initialize(ds_b, cfg)
    state.y[:] = 0
    state.view_weights[:] = 0.0
    for basis, centroids in zip(state.bases, state.centroids):
        basis[:] = 0.0
        centroids[:] = 0.0
    _assert_same_fit(fit(ds_b, cfg), fresh_b)


@pytest.mark.parametrize("init_y_novel, calls", [("kmeans", 0), ("random", 2)])
def test_fit_recomputes_residuals_only_when_the_assignment_or_the_maps_move(
        monkeypatch, init_y_novel, calls):
    # the k-means start keeps its labels, so every iteration reuses the
    # start's residuals; the random start moves labels in iteration 1 and
    # refits the maps in iteration 2, and nothing moves after that
    ds = load_dataset(FIXTURE_DIR)
    cfg = SolverConfig(tol=0.0, max_iter=5, init_y_novel=init_y_novel)
    counted = []
    real = solver.compute_residuals
    monkeypatch.setattr(solver, "compute_residuals",
                        lambda *args: counted.append(args) or real(*args))
    assert fit(ds, cfg).iterations == 5
    assert len(counted) == calls


def test_public_blocks_replay_fit_bit_for_bit_while_labels_move():
    # a random start, so the label updates move y over several iterations
    # and fit rebuilds its class statistics mid-fit
    for seed in (0, 1):
        ds = _overlapping_blobs(seed=5 + seed)
        cfg = SolverConfig(init_y_novel="random", seed=seed, max_iter=40)
        replayed, _, moved = replay_fit(ds, cfg)
        assert moved >= 2
        _assert_same_fit(replayed, fit(ds, cfg))


def test_fit_moves_labels_in_the_frame_as_in_the_views(monkeypatch):
    # a random start, so labels move and the frame is rebuilt mid-fit; the
    # reference fit scores every sample against the views themselves
    for seed in (0, 1):
        ds = _overlapping_blobs(seed=5 + seed)
        cfg = SolverConfig(init_y_novel="random", seed=seed, max_iter=40)
        framed = _fresh_fit(ds, cfg)
        start = initialize(ds, cfg).y[ds.unlabeled_indices]
        assert not np.array_equal(start, framed.novel_assignment)
        real = solver.make_buffers
        with monkeypatch.context() as patch:
            patch.setattr(solver, "make_buffers",
                          lambda state, xs, counts, stats=None:
                          real(state, xs, counts))
            direct = _fresh_fit(ds, cfg)
        assert framed.iterations == direct.iterations
        assert np.array_equal(framed.novel_assignment, direct.novel_assignment)


def test_fit_ablate_alpha_keeps_uniform_weights():
    rng = np.random.default_rng(44)
    ds = random_dataset(rng, per_class=10)
    result = fit(ds, SolverConfig(seed=0, ablate_alpha=True, max_iter=8))
    for alpha in result.alpha_trace:
        assert np.allclose(alpha, 1.0 / ds.num_views)


def test_fit_hard_restriction():
    rng = np.random.default_rng(45)
    ds = random_dataset(rng, per_class=10)
    result = fit(ds, SolverConfig(seed=0, hard_restrict_novel=True, max_iter=8))
    assert result.novel_assignment.min() >= ds.num_known


def test_fit_ablate_labeled_drops_both_penalty_terms():
    rng = np.random.default_rng(46)
    ds = random_dataset(rng, per_class=10)
    result = fit(ds, SolverConfig(seed=0, ablate_labeled=True, max_iter=10))
    assert result.novel_assignment.size == ds.num_unlabeled
    # reconstruction is all that remains, so the objective is nonnegative
    assert all(v >= -1e-9 for v in result.objective_trace)


def test_fit_weights_use_literal_residuals_on_near_noiseless_data():
    # Residuals near 1e-9 sit many orders below the data's squared norm, so
    # an expanded ||x||^2 - 2<x, m> + ||m||^2 form loses their significant
    # digits here and collapses the weights onto one view.
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=500,
                                          dims=50, separation=200.0,
                                          noise=1e-7, seed=0))
    result = fit(ds, SolverConfig(normalize="none"))
    state = result.state
    r = np.array([
        float(np.sum((view.data - (basis @ cent)[:, state.y]) ** 2))
        for view, basis, cent in zip(ds.views, state.bases, state.centroids)
    ])
    assert np.all(r > 0)
    expected = (1.0 / r) / np.sum(1.0 / r)
    assert np.allclose(state.view_weights, expected, rtol=1e-6, atol=0)
    assert is_monotone(result.objective_trace)


def test_supervision_holds_overlapping_known_class():
    ds = crafted_overlap()
    rows = ds.class_rows()
    truth_rows = rows[ds.labels[ds.labeled_indices]]
    relaxed = fit(ds, SolverConfig(seed=0, lambda1=0.0))
    held = fit(ds, SolverConfig(seed=0, lambda1=1.0))
    defections = np.count_nonzero(relaxed.state.y[ds.labeled_indices] != truth_rows)
    assert defections > 0
    assert np.array_equal(held.state.y[ds.labeled_indices], truth_rows)


def test_fit_on_duplicate_unlabeled_points_warns_nothing():
    # six unlabeled samples hold two distinct points, one of them once, for
    # three novel classes: the k-means start must leave no cluster empty
    rng = np.random.default_rng(0)
    views = [np.hstack([rng.standard_normal((d, 4)),
                        rng.standard_normal((d, 2))[:, [0, 1, 1, 1, 1, 1]]])
             for d in (6, 7)]
    ds = make_dataset(views, np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4]), 5,
                      known_classes=[0, 1])
    for seed in range(5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(ds, SolverConfig(seed=seed, max_iter=10))
        assert is_monotone(result.objective_trace)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(k=st.integers(2, 5), extra_dims=st.lists(st.integers(-1, 6), min_size=1, max_size=3),
       n=st.integers(4, 40), absent=st.integers(0, 2),
       quirk=st.sampled_from(["none", "constant row", "near-duplicate view"]),
       normalize=st.sampled_from(["zscore", "l2", "none"]),
       init_y_novel=st.sampled_from(["kmeans", "random"]),
       lambda1=st.sampled_from([0.0, 1.0, 100.0]), lambda2=st.sampled_from([0.0, 1.0, 100.0]),
       hard_restrict_novel=st.booleans(), ablate_labeled=st.booleans(),
       data_seed=st.integers(0, 2**32 - 1))
def test_fit_is_refused_or_keeps_its_promises(k, extra_dims, n, absent, quirk, normalize,
                                              init_y_novel, lambda1, lambda2,
                                              hard_restrict_novel, ablate_labeled,
                                              data_seed):
    # small blobs with dims from k - 1 up, up to two classes with no sample,
    # and a constant feature row or a view that nearly repeats view 0: every
    # fit either refuses the data or keeps the README's promises
    rng = np.random.default_rng(data_seed)
    present = rng.permutation(k)[min(absent, k - 1):]
    labels = rng.choice(present, size=n)
    xs = []
    for e in extra_dims:
        centers = 3.0 * rng.standard_normal((k + e, k))
        xs.append(centers[:, labels] + rng.standard_normal((k + e, n)))
    if quirk == "constant row":
        xs[0][0] = 2.5
    elif quirk == "near-duplicate view":
        xs = [*xs[:2], xs[0] + 1e-9 * rng.standard_normal(xs[0].shape)]
    cfg = SolverConfig(lambda1=lambda1, lambda2=lambda2, max_iter=30,
                       init_y_novel=init_y_novel, normalize=normalize,
                       ablate_labeled=ablate_labeled,
                       hard_restrict_novel=hard_restrict_novel)
    try:
        ds = make_dataset(xs, labels, k)
        result = fit(ds, cfg)
    except DatasetError:
        return
    assert np.all(np.isfinite(result.objective_trace))
    assert is_monotone(result.objective_trace)
    for alpha in result.alpha_trace:
        assert np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-12
    solver._prepare.cache_clear()
    again = fit(ds, cfg)
    assert again.objective_trace == result.objective_trace
    assert np.array_equal(again.novel_assignment, result.novel_assignment)
    assert all(np.array_equal(a, b) for a, b in zip(again.alpha_trace, result.alpha_trace))


# --- invariant helpers ---

def test_is_monotone_cases():
    assert is_monotone([3.0, 2.0, 2.0, 1.0])
    assert not is_monotone([1.0, 2.0])
    assert is_monotone([-5.0, -5.0])
    assert is_monotone([-5.0, -5.0 + 1e-12])
    assert not is_monotone([-5.0, -4.9])


def test_validate_state_catches_breakage():
    state = manual_state([I2], [I2], [0, 1], [1.0])
    validate_state(state)
    bad = manual_state([np.array([[1.0, 1.0], [0.0, 1.0]])], [I2], [0], [1.0])
    with pytest.raises(ValueError):
        validate_state(bad)
    bad = manual_state([I2], [I2], [0, 5], [1.0])
    with pytest.raises(ValueError):
        validate_state(bad)
    bad = manual_state([I2], [I2], [0], [0.7])
    with pytest.raises(ValueError):
        validate_state(bad)
