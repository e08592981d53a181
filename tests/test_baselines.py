import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import concat_kmeans_ncd, traced_peak

from mvncd import baselines
from mvncd.baselines import kmeans_fit
from mvncd.dataset import SyntheticSpec, generate_synthetic
from mvncd.metrics import clustering_accuracy


def test_each_point_its_own_cluster():
    points = np.array([[0.0, 10.0, 20.0], [0.0, 0.0, 0.0]])
    res = kmeans_fit(points, 3, seed=0)
    assert res.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(res.assignment) == [0, 1, 2]


def test_two_pairs_centroids_at_means():
    points = np.array([[0.0, 1.0, 10.0, 11.0]])
    res = kmeans_fit(points, 2, seed=0)
    assert sorted(res.centroids[:, 0]) == pytest.approx([0.5, 10.5])
    assert res.assignment[0] == res.assignment[1]
    assert res.assignment[2] == res.assignment[3]


def test_inertia_is_the_cost_of_the_returned_assignment():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(8, 60))
        k = int(rng.integers(2, min(6, n)))
        points = rng.standard_normal((d, n))
        res = kmeans_fit(points, k, seed=int(rng.integers(2**31)))
        assert res.assignment.min() >= 0 and res.assignment.max() < k
        cost = np.sum((points.T - res.centroids[res.assignment]) ** 2)
        assert abs(res.inertia - cost) <= 1e-9


@pytest.mark.parametrize("points", [[[5.0, 0.0, 0.0, 0.0]],
                                    [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]])
def test_duplicate_points_leave_no_cluster_empty(points):
    # two distinct points for three clusters: a relocation must not take
    # the only member of another cluster, or its mean divides 0 by 0
    for seed in range(20):
        res = kmeans_fit(np.array(points), 3, seed=seed)
        assert np.bincount(res.assignment, minlength=3).min() >= 1
        assert res.inertia == 0.0
        assert res.iterations <= 2


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((4, 50))
    a = kmeans_fit(points, 3, seed=9)
    b = kmeans_fit(points, 3, seed=9)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_rejects_bad_k():
    points = np.zeros((2, 3))
    with pytest.raises(ValueError):
        kmeans_fit(points, 4)
    with pytest.raises(ValueError):
        kmeans_fit(points, 0)


def test_concat_baseline_separable():
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=30,
                                          dims=(6, 7), separation=10.0,
                                          noise=0.5, seed=0))
    truth = ds.labels[ds.unlabeled_indices]
    pred = concat_kmeans_ncd(ds, seed=0)
    assert pred.size == ds.num_unlabeled
    assert pred.min() >= 0 and pred.max() < ds.num_novel
    assert clustering_accuracy(pred, truth) >= 0.95
    assert np.array_equal(pred, concat_kmeans_ncd(ds, seed=0))


def test_concat_baseline_single_cluster():
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=10,
                                          dims=(5, 5), separation=6.0,
                                          noise=1.0, seed=3))
    pred = concat_kmeans_ncd(ds, k=1, seed=0)
    assert np.all(pred == 0)
    truth = ds.labels[ds.unlabeled_indices]
    top = np.bincount(truth).max() / truth.size
    assert clustering_accuracy(pred, truth) == pytest.approx(top)


def test_kmeans_allocates_no_copy_of_its_input():
    # five balanced, well-separated blobs; a scaled or re-laid-out copy of
    # the points would reach points.nbytes
    rng = np.random.default_rng(0)
    centers = 20.0 * rng.standard_normal((5, 300))
    samples = np.repeat(centers, 2000, axis=0) + rng.standard_normal((10_000, 300))
    points = samples.T
    peak = traced_peak(kmeans_fit, points, 5, 0)
    assert peak < 0.5 * points.nbytes


@pytest.mark.parametrize("layout", ["C", "F"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       n=st.integers(2, 300), scattered=st.booleans(), k=st.integers(1, 6),
       data_seed=st.integers(0, 2**32 - 1))
def test_kmeans_on_view_columns_equals_kmeans_on_their_vstack(
        layout, dims, n, scattered, k, data_seed):
    # the benchmark's replay runs k-means on the np.vstack input and
    # requires initialization's assignment from the views in place
    rng = np.random.default_rng(data_seed)
    truth = rng.integers(0, k, size=n)
    xs = [np.asarray(4.0 * rng.standard_normal((d, k))[:, truth]
                     + rng.standard_normal((d, n)), order=layout) for d in dims]
    if scattered:
        cols = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    else:
        lo = int(rng.integers(n))
        cols = np.arange(lo, int(rng.integers(lo + 1, n + 1)))
    k = min(k, cols.size)
    seed = int(rng.integers(2**32))
    got = kmeans_fit(xs, k, seed, cols=cols)
    want = kmeans_fit(np.vstack([x[:, cols] for x in xs]), k, seed)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.iterations == want.iterations
    assert np.allclose(got.centroids, want.centroids, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, d, k", [
    (50, 5, 3), (400, 1, 4), (300, 7, 1), (3, 40, 2), (1, 1, 1),
    (2000, 300, 10), (20_000, 100, 2), (513, 129, 20),
])
def test_sq_dist_bits_equal_the_direct_formula(n, d, k):
    # the features split into up to three views and every other sample
    # picked from a quarter in: the per-view products, summed over the
    # column span and then indexed, keep the bits of the same sum taken
    # over the gathered samples
    rng = np.random.default_rng(n + d + k)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3)
    c = x[rng.choice(n, size=k, replace=False)] + rng.standard_normal((k, d))
    ends = np.array(sorted({d // 3, 2 * d // 3, d} - {0}))
    bounds = list(zip([0, *ends[:-1]], ends))
    cols = np.arange(n)[n // 4::2]
    lo = int(cols[0])
    picked = x[cols]
    xsq = np.einsum("ij,ij->i", picked, picked)
    csq = np.einsum("ij,ij->i", c, c)
    cross = sum(picked[:, a:b] @ c[:, a:b].T for a, b in bounds)
    direct = np.maximum(xsq[:, None] - 2.0 * cross + csq[None, :], 0.0)
    xs = [x.T[a:b, lo:] for a, b in bounds]
    got = baselines._sq_dist(xs, ends, cols - lo, xsq, c)
    assert got.shape == (cols.size, k)
    assert np.ascontiguousarray(got).tobytes() == direct.tobytes()
