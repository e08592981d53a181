import numpy as np
import pytest

from conftest import traced_peak

from mvncd.baselines import concat_kmeans_ncd, kmeans_fit, stacked_samples
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


def test_inertia_trace_non_increasing():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(8, 60))
        k = int(rng.integers(2, min(6, n)))
        res = kmeans_fit(rng.standard_normal((d, n)), k,
                         seed=int(rng.integers(2**31)))
        trace = res.inertia_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
        assert res.inertia == pytest.approx(trace[-1])
        assert res.assignment.min() >= 0 and res.assignment.max() < k


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
    # five balanced, well-separated blobs, so each centroid update gathers
    # a fifth of the points; a scaled or re-laid-out copy of all of them
    # would reach points.nbytes
    rng = np.random.default_rng(0)
    centers = 20.0 * rng.standard_normal((5, 300))
    samples = np.repeat(centers, 2000, axis=0) + rng.standard_normal((10_000, 300))
    points = samples.T
    peak = traced_peak(kmeans_fit, points, 5, 0)
    assert peak < 0.5 * points.nbytes


@pytest.mark.parametrize("layout", ["C", "F"])
def test_stacked_samples_is_the_transposed_vstack(layout):
    rng = np.random.default_rng(1)
    xs = [np.asarray(rng.standard_normal((d, 2500)), order=layout) for d in (3, 7)]
    cols = np.sort(rng.choice(2500, size=2100, replace=False))
    out = stacked_samples(xs, cols)
    assert out.flags.c_contiguous
    assert np.array_equal(out.T, np.vstack([x[:, cols] for x in xs]))
