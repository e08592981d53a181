import numpy as np
import pytest

from oracle import (
    brute_force_label,
    exhaustive_novel_fit,
    procrustes_bound_check,
    project_simplex,
    simplex_minimize_numeric,
)

I2 = np.eye(2)
ONE = np.array([1.0])


# --- per-sample label oracle ---

def test_label_oracle_single_class():
    maps = [np.ones((3, 1))]
    assert brute_force_label([np.zeros(3)], maps, ONE) == 0


def test_label_oracle_supervision_flip():
    # one view, identity map, x = [0.9, 0.1], ground truth class 1:
    # without supervision the nearest column wins, with it the truth wins
    x = [np.array([0.9, 0.1])]
    assert brute_force_label(x, [I2], ONE, lambda1=0.0, truth_row=1) == 0
    assert brute_force_label(x, [I2], ONE, lambda1=1.0, truth_row=1) == 1


def test_label_oracle_separation_flip():
    # three labeled samples on class 0; the repulsion pushes the sample off
    # its nearest column once lambda2 crosses the worked threshold
    x = [np.array([0.9, 0.1])]
    t = np.array([3.0, 0.0])
    assert brute_force_label(x, [I2], ONE, lambda2=0.2, label_counts=t) == 0
    assert brute_force_label(x, [I2], ONE, lambda2=0.3, label_counts=t) == 1


def test_label_oracle_nearest_centroid():
    x = [np.array([0.2, 0.8])]
    assert brute_force_label(x, [I2], ONE, lambda2=0.0,
                             label_counts=np.zeros(2)) == 1


def test_label_oracle_allowed_rows():
    x = [np.array([0.9, 0.1])]
    assert brute_force_label(x, [I2], ONE, allowed_rows=[1]) == 1


def test_label_oracle_tie_lowest_index():
    maps = [np.ones((2, 3))]  # all columns identical
    assert brute_force_label([np.zeros(2)], maps, ONE) == 0


# --- exhaustive assignment oracle ---

def test_exhaustive_empty():
    assignment, score = exhaustive_novel_fit([np.zeros((2, 0))], [I2], ONE,
                                             1.0, np.zeros(2))
    assert assignment.size == 0
    assert score == 0.0


def test_exhaustive_penalty_dominance():
    rng = np.random.default_rng(2)
    maps = [rng.standard_normal((3, 3))]
    xs = [rng.standard_normal((3, 4))]
    counts = np.array([2.0, 0.0, 0.0])
    assignment, _ = exhaustive_novel_fit(xs, maps, ONE, lambda2=1e6,
                                         label_counts=counts)
    assert np.all(assignment >= 1)  # row 0 carries the labeled mass


def test_exhaustive_tie_lexicographic():
    maps = [np.ones((2, 2))]  # both columns identical, no penalty
    xs = [np.zeros((2, 3))]
    assignment, _ = exhaustive_novel_fit(xs, maps, ONE, 0.0, np.zeros(2))
    assert np.all(assignment == 0)


def test_exhaustive_size_guard():
    maps = [np.ones((2, 10))]
    xs = [np.zeros((2, 8))]
    with pytest.raises(ValueError):
        exhaustive_novel_fit(xs, maps, ONE, 0.0, np.zeros(10))


# --- simplex oracle ---

def test_simplex_worked_example():
    assert np.allclose(simplex_minimize_numeric(np.array([1.0, 4.0])),
                       [0.8, 0.2], atol=1e-6)


def test_simplex_uniform():
    assert np.allclose(simplex_minimize_numeric(np.array([2.0, 2.0, 2.0])),
                       [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_simplex_single_view():
    assert np.allclose(simplex_minimize_numeric(np.array([5.0])), [1.0])


def test_simplex_rejects_nonpositive():
    with pytest.raises(ValueError):
        simplex_minimize_numeric(np.array([1.0, 0.0]))


def test_simplex_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(30):
        r = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 6)))
        inv = 1.0 / r
        assert np.allclose(simplex_minimize_numeric(r), inv / inv.sum(),
                           atol=1e-6)


def test_project_simplex():
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    p = np.array([0.3, 0.7])
    assert np.allclose(project_simplex(p), p, atol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(20):
        out = project_simplex(rng.standard_normal(5))
        assert out.min() >= 0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


# --- basis bound oracle ---

def test_procrustes_polar_factor_passes():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, d + 1))
        target = rng.standard_normal((d, k))
        u, _, vt = np.linalg.svd(target, full_matrices=False)
        assert procrustes_bound_check(target, u @ vt, draws=100,
                                      seed=int(rng.integers(2**31)))


def test_procrustes_random_candidate_fails():
    rng = np.random.default_rng(8)
    for _ in range(5):
        target = rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        assert not procrustes_bound_check(target, q, draws=100, seed=0)


def test_procrustes_zero_target():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 2)))
    assert procrustes_bound_check(np.zeros((5, 2)), q, draws=50, seed=0)


def test_procrustes_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        procrustes_bound_check(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
