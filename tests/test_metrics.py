import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvncd.metrics import (
    clustering_accuracy,
    contingency_table,
    hungarian_match,
    nmi,
    purity,
    scores,
)


def brute_force_acc(pred, truth):
    """Best cluster-to-class matching by enumerating injections directly."""
    counts = contingency_table(pred, truth)
    r, c = counts.shape
    if r <= c:
        best = max(sum(counts[i, p[i]] for i in range(r))
                   for p in itertools.permutations(range(c), r))
    else:
        best = max(sum(counts[p[j], j] for j in range(c))
                   for p in itertools.permutations(range(r), c))
    return best / counts.sum()


def naive_nmi(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = pred.size
    mi = 0.0
    for a in np.unique(pred):
        for b in np.unique(truth):
            joint = np.sum((pred == a) & (truth == b)) / n
            if joint > 0:
                pa = np.sum(pred == a) / n
                pb = np.sum(truth == b) / n
                mi += joint * math.log(joint / (pa * pb))
    h_pred = -sum((np.sum(pred == a) / n) * math.log(np.sum(pred == a) / n)
                  for a in np.unique(pred))
    h_true = -sum((np.sum(truth == b) / n) * math.log(np.sum(truth == b) / n)
                  for b in np.unique(truth))
    denom = math.sqrt(h_pred * h_true)
    return 0.0 if denom <= 0 else mi / denom


def naive_purity(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    total = 0
    for a in np.unique(pred):
        members = truth[pred == a]
        total += max(np.sum(members == b) for b in np.unique(members))
    return total / pred.size


# --- hungarian ---

def test_hungarian_antidiagonal():
    rows, cols = hungarian_match(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert list(cols[np.argsort(rows)]) == [1, 0]


def test_hungarian_diagonal_dominant():
    cost = np.array([[1.0, 2.0], [3.0, 1.0]])
    rows, cols = hungarian_match(cost)
    assert list(cols[np.argsort(rows)]) == [0, 1]
    assert cost[rows, cols].sum() == 2.0


def test_hungarian_single_cell():
    rows, cols = hungarian_match(np.array([[7.0]]))
    assert list(rows) == [0] and list(cols) == [0]


def brute_force_min_cost(cost):
    """Least total cost over every injection of the smaller side."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    r, c = cost.shape
    perms = np.array(list(itertools.permutations(range(c), r)))
    return cost[np.arange(r), perms].sum(axis=1).min()


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 5), (6, 1), (1, 7), (7, 1), (7, 7)]
    shapes += [tuple(int(s) for s in rng.integers(1, 8, size=2))
               for _ in range(300)]
    for t, shape in enumerate(shapes):
        if t % 3 == 0:  # few distinct values: many tied optima
            cost = rng.integers(-2, 3, size=shape).astype(float)
        elif t % 3 == 1:
            cost = rng.normal(scale=10.0, size=shape)
        else:  # negated counts, as clustering_accuracy passes them
            cost = -rng.integers(0, 30, size=shape).astype(float)
        rows, cols = hungarian_match(cost)
        assert rows.size == cols.size == min(shape)
        assert np.all(np.diff(rows) > 0)
        assert np.unique(cols).size == cols.size
        assert cost[rows, cols].sum() == pytest.approx(
            brute_force_min_cost(cost), abs=1e-9)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_match(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        hungarian_match(np.array([[np.inf]]))


# --- accuracy ---

def test_acc_identity_and_relabel():
    truth = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_accuracy(truth, truth) == 1.0
    relabeled = np.array([2, 0, 1, 2, 0, 1])  # fixed permutation of ids
    assert clustering_accuracy(relabeled, truth) == 1.0


def test_acc_worked_example():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_acc_length_mismatch():
    with pytest.raises(ValueError):
        clustering_accuracy([0, 1], [0, 1, 2])


def test_acc_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, int(rng.integers(2, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            brute_force_acc(pred, truth), abs=1e-12)


# --- nmi ---

def test_nmi_identical_partitions():
    assert nmi([0, 1, 0, 1], [5, 9, 5, 9]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_constant_pred():
    assert nmi([3, 3, 3, 3], [0, 1, 2, 3]) == 0.0


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_frozen_value():
    # hand derivation: MI = ln2/4 + ln(2/3)/4 + ln(4/3)/2,
    # H_pred = ln2, H_true = ln4/4 + 3*ln(4/3)/4
    assert nmi([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(
        0.3455920299442113, abs=1e-12)


def test_nmi_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 5, size=n)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


# --- purity ---

def test_purity_examples():
    assert purity([0, 0, 0, 1, 1], [0, 0, 1, 1, 1]) == pytest.approx(0.8)
    assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.5)
    assert purity([0, 1, 2], [0, 1, 2]) == 1.0


# --- shared properties ---

def test_metrics_in_unit_interval_and_match_naive():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        for value in (clustering_accuracy(pred, truth), nmi(pred, truth),
                      purity(pred, truth)):
            assert 0.0 <= value <= 1.0
        assert nmi(pred, truth) == pytest.approx(naive_nmi(pred, truth), abs=1e-12)
        assert purity(pred, truth) == pytest.approx(naive_purity(pred, truth),
                                                    abs=1e-12)


def test_metrics_relabeling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        kp, kt = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        pred = rng.integers(0, kp, size=n)
        truth = rng.integers(0, kt, size=n)
        pp = rng.permutation(kp)[pred]
        tt = rng.permutation(kt)[truth]
        assert clustering_accuracy(pp, tt) == pytest.approx(
            clustering_accuracy(pred, truth), abs=1e-12)
        assert nmi(pp, tt) == pytest.approx(nmi(pred, truth), abs=1e-12)
        assert purity(pp, truth) == pytest.approx(purity(pred, truth), abs=1e-12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=40),
       offsets=st.tuples(st.integers(-3, 10**6), st.integers(-3, 10**6)))
@example(pairs=[(0, 0), (0, 1), (0, 2), (0, 1)], offsets=(0, 0))          # one cluster
@example(pairs=[(0, 4), (1, 4), (2, 4)], offsets=(0, 0))                  # one class
@example(pairs=[(0, 0), (1, 0), (2, 1), (3, 1), (4, 0)], offsets=(0, 0))  # k_pred > k_true
@example(pairs=[(0, 1), (1, 0), (1, 1), (2, 2)], offsets=(7, 1000))       # ids from 7, 1001
@example(pairs=[(3, 3)], offsets=(0, 0))                                  # one sample
def test_scores_equal_the_three_metrics(pairs, offsets):
    # one contingency table serves all three metrics, exactly
    pred = np.array([p for p, _ in pairs]) + offsets[0]
    truth = np.array([t for _, t in pairs]) + offsets[1]
    assert scores(pred, truth) == {"acc": clustering_accuracy(pred, truth),
                                   "nmi": nmi(pred, truth),
                                   "purity": purity(pred, truth)}
