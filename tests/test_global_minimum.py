"""fit against the objective's true minimum on problems small enough to
enumerate every assignment.

Given y, the bases, centroids and view weights have a closed-form minimum,
so J*(y) (tests/oracle.py) is the least objective of any state with that
assignment, and the least J* over [0, k)^n is the global minimum.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mvncd.dataset import make_dataset, normalize_features
from mvncd.solver import DESCENT_SLACK, SolverConfig, fit, initialize
from oracle import all_assignments, class_mean_objective

tiny = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def tiny_fits(draw):
    """A dataset of at most 8 samples, k <= 3 and 1-3 views with
    k <= d_v <= k + 2, and a config to fit it with."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(3, 8))
    views = draw(st.integers(1, 3))
    num_known = draw(st.integers(1, k - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, k, size=n)
    labels[-1] = k - 1   # a novel class keeps a sample to cluster
    xs = []
    for _ in range(views):
        d = int(rng.integers(k, k + 3))
        centers = draw(st.floats(0.0, 4.0)) * rng.standard_normal((d, k))
        xs.append(centers[:, labels] + rng.standard_normal((d, n)))
    ds = make_dataset(xs, labels, k, known_classes=list(range(num_known)))
    cfg = SolverConfig(lambda1=draw(st.floats(0.0, 2.0)),
                       lambda2=draw(st.floats(0.0, 2.0)),
                       seed=draw(st.integers(0, 100)),
                       init_y_novel=draw(st.sampled_from(["kmeans", "random"])),
                       normalize=draw(st.sampled_from(["zscore", "none"])))
    return ds, cfg


def _class_mean_objective(ds, cfg, ys):
    work = normalize_features(ds, cfg.normalize)
    truth_rows = work.class_rows()[work.labels[work.labeled_indices]]
    return class_mean_objective([v.data for v in work.views], ys,
                                work.num_classes, work.labeled_indices,
                                truth_rows, work.unlabeled_indices,
                                cfg.lambda1, cfg.lambda2)


@tiny
@given(case=tiny_fits())
def test_fixed_point_objective_is_the_class_mean_objective(case):
    # when fit's last iteration moves no label, its maps are refitted to
    # that assignment and its weights to their residuals, so its final
    # objective is J* of its final y
    ds, cfg = case
    result = fit(ds, cfg)
    if result.iterations == 1:
        before = initialize(ds, cfg).y
    else:
        before = fit(ds, dataclasses.replace(cfg, max_iter=result.iterations - 1)).state.y
    assume(np.array_equal(before, result.state.y))
    want = float(_class_mean_objective(ds, cfg, result.state.y)[0])
    assert abs(result.objective_trace[-1] - want) <= 1e-12 * (abs(want) + 1.0)


@tiny
@given(case=tiny_fits())
def test_trace_never_below_the_enumerated_minimum(case):
    ds, cfg = case
    least = float(_class_mean_objective(ds, cfg, all_assignments(ds.num_samples,
                                                                 ds.num_classes)).min())
    floor = least - DESCENT_SLACK * (abs(least) + 1.0)
    assert min(fit(ds, cfg).objective_trace) >= floor

