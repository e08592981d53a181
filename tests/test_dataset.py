import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_DIR, concat_kmeans_ncd, traced_peak

from mvncd import dataset
from dataclasses import replace

from mvncd.dataset import (
    DatasetError,
    SyntheticSpec,
    encode_onehot,
    generate_synthetic,
    load_dataset,
    make_dataset,
    normalize_features,
    split_known_novel,
    unlabeled_subset,
    write_dataset,
)
from mvncd.metrics import clustering_accuracy


def _tiny(num_classes=4, per_class=3, dims=(5, 6), seed=0):
    return generate_synthetic(SyntheticSpec(
        views=len(dims), classes=num_classes, per_class=per_class,
        dims=dims, separation=4.0, noise=0.5, seed=seed))


# --- construction and validation ---

def test_make_dataset_counts():
    ds = _tiny()
    assert ds.num_views == 2
    assert ds.num_samples == 12
    assert ds.view_dims == (5, 6)
    assert ds.num_known == 2 and ds.num_novel == 2
    assert ds.num_labeled + ds.num_unlabeled == ds.num_samples
    assert set(ds.labeled_indices) | set(ds.unlabeled_indices) == set(range(12))
    assert set(ds.labeled_indices).isdisjoint(ds.unlabeled_indices)


def test_make_dataset_rejects_bad_inputs():
    x = np.zeros((3, 4))
    labels = np.array([0, 1, 2, 3])
    with pytest.raises(DatasetError):
        make_dataset([], labels, 4)
    with pytest.raises(DatasetError):
        make_dataset([x[:, :3]], labels, 4)          # column count mismatch
    with pytest.raises(DatasetError):
        make_dataset([x], labels, 3)                 # label out of range
    with pytest.raises(DatasetError):
        make_dataset([x], np.array([0.5, 1, 2, 3]), 4)
    with pytest.raises(DatasetError):
        make_dataset([x], labels, 1)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DatasetError):
        make_dataset([bad], labels, 4)
    with pytest.raises(DatasetError):
        make_dataset([x], labels, 4, known_classes=[0, 1, 2, 3])  # nothing novel
    with pytest.raises(DatasetError):
        make_dataset([x], labels, 4, known_classes=[7])


def test_num_classes_beyond_the_samples_and_every_view_is_refused():
    # the split holds k-entry arrays, so a huge k is refused before any
    # exists; k up to the sample count or the widest view is accepted
    labels = np.array([0, 1, 2, 3])
    with pytest.raises(DatasetError, match=re.escape(
            "num_classes must be at least 2 and at most the larger of the 4 samples "
            "and the widest view's 3 features, got 1000000000000")):
        make_dataset([np.zeros((3, 4))], labels, 10**12)
    with pytest.raises(DatasetError, match="^num_classes must .* 6 features, got 7$"):
        make_dataset([np.zeros((6, 4)), np.zeros((2, 4))], labels, 7)
    assert make_dataset([np.zeros((3, 4))], labels, 4).num_classes == 4
    assert make_dataset([np.zeros((2, 4)), np.zeros((6, 4))], labels, 6).num_classes == 6


def test_load_refuses_num_classes_beyond_the_samples_and_every_view(tmp_path):
    write_dataset(_tiny(), tmp_path)   # 12 samples, views of 5 and 6 features
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for k, refused in ((12, False), (13, True), (10**12, True)):
        manifest["num_classes"] = k
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if refused:
            with pytest.raises(DatasetError, match=f"^num_classes must .* 6 features, got {k}$"):
                load_dataset(tmp_path)
        else:
            assert load_dataset(tmp_path).num_classes == k


def test_declared_dim_counts_up_to_the_columns_its_file_can_hold(tmp_path):
    # one sample of two values, "1,2" with no newline: 3 bytes hold at most
    # 2 columns, so num_classes 2 stands on the dim alone, and 3 is refused
    # though the manifest declares 10**12 columns
    (tmp_path / "view_0.csv").write_text("1,2")
    (tmp_path / "labels.csv").write_text("0\n")
    for dim, k, widest in ((2, 2, None), (10**12, 3, 2)):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"views": [{"path": "view_0.csv", "dim": dim}],
             "labels": "labels.csv", "num_classes": k}))
        if widest is None:
            assert dataset.read_manifest(tmp_path)[1]["num_classes"] == k
        else:
            want = f"^num_classes must .* view's {widest} features, got {k}$"
            with pytest.raises(DatasetError, match=want):
                dataset.read_manifest(tmp_path)


@st.composite
def _split_inputs(draw):
    """make_dataset's arguments, mostly valid, so that each refusal and a
    dataset are all drawn often; num_classes up to 2**62, and known ids
    past 64 bits or not integers."""
    num_classes = draw(st.integers(2, 10) | st.integers(-1, 2**62))
    top = min(max(num_classes, 1), 10)
    labels = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=12))
    stray = draw(st.sampled_from([None, None, None, -1, num_classes]))
    if stray is not None:
        labels.insert(draw(st.integers(0, len(labels))), stray)
    known = draw(st.none() | st.lists(st.integers(0, top - 1), min_size=1, max_size=4)
                 | st.lists(st.integers(-1, top) | st.integers(0, 2**62)
                            | st.integers(-2**100, 2**100)
                            | st.floats(-1, top, allow_nan=False), max_size=4))
    columns = max(0, len(labels) + draw(st.just(0) | st.integers(-1, 1)))
    views = [np.zeros((d, columns))
             for d in draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))]
    return views, np.array(labels, dtype=np.int64), num_classes, known


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(args=_split_inputs())
def test_class_split_is_refused_or_partitions_the_classes_and_samples(args):
    # a DatasetError, or the sets README's "Dataset format" names; no other
    # exception, so a num_classes of up to 2**62 is refused, not allocated
    views, labels, num_classes, known = args
    try:
        ds = make_dataset(views, labels, num_classes, known)
    except DatasetError:
        return
    k = ds.num_classes
    assert k == num_classes <= max(labels.size, *(v.shape[0] for v in views))
    known_ids, novel_ids = ds.known_classes.tolist(), ds.novel_classes.tolist()
    assert sorted(known_ids + novel_ids) == list(range(k))
    assert known_ids == sorted(set(known_ids)) and novel_ids == sorted(set(novel_ids))
    assert known_ids and novel_ids
    assert known_ids == (list(range(k // 2)) if known is None else sorted(set(known)))
    assert sorted(ds.labeled_indices.tolist() + ds.unlabeled_indices.tolist()) == \
        list(range(labels.size))
    assert np.array_equal(ds.labeled_indices, np.flatnonzero(np.isin(labels, known_ids)))
    assert np.array_equal(ds.unlabeled_indices, np.flatnonzero(np.isin(labels, novel_ids)))


@pytest.mark.parametrize("col", [None, 0, 8191, 19_999])
def test_finiteness_is_checked_a_block_of_columns_at_a_time(col):
    # the mask of the whole 100 x 20,000 view would be 2 MB; a NaN is found
    # in the first, a middle and the last column alike
    x = np.asfortranarray(np.random.default_rng(0).standard_normal((100, 20_000)))
    if col is None:
        assert traced_peak(dataset._checked_view, x, 0, 20_000) < 512 << 10
    else:
        x[37, col] = np.nan
        with pytest.raises(DatasetError, match="^view 0: contains non-finite values$"):
            dataset._checked_view(x, 0, 20_000)


@pytest.mark.parametrize("labels, shown", [
    ([0, 1, 2, 1e300], "[0, 1e+300]"),
    ([-1e300, 1, 2, 3], "[-1e+300, 3]"),
    ([0, 1, 2, np.inf], "[0, inf]"),
    ([0, 9.3e18, 2, 3], "[0, 9.3e+18]"),
    ([-1.0, 1, 2, 3], "[-1, 3]"),
    (np.array([-1, 1, 2, 3]), "[-1, 3]"),
])
def test_label_range_checked_before_integer_cast(labels, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's "invalid value ... cast"
        with pytest.raises(DatasetError,
                           match=re.escape(f"labels must lie in [0, 4), got range {shown}")):
            make_dataset([np.zeros((3, 4))], labels, 4)


@pytest.mark.parametrize("known, message", [
    ([1.5], "known class ids must be integers"),
    ([0, 2.5], "known class ids must be integers"),
    ([2**70], "known class ids must lie in [0, 4), got range "
              "[1.18059162071741e+21, 1.18059162071741e+21]"),
    ([-10**20, 1], "known class ids must lie in [0, 4), got range [-1e+20, 1]"),
    ([10**400], "known class ids must lie in [0, 4)"),
])
def test_known_class_ids_pass_the_labels_rule(known, message):
    # checked before the cast, which would take 1.5 for 1 and overflow
    # past 64 bits
    with pytest.raises(DatasetError, match=re.escape(message)):
        make_dataset([np.zeros((3, 4))], np.array([0, 1, 2, 3]), 4, known)


def test_class_sets_match_set_routines():
    # the known, novel and labeled sets come from one mask over the class
    # ids; they equal what np.unique, np.setdiff1d and np.isin give
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(2, 9))
        labels = rng.integers(0, k, size=25)
        given = rng.integers(0, k, size=int(rng.integers(1, 2 * k)))
        if np.unique(given).size == k:
            continue
        ds = make_dataset([np.zeros((2, 25))], labels, k, known_classes=given)
        known = np.unique(given)
        assert ds.known_classes.dtype == known.dtype
        assert np.array_equal(ds.known_classes, known)
        assert np.array_equal(ds.novel_classes, np.setdiff1d(np.arange(k), known))
        assert np.array_equal(ds.labeled_indices,
                              np.flatnonzero(np.isin(labels, known)))
        assert np.array_equal(ds.unlabeled_indices,
                              np.flatnonzero(~np.isin(labels, known)))


def test_known_classes_override():
    x = np.zeros((3, 4))
    labels = np.array([0, 1, 2, 3])
    ds = make_dataset([x], labels, 4, known_classes=[1, 3])
    assert list(ds.known_classes) == [1, 3]
    assert list(ds.novel_classes) == [0, 2]
    assert list(ds.labeled_indices) == [1, 3]
    rows = ds.class_rows()
    # known classes occupy the first one-hot rows, in known order
    assert rows[1] == 0 and rows[3] == 1
    assert sorted(rows[[0, 2]]) == [2, 3]


def test_split_known_novel_examples():
    known, novel = split_known_novel(np.arange(10), 10)
    assert list(known) == [0, 1, 2, 3, 4] and list(novel) == [5, 6, 7, 8, 9]
    known, novel = split_known_novel(np.arange(7), 7)
    assert list(known) == [0, 1, 2] and list(novel) == [3, 4, 5, 6]
    known, novel = split_known_novel(np.arange(2), 2)
    assert list(known) == [0] and list(novel) == [1]


def test_split_sizes_property():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        known, novel = split_known_novel(rng.integers(0, k, size=20), k)
        assert known.size + novel.size == k
        assert novel.size - known.size in (0, 1)


def test_unlabeled_subset():
    ds = _tiny()
    sub = unlabeled_subset(ds)
    assert sub.num_samples == ds.num_unlabeled
    assert sub.num_labeled == 0
    assert sub.num_classes == ds.num_classes
    assert np.array_equal(sub.labels, ds.labels[ds.unlabeled_indices])


# --- normalization ---

def test_zscore_row_example():
    x = np.array([[1.0, 2.0, 3.0]])
    ds = make_dataset([np.vstack([x, x])], np.array([0, 0, 1]), 2)
    out = normalize_features(ds, "zscore")
    expect = np.array([-1.2247449, 0.0, 1.2247449])
    assert np.allclose(out.views[0].data[0], expect, atol=1e-6)


def test_zscore_zero_variance_row():
    x = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
    ds = make_dataset([x], np.array([0, 0, 1]), 2)
    out = normalize_features(ds, "zscore")
    assert np.all(out.views[0].data[0] == 0.0)


def test_zscore_idempotent():
    ds = _tiny(seed=5)
    once = normalize_features(ds, "zscore")
    # a new dataset of the same arrays, which does not know they are z-scored
    again = make_dataset([v.data for v in once.views], once.labels,
                         once.num_classes)
    twice = normalize_features(again, "zscore")
    for a, b in zip(once.views, twice.views):
        assert np.allclose(a.data, b.data, atol=1e-10)


@pytest.mark.parametrize("mode", ["zscore", "l2"])
def test_normalized_dataset_is_returned_as_itself(mode):
    ds = _tiny(seed=6)
    assert ds.normalization == "none"
    once = normalize_features(ds, mode)
    assert once is not ds and once.normalization == mode
    assert normalize_features(once, mode) is once
    assert normalize_features(once, "none") is once
    assert normalize_features(ds, "none") is ds
    # the source views are left as they were
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(ds.views, _tiny(seed=6).views))
    # a subset is not normalized over itself, so it claims no mode
    assert unlabeled_subset(once).normalization == "none"


def _normalized_in_place(x, mode):
    """x normalized in place by the loader's path, and the same result
    computed from a copy of x with np.std (zscore) or np.linalg.norm (l2)."""
    if mode == "zscore":
        std = x.std(axis=1, keepdims=True)
        want = (x - x.mean(axis=1, keepdims=True)) / np.where(std > 0, std, 1.0)
    else:
        norms = np.linalg.norm(x, axis=0, keepdims=True)
        want = x / np.where(norms > 0, norms, 1.0)
    ds = make_dataset([x], np.arange(x.shape[1]) % 2, 2)
    peak = traced_peak(dataset._normalized, ds, mode, True)
    assert ds.views[0].data is x
    return peak, want


# z-score, the default mode, is named by its layout alone
LAYOUT_MODES = [pytest.param(layout, mode, id=layout if mode == "zscore"
                             else f"{mode}-{layout}")
                for mode in ("zscore", "l2") for layout in ("C", "F")]


@pytest.mark.parametrize("layout, mode", LAYOUT_MODES)
def test_zscore_in_place_holds_no_copy_of_the_view(layout, mode):
    # np.std would centre, np.linalg.norm square, a second view-sized copy;
    # the sums of squares are taken a block of lines at a time instead
    x = np.asarray(3.0 * np.random.default_rng(0).standard_normal((100, 20_000))
                   + 1.0, order=layout)
    peak, want = _normalized_in_place(x, mode)
    assert peak < 0.25 * x.nbytes
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout, mode", LAYOUT_MODES)
@pytest.mark.parametrize("shape", [(7, 150_000), (1, 200_000), (3, 5),
                                   (150_000, 7), (2, 100_000), (0, 6)])
def test_zscore_in_place_keeps_the_bits_of_np_std(layout, mode, shape):
    # lines longer than a block: a block of one strided line out of several
    # would be summed in another order than numpy's
    x = np.asarray(np.random.default_rng(1).standard_normal(shape), order=layout)
    _, want = _normalized_in_place(x, mode)
    assert x.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["copy", "load"])
def test_zscore_overflow_is_refused_as_non_finite(tmp_path, where):
    x = np.array([[1e308, 1e308, 1e308, 0.0], [1.0, 2.0, 3.0, 4.0]])
    ds = make_dataset([x], np.array([0, 0, 1, 1]), 2)
    with pytest.raises(DatasetError, match="view 0: contains non-finite values"):
        if where == "copy":
            normalize_features(ds, "zscore")
        else:
            write_dataset(ds, tmp_path)
            load_dataset(tmp_path, normalize="zscore")


@pytest.mark.parametrize("where", ["copy", "load"])
@pytest.mark.parametrize("mode", ["zscore", "l2"])
def test_squares_beyond_the_float_range_are_refused(tmp_path, mode, where):
    # the values are finite but their squares are not: dividing by an
    # infinite norm would turn the row (zscore) or the samples (l2) into
    # zeros without a word, and numpy must not warn on the way
    x = np.array([[1e200, -1e200, 1e200, -1e200], [1.0, 2.0, 3.0, 4.0]])
    ds = make_dataset([np.ones((2, 4)), x], np.array([0, 0, 1, 1]), 2)
    with pytest.raises(DatasetError, match="^view 1: contains non-finite values$"):
        if where == "copy":
            normalize_features(ds, mode)
        else:
            write_dataset(ds, tmp_path)
            load_dataset(tmp_path, normalize=mode)


def test_l2_column_example():
    x = np.array([[3.0, 0.0], [4.0, 0.0]])
    ds = make_dataset([x], np.array([0, 1]), 2)
    out = normalize_features(ds, "l2")
    assert np.allclose(out.views[0].data[:, 0], [0.6, 0.8])
    assert np.all(out.views[0].data[:, 1] == 0.0)   # zero column unchanged


def test_normalize_none_identity():
    ds = _tiny(seed=2)
    out = normalize_features(ds, "none")
    for a, b in zip(ds.views, out.views):
        assert np.array_equal(a.data, b.data)


def test_normalize_unknown_mode():
    with pytest.raises(ValueError):
        normalize_features(_tiny(), "minmax")


# --- one-hot coding ---

def test_onehot_values():
    y = encode_onehot(np.array([1]), 3)
    assert np.array_equal(y[:, 0], [0, 1, 0])
    y = encode_onehot(np.array([0, 2]), 3)
    assert np.array_equal(y, [[1, 0], [0, 0], [0, 1]])


def test_onehot_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        labels = rng.integers(0, k, size=int(rng.integers(1, 30)))
        onehot = encode_onehot(labels, k)
        assert np.array_equal(onehot.argmax(axis=0), labels)
        assert np.array_equal(onehot.sum(axis=0), np.ones(labels.size))


def test_onehot_out_of_range():
    with pytest.raises(ValueError):
        encode_onehot(np.array([3]), 3)


# --- synthetic generator ---

def test_generator_deterministic():
    spec = SyntheticSpec(seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va.data, vb.data)
    assert np.array_equal(a.labels, b.labels)


def test_generator_counts():
    ds = generate_synthetic(SyntheticSpec(views=3, classes=5, per_class=7,
                                          dims=(6, 7, 8)))
    assert ds.num_samples == 35
    assert ds.view_dims == (6, 7, 8)
    assert np.all(np.bincount(ds.labels) == 7)


def test_generator_separable_for_baseline():
    ds = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=25,
                                          dims=(6, 9), separation=12.0,
                                          noise=0.4, seed=1))
    pred = concat_kmeans_ncd(ds, seed=0)
    truth = ds.labels[ds.unlabeled_indices]
    assert clustering_accuracy(pred, truth) == 1.0


def test_generator_rejects_bad_spec():
    with pytest.raises(DatasetError):
        generate_synthetic(SyntheticSpec(classes=1))
    with pytest.raises(DatasetError):
        generate_synthetic(SyntheticSpec(separation=-1.0))
    with pytest.raises(DatasetError):
        generate_synthetic(SyntheticSpec(noise=-0.5))
    # a non-finite spec value is named before it makes non-finite data
    for field, value in (("separation", np.inf), ("separation", np.nan),
                         ("noise", np.nan), ("noise", np.inf),
                         ("noise", (1.0, np.inf))):
        with pytest.raises(DatasetError,
                           match=f"{field} must be finite and >= 0, got"):
            generate_synthetic(SyntheticSpec(**{field: value}))
    with pytest.raises(DatasetError, match="dims must be >= 1, got 0"):
        generate_synthetic(SyntheticSpec(dims=(8, 0)))
    with pytest.raises(DatasetError, match="seed must be >= 0, got -3"):
        generate_synthetic(SyntheticSpec(seed=-3))


# --- file round trip ---

def test_write_load_round_trip(tmp_path):
    ds = _tiny(seed=9)
    manifest = write_dataset(ds, tmp_path / "data")
    assert manifest.name == "manifest.json"
    loaded = load_dataset(tmp_path / "data")
    for a, b in zip(ds.views, loaded.views):
        assert np.array_equal(a.data, b.data)   # %.17g is bit exact
    assert np.array_equal(ds.labels, loaded.labels)
    assert loaded.num_classes == ds.num_classes
    # manifest path works the same as the directory
    again = load_dataset(manifest)
    assert np.array_equal(again.labels, ds.labels)


def test_a_failed_write_dataset_leaves_each_file_whole(tmp_path, monkeypatch):
    # view 1 fails part-way: no file has been replaced yet, so all four keep
    # their old bytes and no temporary is left
    old, ds = tmp_path / "old", _tiny(seed=1)
    write_dataset(_tiny(seed=0), old)
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    savetxt, calls = np.savetxt, []

    def failing(fname, X, *args, **kwargs):
        calls.append(X)
        if len(calls) == 2:
            savetxt(fname, X[:1], *args, **kwargs)
            raise OSError(28, "No space left on device")
        savetxt(fname, X, *args, **kwargs)
    monkeypatch.setattr(np, "savetxt", failing)
    with pytest.raises(OSError, match="No space left on device"):
        write_dataset(ds, old)
    assert len(before) == 4 and sorted(os.listdir(old)) == sorted(before)
    for name, content in before.items():
        assert (old / name).read_bytes() == content, name


def test_manifest_schema(tmp_path):
    write_dataset(_tiny(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"views", "labels", "num_classes"}
    assert all(set(v) == {"path", "dim"} for v in manifest["views"])


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope")


def test_load_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)
    (tmp_path / "manifest.json").write_text("[1, 2]")
    with pytest.raises(DatasetError, match="must be a JSON object"):
        load_dataset(tmp_path)


def test_load_missing_field(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"views": []}))
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_load_dim_mismatch(tmp_path):
    write_dataset(_tiny(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["views"][0]["dim"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_load_bad_labels(tmp_path):
    write_dataset(_tiny(), tmp_path)
    (tmp_path / "labels.csv").write_text("0\n1\nbanana\n")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


@pytest.mark.parametrize("content, message", [
    (None, "file not found"),
    ("0\n1\nbanana\n", "could not parse"),
    ("# header only\n", "no data rows"),
    ("0,1\n1,0\n", "must hold one integer per line"),
    ("0\ninf\n", "contains non-finite values"),
    ("0\n0.5\n", "contains non-integer values"),
], ids=["missing", "text", "no-rows", "two-columns", "inf", "fraction"])
def test_read_integers_names_what_it_reads(tmp_path, content, message):
    path = tmp_path / "ids.csv"
    if content is not None:
        path.write_text(content)
    with pytest.raises(DatasetError, match=f"^ids: {message}"):
        dataset.read_integers(path, "ids")


def test_refused_large_labels_file_leaves_no_cache_entry(tmp_path):
    # labels are parsed as a view CSV is, forked parse included, but only
    # view CSVs are cached, so a refused file of 4 MiB or more leaves nothing
    write_dataset(_tiny(), tmp_path)
    line = "1." + "0" * 40 + "\n"
    labels = tmp_path / "labels.csv"
    labels.write_text(line * (2 * dataset._MIN_RANGE_BYTES // len(line) + 1) + "0.5\n")
    assert labels.stat().st_size >= 2 * dataset._MIN_RANGE_BYTES
    with pytest.raises(DatasetError, match="^labels: contains non-integer values$"):
        load_dataset(tmp_path)
    assert not (tmp_path / dataset._CACHE_DIR).exists()


def test_read_integers_keeps_values_beyond_the_integer_range(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("3\n-2\n1e300\n")
    assert dataset.read_integers(path, "ids").tolist() == [3.0, -2.0, 1e300]


@pytest.fixture(scope="module")
def parse_paths(tmp_path_factory):
    """A dataset whose first view is parsed by forked children (its CSV is
    at least 4 MiB, two ranges of the minimum length) and a small one that
    is parsed in-process."""
    root = tmp_path_factory.mktemp("parse_paths")
    big = generate_synthetic(SyntheticSpec(views=2, classes=4, per_class=850,
                                           dims=(64, 5), seed=3))
    small = _tiny(per_class=20, dims=(7, 9), seed=4)
    write_dataset(big, root / "forked")
    write_dataset(small, root / "in-process")
    assert (root / "forked" / "view_0.csv").stat().st_size >= 4 << 20
    return root


@pytest.mark.parametrize("mode", ["zscore", "l2", "none"])
@pytest.mark.parametrize("parse", ["forked", "in-process"])
def test_load_normalized_equals_normalize_after_load(
        parse_paths, monkeypatch, parse, mode):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    forked = []
    real = dataset._parse_in_ranges

    def spy(path):
        arr = real(path)
        forked.append(arr is not None)
        return arr
    monkeypatch.setattr(dataset, "_parse_in_ranges", spy)
    path = parse_paths / parse
    # an earlier case cached the forked view; without its entry it is parsed
    shutil.rmtree(path / dataset._CACHE_DIR, ignore_errors=True)
    loaded = load_dataset(path, normalize=mode)
    assert any(forked) == (parse == "forked")
    expected = normalize_features(load_dataset(path), mode)
    assert loaded.normalization == mode
    assert normalize_features(loaded, mode) is loaded
    assert np.array_equal(loaded.labels, expected.labels)
    for got, want in zip(loaded.views, expected.views):
        assert got.data.flags.f_contiguous and want.data.flags.f_contiguous
        assert got.data.tobytes("A") == want.data.tobytes("A")


@pytest.mark.parametrize("mode", ["zscore", "l2", "none"])
def test_cache_hit_loads_the_bits_of_the_parse(parse_paths, monkeypatch, mode):
    path = parse_paths / "forked"
    shutil.rmtree(path / dataset._CACHE_DIR, ignore_errors=True)
    missed = load_dataset(path, normalize=mode)
    assert _cache_names(path) == ["view_0.csv.npy"]
    parsed = []
    real = dataset._parse_in_ranges

    def spy(path):
        parsed.append(path.name)
        return real(path)
    monkeypatch.setattr(dataset, "_parse_in_ranges", spy)
    hit = load_dataset(path, normalize=mode)
    assert "view_0.csv" not in parsed and "view_1.csv" in parsed
    assert hit.normalization == mode
    for got, want in zip(hit.views, missed.views):
        assert got.data.flags.f_contiguous and want.data.flags.f_contiguous
        assert got.data.tobytes("A") == want.data.tobytes("A")


def test_load_refuses_unknown_normalization(tmp_path):
    write_dataset(_tiny(), tmp_path)
    with pytest.raises(DatasetError, match="unknown normalization mode"):
        load_dataset(tmp_path, normalize="minmax")


def test_load_known_classes_override(tmp_path):
    write_dataset(_tiny(), tmp_path)
    ds = load_dataset(tmp_path, known_classes=[2, 3])
    assert list(ds.known_classes) == [2, 3]


@pytest.mark.parametrize("field, value, message", [
    ("views", 5, "'views' must be a list of objects"),
    ("views", ["view_0.csv"], "'views' must be a list of objects"),
    ("labels", None, "manifest: field 'labels' must be a string, got NoneType"),
    ("labels", 5, "manifest: field 'labels' must be a string, got int"),
    ("num_classes", [10], "manifest: field 'num_classes' must be an integer, got list"),
    ("num_classes", "4", "manifest: field 'num_classes' must be an integer, got str"),
    ("num_classes", 4.0, "manifest: field 'num_classes' must be an integer, got float"),
    ("num_classes", True, "manifest: field 'num_classes' must be an integer, got bool"),
    ("path", 5, "view 0: field 'path' must be a string, got int"),
    ("dim", "5", "view 0: field 'dim' must be an integer, got str"),
])
def test_load_refuses_malformed_field_types(tmp_path, field, value, message):
    write_dataset(_tiny(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (manifest["views"][0] if field in ("path", "dim") else manifest)[field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(tmp_path)


@pytest.mark.parametrize("content", ["", "# header only\n\n"])
def test_load_refuses_csv_without_data_rows(tmp_path, content):
    write_dataset(_tiny(), tmp_path)
    (tmp_path / "view_1.csv").write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's own warning must not leak
        with pytest.raises(DatasetError,
                           match=r"^view 1: no data rows in .*view_1\.csv$"):
            load_dataset(tmp_path)


# --- parallel CSV parse ---

@pytest.fixture
def split_ranges(monkeypatch):
    """Split every file into ``cpus`` byte ranges, however small."""
    def split(cpus):
        monkeypatch.setattr(dataset, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: cpus)
    return split


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(rng, n, d):
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, (n, d))
    return [",".join(f"{v:.17g}" for v in row) for row in values]


def _parse_cases():
    rows = _rows(np.random.default_rng(0), 9, 3)
    return {
        "lf": ("\n".join(rows) + "\n", 3),
        "crlf": ("\r\n".join(rows) + "\r\n", 3),
        "no trailing newline": ("\n".join(rows), 4),
        "blank and comment lines": (
            "# header\n" + "\n".join(rows[:4]) + "\n\n# mid\n"
            + rows[4] + " # trailing comment\n" + "\n".join(rows[5:]) + "\n\n", 3),
        # two equal lines: the nominal cut falls right after the first newline
        "cut on a line end": ("1.25,2\n3.75,4\n", 2),
        "more ranges than rows": ("1,2\n3,4\n5,6\n", 8),
    }


@pytest.mark.parametrize("case", list(_parse_cases()))
def test_parallel_parse_bit_identical_to_loadtxt(tmp_path, split_ranges, case):
    text, cpus = _parse_cases()[case]
    path = tmp_path / "view.csv"
    path.write_bytes(text.encode())
    split_ranges(cpus)
    parallel = dataset._parse_in_ranges(path)
    _assert_no_child_left()
    assert parallel is not None, "the file was not split"
    expected = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    assert parallel.shape == expected.shape
    assert parallel.tobytes() == expected.tobytes()
    assert dataset._parse_csv(path, "view 0").tobytes() == expected.tobytes()
    _assert_no_child_left()


@pytest.mark.parametrize("fault", ["1.0,banana,3", "1.0,2.0", "1.0,nan,3"])
def test_parallel_parse_fault_in_later_range_reads_as_serial(
        tmp_path, monkeypatch, split_ranges, fault):
    ds = _tiny(per_class=6, dims=(3, 4))
    write_dataset(ds, tmp_path)
    view = tmp_path / "view_0.csv"
    view.write_text(view.read_text() + fault + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text(labels.read_text() + "0\n")
    with pytest.raises(DatasetError) as serial:
        load_dataset(tmp_path)
    split_ranges(4)
    with pytest.raises(DatasetError) as parallel:
        load_dataset(tmp_path)
    _assert_no_child_left()
    assert str(parallel.value) == str(serial.value)
    assert str(serial.value).startswith("view 0: ")


def test_parallel_parse_gives_up_on_children_still_writing(tmp_path):
    # Two equal-length halves with 4 and 3 columns: both children parse, and
    # each has more rows to send than a pipe buffers (64 KiB), so both are
    # blocked writing when the parent refuses the column mismatch. Run in a
    # subprocess so that a deadlock fails by timeout instead of hanging.
    path = tmp_path / "view.csv"
    path.write_text("1.5,2.5,3.5,4.5\n" * 4000 + "1.25,2.25,3.255\n" * 4000)
    code = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "from mvncd import dataset\n"
        "dataset._MIN_RANGE_BYTES = 1\n"
        "dataset._usable_cpus = lambda: 2\n"
        "assert dataset._parse_in_ranges(Path(sys.argv[1])) is None\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('reaped')\n"
    )
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         env=dict(os.environ, PYTHONPATH=src), timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert out == "reaped\n"
    with pytest.raises(DatasetError, match="number of columns changed"):
        dataset._parse_csv(path, "view 0")


_real_fork = os.fork


def _warning_fork():
    """os.fork as Python 3.12 and later run it in a process with more than
    one OS thread: the parent warns after the child exists."""
    pid = _real_fork()
    if pid:
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use "
                      "of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
    return pid


class _Interrupt(BaseException):
    pass


@pytest.mark.parametrize("fault", ["fork warns", "interrupt after the fork"])
def test_a_fork_loses_no_child(tmp_path, monkeypatch, split_ranges, fault):
    text, cpus = _parse_cases()["lf"]
    path = tmp_path / "view.csv"
    path.write_bytes(text.encode())
    split_ranges(cpus)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    if fault == "fork warns":
        monkeypatch.setattr(os, "fork", _warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = dataset._parse_in_ranges(path)
        expected = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        assert parallel is not None and parallel.tobytes() == expected.tobytes()
    else:
        def interrupted_open(file, *args, **kwargs):
            if isinstance(file, int):   # the parent's read end of a pipe
                raise _Interrupt
            return open(file, *args, **kwargs)
        monkeypatch.setattr(dataset, "open", interrupted_open, raising=False)
        with pytest.raises(_Interrupt):
            dataset._parse_in_ranges(path)
    _assert_no_child_left()
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


def test_small_files_never_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a small file was split")
    monkeypatch.setattr(os, "fork", no_fork)
    sizes = [p.stat().st_size for p in FIXTURE_DIR.glob("*.csv")]
    assert max(sizes) < 2 * dataset._MIN_RANGE_BYTES
    load_dataset(FIXTURE_DIR)
    write_dataset(_tiny(per_class=50, dims=(30, 30)), tmp_path)
    load_dataset(tmp_path)
    assert not (FIXTURE_DIR / dataset._CACHE_DIR).exists()
    assert not (tmp_path / dataset._CACHE_DIR).exists()


# --- parse cache ---

def _cache_names(directory):
    return sorted(os.listdir(directory / dataset._CACHE_DIR))


def _entry_of(csv):
    return csv.parent / dataset._CACHE_DIR / f"{csv.name}.npy"


def _saved(arr, version=None):
    """The bytes ``np.save`` writes for ``arr``; with ``version``, those of
    that ``.npy`` format version."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version)
    return buf.getvalue()


def _overstated(arr, rows):
    """``_saved(arr)`` with a header that claims ``rows`` rows."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                               "shape": (rows, arr.shape[1])})
    return buf.getvalue() + arr.tobytes()


@pytest.fixture(scope="module")
def big_csv_bytes():
    """A CSV just over the 4 MiB from which a file is split and cached."""
    buf = io.StringIO()
    np.savetxt(buf, np.random.default_rng(5).standard_normal((3400, 64)),
               fmt="%.17g", delimiter=",")
    text = buf.getvalue().encode()
    assert len(text) >= 2 * dataset._MIN_RANGE_BYTES
    return text


@pytest.fixture
def big_csv(tmp_path, big_csv_bytes):
    path = tmp_path / "view.csv"
    path.write_bytes(big_csv_bytes)
    return path


def _parse(path):
    """``path`` loaded as the one view of a dataset, through the parse
    cache's one client, ``load_dataset``; returned in the file's layout, a
    sample per row. The labels and the manifest go beside it."""
    lines = [line.split(b"#")[0].strip() for line in path.read_bytes().splitlines()]
    rows = [line for line in lines if line]
    (path.parent / "labels.csv").write_text("0\n" * len(rows))
    manifest = path.parent / "manifest.json"
    manifest.write_text(json.dumps({
        "views": [{"path": path.name, "dim": rows[0].count(b",") + 1}],
        "labels": "labels.csv", "num_classes": 2}))
    return load_dataset(manifest).views[0].data.T


@pytest.mark.parametrize("below", [1, 0], ids=["one byte under 4 MiB", "4 MiB"])
def test_only_files_of_4_mib_or_more_are_cached(tmp_path, big_csv_bytes, below):
    size = 2 * dataset._MIN_RANGE_BYTES - below
    head = big_csv_bytes[:big_csv_bytes.rindex(b"\n", 0, size - 100) + 1]
    path = tmp_path / "view.csv"
    path.write_bytes(head + b"#" * (size - len(head) - 1) + b"\n")
    assert path.stat().st_size == size
    _parse(path)
    assert (tmp_path / dataset._CACHE_DIR).exists() == (below == 0)


def test_rewritten_csv_of_the_same_size_and_mtime_is_a_miss(big_csv):
    _parse(big_csv)
    old = _entry_of(big_csv).read_bytes()[-32:]
    stat = big_csv.stat()
    big_csv.write_bytes(b"".join(reversed(big_csv.read_bytes().splitlines(keepends=True))))
    os.utime(big_csv, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (big_csv.stat().st_size, big_csv.stat().st_mtime_ns) == (
        stat.st_size, stat.st_mtime_ns)
    got = _parse(big_csv)
    assert got.tobytes() == np.loadtxt(big_csv, delimiter=",", ndmin=2).tobytes()
    assert _cache_names(big_csv.parent) == ["view.csv.npy"]
    assert _entry_of(big_csv).read_bytes()[-32:] != old
    assert np.load(_entry_of(big_csv)).tobytes() == got.tobytes()


@pytest.mark.parametrize("damage", ["truncated", "key read as data", "float32", "fortran",
                                    "object", "no rows", "overstated rows", "wrong key",
                                    "version 2.0"])
def test_unreadable_entry_is_a_miss_and_is_replaced(big_csv, damage):
    # every damaged array is followed by the right key, so the array checks
    # decide the miss; "wrong key" is a sound entry of the file's old bytes
    text = big_csv.read_bytes()
    want = _parse(big_csv)
    entry = _entry_of(big_csv)
    key = entry.read_bytes()[-32:]
    if damage == "wrong key":
        big_csv.write_bytes(b"".join(reversed(text.splitlines(keepends=True))))
        _parse(big_csv)
        big_csv.write_bytes(text)
        assert entry.read_bytes()[-32:] != key
    else:
        saved = _saved(want)
        # "key read as data" is short by one key: an array read on to the
        # end of the file would take the key for its last four values.
        # "overstated rows" claims 6 TB of rows, which np.load would try to
        # allocate before it read a value. "version 2.0" is the right array
        # in a format np.save never writes for it
        bad = {"truncated": lambda: saved[:len(saved) // 2],
               "key read as data": lambda: saved[:-32],
               "float32": lambda: _saved(want.astype(np.float32)),
               "fortran": lambda: _saved(np.asfortranarray(want)),
               "object": lambda: _saved(np.array([None, want], dtype=object)),
               "no rows": lambda: _saved(want[:0]),
               "overstated rows": lambda: _overstated(want, 12 * 10**9),
               "version 2.0": lambda: _saved(want, version=(2, 0))}[damage]()
        entry.write_bytes(bad + key)
    got = _parse(big_csv)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes("A") == want.tobytes("A")
    assert _cache_names(big_csv.parent) == ["view.csv.npy"]
    assert entry.read_bytes() == _saved(want) + key


def test_entry_key_is_a_plain_sha256_of_the_tag_and_the_file(big_csv):
    # any change to how the file is digested that moved the key would turn
    # every entry already on disk into a miss
    _parse(big_csv)
    key = hashlib.sha256(f"{dataset._PARSE_FORMAT}; numpy {np.__version__}".encode())
    key.update(big_csv.read_bytes())
    assert _entry_of(big_csv).read_bytes()[-32:] == key.digest()


def test_cache_dir_that_is_a_file_leaves_a_normal_load(big_csv):
    blocker = big_csv.parent / dataset._CACHE_DIR
    blocker.write_text("not a directory\n")
    got = _parse(big_csv)
    assert got.tobytes() == np.loadtxt(big_csv, delimiter=",", ndmin=2).tobytes()
    assert blocker.read_text() == "not a directory\n"


def test_failed_parse_writes_no_entry(big_csv):
    big_csv.write_bytes(big_csv.read_bytes() + b"1.0,banana,3\n")
    with pytest.raises(DatasetError, match="^view 0: could not parse"):
        _parse(big_csv)
    assert not (big_csv.parent / dataset._CACHE_DIR).exists()


def test_csv_touched_during_the_parse_writes_no_entry(big_csv, monkeypatch):
    real = dataset._parse_in_ranges

    def touching(path):
        arr = real(path)
        os.utime(path, ns=(0, path.stat().st_mtime_ns + 10**9))
        return arr
    monkeypatch.setattr(dataset, "_parse_in_ranges", touching)
    assert _parse(big_csv).tobytes() == np.loadtxt(big_csv, delimiter=",", ndmin=2).tobytes()
    assert not (big_csv.parent / dataset._CACHE_DIR).exists()


def test_entries_are_matched_by_exact_file_name(tmp_path, big_csv_bytes):
    # the entry of view[0].csv is view[0].csv.npy; an empty one is a miss.
    # Another CSV's entry, names that extend the CSV's name and an entry of
    # the old <name>.<key>.npy form are neither read nor touched.
    path = tmp_path / "view[0].csv"
    path.write_bytes(big_csv_bytes)
    cache = tmp_path / dataset._CACHE_DIR
    cache.mkdir()
    others = ["view0.csv.npy", "xview[0].csv.npy", "view[0].csv.npy.npy",
              "view[0].csv.1.npy", "view[0].csv." + "0" * 64 + ".npy", "view[0].csv"]
    (cache / "view[0].csv.npy").write_bytes(b"")
    for name in others:
        (cache / name).write_bytes(name.encode())
    want = _parse(path)
    assert _cache_names(tmp_path) == sorted([*others, "view[0].csv.npy"])
    for name in others:
        assert (cache / name).read_bytes() == name.encode()
    assert np.load(cache / "view[0].csv.npy").tobytes() == want.tobytes()
    assert _parse(path).tobytes() == want.tobytes()


@pytest.mark.skipif(not hasattr(os, "geteuid"), reason="POSIX owners and modes")
@pytest.mark.parametrize("owner, mode, served", [
    (None, 0o644, True), (54321, 0o644, False), (None, 0o664, False), (None, 0o646, False)],
    ids=["own entry", "foreign owner", "group-writable", "world-writable"])
def test_only_a_trusted_entry_is_served(big_csv, owner, mode, served):
    # the forged entry carries the right key: only its owner and mode decide
    want = _parse(big_csv)
    entry = _entry_of(big_csv)
    forged = want + 1.0
    entry.write_bytes(_saved(forged) + entry.read_bytes()[-32:])
    if owner is not None:
        os.chown(entry, owner, -1)
    os.chmod(entry, mode)
    # an untrusted entry is refused before the CSV is hashed
    cache = dataset._ParseCache(big_csv, big_csv.stat())
    assert (cache.lookup() is not None, cache.digest is not None) == (served, served)
    got = _parse(big_csv)
    assert got.tobytes() == (forged if served else want).tobytes()
    assert _cache_names(big_csv.parent) == ["view.csv.npy"]
    assert np.load(entry).tobytes() == (forged if served else want).tobytes()
    if not served:
        assert entry.stat().st_uid == os.geteuid() and not entry.stat().st_mode & 0o022


def test_parse_rules_are_part_of_the_key(big_csv, monkeypatch):
    want = _parse(big_csv)
    old = _entry_of(big_csv).read_bytes()[-32:]
    monkeypatch.setattr(dataset, "_PARSE_FORMAT", dataset._PARSE_FORMAT + " changed")
    assert _parse(big_csv).tobytes() == want.tobytes()
    assert _cache_names(big_csv.parent) == ["view.csv.npy"]
    assert _entry_of(big_csv).read_bytes()[-32:] != old


def test_store_never_writes_through_a_planted_temporary_name(big_csv, monkeypatch):
    # the random part of the name is fixed, so the symlink sits at exactly
    # the temporary name that the store opens
    monkeypatch.setattr(os, "urandom", lambda n: b"\x5a" * n)
    cache = dataset._ParseCache(big_csv, big_csv.stat())
    victim = big_csv.parent / "victim.txt"
    victim.write_text("keep me\n")
    cache.dir.mkdir()
    planted = cache.dir / f".{cache.entry.name}.{'5a' * 8}.tmp"
    planted.symlink_to(victim)
    assert _parse(big_csv).tobytes() == np.loadtxt(big_csv, delimiter=",", ndmin=2).tobytes()
    assert victim.read_text() == "keep me\n"
    assert _cache_names(big_csv.parent) == [planted.name]


# --- one worker per view ---

@pytest.fixture(scope="module")
def three_big_views(tmp_path_factory):
    """A dataset of three view CSVs of 4 MiB or more, so that each is
    cached, and next to it a copy of their cache entries."""
    root = tmp_path_factory.mktemp("three_big_views")
    ds = generate_synthetic(SyntheticSpec(views=3, classes=4, per_class=900,
                                          dims=64, seed=8))
    write_dataset(ds, root / "data")
    for i in range(3):
        assert (root / "data" / f"view_{i}.csv").stat().st_size >= 4 << 20
    load_dataset(root / "data")
    shutil.copytree(root / "data" / dataset._CACHE_DIR, root / "entries")
    return root / "data"


def _cache_state(path, state):
    """Give ``three_big_views`` an entry for every view ("hit"), none
    ("miss"), or for views 0 and 2 only ("mixed")."""
    cache = path / dataset._CACHE_DIR
    shutil.rmtree(cache, ignore_errors=True)
    if state != "miss":
        shutil.copytree(path.parent / "entries", cache)
    if state == "mixed":
        for name in _cache_names(path):
            if name.startswith("view_1."):
                (cache / name).unlink()


def _absolute_manifest(directory):
    """The manifest of ``directory`` with every path made absolute, to be
    edited and written to another directory."""
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["labels"] = str(directory / manifest["labels"])
    for entry in manifest["views"]:
        entry["path"] = str(directory / entry["path"])
    return manifest


def _threads_calling(monkeypatch, name, delay=None):
    """Record the thread of every call of ``dataset.<name>``, and the
    number of threads alive at it; ``delay(*args)`` seconds of sleep go
    before the call."""
    real = getattr(dataset, name)
    calls = []

    def spy(*args):
        calls.append((threading.current_thread(), threading.active_count()))
        time.sleep(delay(*args) if delay else 0)
        return real(*args)
    monkeypatch.setattr(dataset, name, spy)
    return calls


@pytest.mark.parametrize("mode", ["zscore", "l2", "none"])
def test_threaded_load_equals_a_one_worker_load(three_big_views, monkeypatch, mode):
    # a hit gives the bits of a miss (test_cache_hit_loads_the_bits_of_the_parse),
    # so one one-worker load of cached views is the reference for all three
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 1)
    calls = _threads_calling(monkeypatch, "_cache_lookup")
    _cache_state(three_big_views, "hit")
    want = load_dataset(three_big_views, normalize=mode)
    assert {thread for thread, _ in calls} == {threading.main_thread()}
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    for state in ("hit", "miss", "mixed"):
        calls = _threads_calling(monkeypatch, "_cache_lookup")
        _cache_state(three_big_views, state)
        got = load_dataset(three_big_views, normalize=mode)
        # a thread per view, the calling thread one of them
        assert len({thread for thread, _ in calls}) == 3
        assert got.normalization == want.normalization == mode
        for a, b in zip(got.views, want.views):
            assert a.data.flags.f_contiguous and b.data.flags.f_contiguous
            assert a.data.tobytes("A") == b.data.tobytes("A")


@pytest.mark.parametrize("fault", ["non-finite", "dim"])
def test_refusal_names_the_lowest_bad_view(three_big_views, tmp_path, monkeypatch,
                                           fault):
    # views 0 and 2 are bad, and view 0's task is held back, so view 2
    # fails first in time; once with no entry, once with every entry
    manifest = _absolute_manifest(three_big_views)
    for i in (0, 2):
        if fault == "dim":
            manifest["views"][i]["dim"] += 1
        else:
            text = (three_big_views / f"view_{i}.csv").read_bytes()
            (tmp_path / f"view_{i}.csv").write_bytes(b"nan" + text[text.index(b","):])
            manifest["views"][i]["path"] = f"view_{i}.csv"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    _threads_calling(monkeypatch, "_cache_lookup",
                     lambda path: 0.2 if path.name == "view_0.csv" else 0)
    _threads_calling(monkeypatch, "_checked_view", lambda arr, i, n: 0.2 if i == 0 else 0)
    message = ("view 0: contains non-finite values" if fault == "non-finite"
               else "view 0: file has 64 feature columns, manifest declares 65")
    for state in ("miss", "hit"):
        _cache_state(three_big_views, state)
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(tmp_path, normalize="zscore")
        # no entry for a refused view; view 1 passed its checks, so a miss
        # stored its entry, unless view 0's dim ended the load before its parse
        want = ["view_0", "view_1", "view_2"] if state == "hit" else []
        if fault == "non-finite":
            assert not (tmp_path / dataset._CACHE_DIR).exists()
            want = ["view_1"] if state == "miss" else want
        assert _entry_views(three_big_views) == want


@pytest.mark.parametrize("state", ["miss", "hit"])
def test_a_missing_view_file_is_refused_in_view_order(three_big_views, tmp_path,
                                                      monkeypatch, state):
    # view 1's CSV is missing: its lookup is a miss, and its parse refuses
    # it after view 0 is read, so a wrong dim of view 0 is named first
    manifest = _absolute_manifest(three_big_views)
    manifest["views"][1]["path"] = str(tmp_path / "view_1.csv")
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    _cache_state(three_big_views, state)
    for dim, message in [
            (64, f"view 1: file not found: {tmp_path / 'view_1.csv'}"),
            (65, "view 0: file has 64 feature columns, manifest declares 65")]:
        manifest["views"][0]["dim"] = dim
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(tmp_path, normalize="zscore")


@pytest.mark.parametrize("fault", ["view 1 missing", "view 2 dim"])
def test_no_view_is_finished_before_every_view_is_read(three_big_views, tmp_path,
                                                        monkeypatch, fault):
    # every view has an entry; a read error or a dim mismatch in a later
    # view is refused before any view is checked or normalized
    manifest = _absolute_manifest(three_big_views)
    if fault == "view 1 missing":
        manifest["views"][1]["path"] = str(tmp_path / "view_1.csv")
        message = f"view 1: file not found: {tmp_path / 'view_1.csv'}"
    else:
        manifest["views"][2]["dim"] = 65
        message = "view 2: file has 64 feature columns, manifest declares 65"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    _cache_state(three_big_views, "hit")
    checked = _threads_calling(monkeypatch, "_checked_view")
    normalized = _threads_calling(monkeypatch, "_normalize_view")
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path, normalize="zscore")
    assert checked == [] and normalized == []


@pytest.mark.parametrize("mode", ["zscore", "l2"])
def test_overflow_in_a_lower_view_is_named_before_a_later_nan(tmp_path, mode):
    # view 0's values are finite but their squares overflow, so it is refused
    # at normalization; view 2 holds a NaN, refused by its checks. A view's
    # checks and normalization are one stage, so the lower view is named.
    ds = _tiny(dims=(5, 6, 4))
    arrays = [v.data.copy() for v in ds.views]
    arrays[0][1] = 1e200 * (-1.0) ** np.arange(ds.num_samples)
    write_dataset(make_dataset(arrays, ds.labels, ds.num_classes), tmp_path)
    text = (tmp_path / "view_2.csv").read_text()
    (tmp_path / "view_2.csv").write_text("nan" + text[text.index(","):])
    with pytest.raises(DatasetError, match="^view 0: contains non-finite values$"):
        load_dataset(tmp_path, normalize=mode)
    with pytest.raises(DatasetError, match="^view 2: contains non-finite values$"):
        load_dataset(tmp_path)


def _entry_views(directory):
    """The views of ``directory`` that have a cache entry."""
    if not (directory / dataset._CACHE_DIR).exists():
        return []
    return [name.split(".")[0] for name in _cache_names(directory)]


def test_misses_are_parsed_with_no_thread_of_ours_alive(three_big_views, monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    _cache_state(three_big_views, "mixed")
    before = threading.active_count()
    forks = []

    def spy_fork():
        forks.append(threading.active_count())
        return _real_fork()
    monkeypatch.setattr(os, "fork", spy_fork)
    lookups = _threads_calling(monkeypatch, "_cache_lookup")
    load_dataset(three_big_views, normalize="zscore")
    assert len({thread for thread, _ in lookups}) == 3
    assert forks and set(forks) == {before}
    _assert_no_child_left()


def test_threads_never_outnumber_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    cap = 2 * dataset._THREADS_PER_CPU
    write_dataset(_tiny(dims=(3,) * 12), tmp_path)
    before = threading.active_count()
    lookups = _threads_calling(monkeypatch, "_cache_lookup", lambda *args: 0.01)
    normalized = _threads_calling(monkeypatch, "_normalize_view", lambda *args: 0.01)
    ds = load_dataset(tmp_path, normalize="zscore")
    normalize_features(replace(ds, normalization="none"), "l2")
    # the views are looked up (labels.csv is read without the cache), the
    # small files normalized, and the copy normalized
    assert len(lookups) == 12 and len(normalized) == 24
    for calls in (lookups, normalized[:12], normalized[12:]):
        assert len({thread for thread, _ in calls}) == cap
        assert max(alive for _, alive in calls) <= before + cap - 1
    assert threading.active_count() == before


def test_a_miss_hashes_its_file_once(big_csv, monkeypatch):
    # an entry of older bytes: the lookup hashes the file, and the new
    # entry is stored with that same digest as its key
    (big_csv.parent / "labels.csv").write_text("0\n1\n" * 1700)
    (big_csv.parent / "manifest.json").write_text(json.dumps(
        {"views": [{"path": "view.csv", "dim": 64}], "labels": "labels.csv",
         "num_classes": 2}))
    want = load_dataset(big_csv.parent).views[0].data
    old = _entry_of(big_csv).read_bytes()[-32:]
    big_csv.write_bytes(big_csv.read_bytes() + big_csv.read_bytes().splitlines(True)[0])
    (big_csv.parent / "labels.csv").write_text("0\n1\n" * 1700 + "0\n")
    real, digests = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda *args: digests.append(1) or real(*args))
    got = load_dataset(big_csv.parent).views[0].data
    assert len(digests) == 1
    assert _cache_names(big_csv.parent) == ["view.csv.npy"]
    assert _entry_of(big_csv).read_bytes()[-32:] != old
    assert got[:, :-1].tobytes() == want.tobytes()
