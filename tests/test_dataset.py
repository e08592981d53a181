import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FIXTURE_DIR

from mvncd import dataset
from mvncd.baselines import concat_kmeans_ncd
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
    loaded = load_dataset(path, normalize=mode)
    assert any(forked) == (parse == "forked")
    expected = normalize_features(load_dataset(path), mode)
    assert loaded.normalization == mode
    assert normalize_features(loaded, mode) is loaded
    assert np.array_equal(loaded.labels, expected.labels)
    for got, want in zip(loaded.views, expected.views):
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
    assert dataset._read_csv_matrix(path, "view 0").tobytes() == expected.tobytes()
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
        dataset._read_csv_matrix(path, "view 0")


def test_small_files_never_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a small file was split")
    monkeypatch.setattr(os, "fork", no_fork)
    sizes = [p.stat().st_size for p in FIXTURE_DIR.glob("*.csv")]
    assert max(sizes) < 2 * dataset._MIN_RANGE_BYTES
    load_dataset(FIXTURE_DIR)
    write_dataset(_tiny(per_class=50, dims=(30, 30)), tmp_path)
    load_dataset(tmp_path)
