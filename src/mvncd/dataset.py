"""Multi-view dataset handling: loading, validation, normalization, splits.

In memory every view keeps samples as columns (a view is d_v x n). On disk
the layout is the usual one-sample-per-row CSV; matrices are transposed on
load and again on write.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

MANIFEST_NAME = "manifest.json"
# A CSV is split into at most one byte range per usable CPU, each at least
# this long: forking a parser and reading its rows back costs as much as
# parsing 0.5-1 MB in-process (5-10 ms on a 2-vCPU host).
_MIN_RANGE_BYTES = 1 << 21
# The parse of a CSV large enough to be split is kept beside it in this
# directory, so that later loads of the same bytes read no text.
_CACHE_DIR = ".mvncd_cache"
# Part of every cache key: the parse rules an entry was made under. Change
# it whenever _loadtxt or _parse_in_ranges's range split parse differently.
_PARSE_FORMAT = "mvncd parse 1: loadtxt delimiter=',' ndmin=2 dtype=float64, rows in file order"
# Views are looked up, checked and normalized on up to this many threads
# per usable CPU. The work releases the GIL (SHA-256, file reads, ufuncs),
# and more threads than CPUs share the CPUs evenly: three views on two
# threads would leave one thread two views to do.
_THREADS_PER_CPU = 2
# Every blocked pass over a view's columns takes about this many bytes at a
# time, as hashlib.file_digest does when it hashes a CSV: the views checked,
# normalized or hashed at once on the loader's threads hold about 1 MiB.
_BLOCK_BYTES = 1 << 18
# What os.fork warns from Python 3.12 on in a process with more than one
# OS thread; numpy's BLAS pool makes every process here such a process.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


class DatasetError(ValueError):
    """Raised for malformed dataset files or inconsistent dataset contents."""


@dataclass(frozen=True, eq=False)
class ViewMatrix:
    """One feature view of the sample set, features in rows."""

    data: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_samples(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True, eq=False)
class MultiViewDataset:
    """Feature views over one shared sample axis plus the known/novel split.

    ``labels`` holds a class id for every sample. Labels of unlabeled
    (novel-class) samples are kept for evaluation only; the solver never
    reads them. ``labeled_indices`` are exactly the samples whose class is
    in ``known_classes``; the rest form ``unlabeled_indices``.
    ``normalization`` is the mode last applied to the views ("none" when
    nothing is known about them). A dataset compares and hashes by
    identity, as do the other records that hold arrays.
    """

    views: tuple[ViewMatrix, ...]
    labels: np.ndarray
    num_classes: int
    known_classes: np.ndarray
    novel_classes: np.ndarray
    labeled_indices: np.ndarray
    unlabeled_indices: np.ndarray
    normalization: str = "none"

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def num_samples(self) -> int:
        return int(self.labels.size)

    @property
    def num_labeled(self) -> int:
        return int(self.labeled_indices.size)

    @property
    def num_unlabeled(self) -> int:
        return int(self.unlabeled_indices.size)

    @property
    def num_known(self) -> int:
        return int(self.known_classes.size)

    @property
    def num_novel(self) -> int:
        return int(self.novel_classes.size)

    @property
    def view_dims(self) -> tuple[int, ...]:
        return tuple(v.dim for v in self.views)

    def class_rows(self) -> np.ndarray:
        """Map class id -> one-hot row index; known classes take the first
        rows (in ascending id order), novel classes the remaining ones."""
        rows = np.empty(self.num_classes, dtype=int)
        rows[self.known_classes] = np.arange(self.num_known)
        rows[self.novel_classes] = np.arange(self.num_known, self.num_classes)
        return rows


def make_dataset(
    view_arrays: Sequence[np.ndarray],
    labels: np.ndarray,
    num_classes: int,
    known_classes: Sequence[int] | None = None,
) -> MultiViewDataset:
    """Validate raw arrays and assemble a MultiViewDataset.

    ``known_classes`` defaults to the split_known_novel rule. Raises
    DatasetError on any inconsistency.
    """
    widest = max((np.shape(arr)[0] for arr in view_arrays if np.ndim(arr)), default=0)
    split = _class_split(labels, num_classes, known_classes, widest)
    if len(view_arrays) == 0:
        raise DatasetError("dataset needs at least one view")
    n = split["labels"].size
    views = tuple(ViewMatrix(data=_checked_view(arr, i, n)) for i, arr in enumerate(view_arrays))
    return MultiViewDataset(views=views, **split)


def _class_split(labels: np.ndarray, num_classes: int,
                 known_classes: Sequence[int] | None, widest: int,
                 capped: bool = False) -> dict:
    """Validate ``labels`` and split the classes into known and novel ones
    as :func:`make_dataset` does; returns the MultiViewDataset fields other
    than ``views``, by name. ``widest`` is the widest view's feature count;
    ``capped`` says that it counts a declared dim only up to the columns
    the view's file can hold, below some declared dim."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise DatasetError("labels must be a non-empty 1-d array")
    k = int(num_classes)
    if not 2 <= k <= max(labels.size, widest):   # before any k-entry array exists
        cap = (", counting a declared dim only up to the columns its file can hold,"
               if capped else "")
        raise DatasetError(f"num_classes must be at least 2 and at most the larger of the "
                           f"{labels.size} samples and{cap} the widest view's {widest} "
                           f"features, got {k}")
    labels = _integer_labels(labels, k)

    # one mask over the class ids gives the known, novel and labeled sets
    # (np.unique, np.setdiff1d and np.isin would import numpy.ma)
    if known_classes is None:
        known_ids = split_known_novel(labels, k)[0]
    else:
        known_ids = np.asarray(known_classes).ravel()
        if known_ids.size == 0:
            raise DatasetError("known_classes must not be empty")
        known_ids = _integer_labels(known_ids, k, "known class ids")
    is_known_class = np.zeros(k, dtype=bool)
    is_known_class[known_ids] = True
    novel = np.flatnonzero(~is_known_class)
    if novel.size == 0:
        raise DatasetError("at least one class must remain novel")
    is_known = is_known_class[labels]
    return dict(labels=labels, num_classes=k, known_classes=np.flatnonzero(is_known_class),
                novel_classes=novel, labeled_indices=np.flatnonzero(is_known),
                unlabeled_indices=np.flatnonzero(~is_known))


def _checked_view(arr: np.ndarray, i: int, n: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise DatasetError(f"view {i}: expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[1] != n:
        raise DatasetError(f"view {i}: has {arr.shape[1]} samples, labels have {n}")
    # a block of columns at a time, so the mask stays small at any shape
    if not all(np.isfinite(arr[:, cols]).all() for cols in _column_blocks(arr)):
        raise DatasetError(f"view {i}: contains non-finite values")
    return arr


def _column_blocks(x: np.ndarray) -> list[slice]:
    """Slices that cut the columns of ``x`` into consecutive blocks of about
    ``_BLOCK_BYTES`` each, one column at least."""
    step = max(1, _BLOCK_BYTES // (x.itemsize * max(1, x.shape[0])))
    return [slice(c, min(c + step, x.shape[1])) for c in range(0, x.shape[1], step)]


def _integer_labels(labels: np.ndarray, k: int, what: str = "labels") -> np.ndarray:
    """``labels`` as integers in [0, k), or a DatasetError that names them
    ``what``. The range is checked before a float array is cast, so a value
    beyond the integer range is reported as itself and not as what the
    cast made of it; Python ints past 64 bits, which numpy holds as
    objects, are checked as floats."""
    if labels.dtype == object:
        try:
            labels = labels.astype(float)
        except OverflowError:   # an int past the float range, so past k
            raise DatasetError(f"{what} must lie in [0, {k})") from None
    if labels.dtype.kind not in "biuf":
        raise DatasetError(f"{what} must be integers")
    is_int = np.issubdtype(labels.dtype, np.integer)
    if not is_int and not np.all(labels == np.floor(labels)):
        raise DatasetError(f"{what} must be integers")
    lo, hi = labels.min(), labels.max()
    if lo < 0 or hi >= k:
        fmt = "d" if is_int else ".15g"
        raise DatasetError(f"{what} must lie in [0, {k}), got range "
                           f"[{lo:{fmt}}, {hi:{fmt}}]")
    return labels if is_int else labels.astype(int)


def split_known_novel(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Default 1:1 class split: the numerically first floor(k/2) class ids
    are known, the rest novel (odd k puts the extra class on the novel side).
    """
    k = int(num_classes)
    if k < 2:
        raise DatasetError(f"cannot split {k} classes into known and novel")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DatasetError(f"labels must lie in [0, {k})")
    half = k // 2
    return np.arange(half), np.arange(half, k)


NORMALIZATIONS = ("zscore", "l2", "none")


def normalize_features(ds: MultiViewDataset, mode: str = "zscore") -> MultiViewDataset:
    """Return a copy of ``ds`` with per-view normalized features.

    zscore: each feature row centered and scaled to unit variance over all
    samples; zero-variance rows become all-zero. l2: each sample column
    scaled to unit norm; zero columns are left unchanged. none: identity.
    A dataset whose ``normalization`` already is ``mode`` is returned as
    it is, the same object.
    """
    _check_mode(mode)
    return _normalized(ds, mode, in_place=False)


def _check_mode(mode: str) -> None:
    if mode not in NORMALIZATIONS:
        raise DatasetError(f"unknown normalization mode: {mode!r}")


def _normalized(ds: MultiViewDataset, mode: str, in_place: bool) -> MultiViewDataset:
    """``ds`` with its views normalized under ``mode``, into new arrays or,
    with ``in_place``, into the views' own arrays; ``ds`` itself when
    ``mode`` is "none" or already ``ds.normalization``. The views are
    normalized on :func:`_each_view`'s threads; a refusal names the lowest
    failing view. A new array is laid out as its source, so both ways make
    the same ufunc calls on the same layout and give the same bits."""
    if mode == "none" or mode == ds.normalization:
        return ds

    def normalize(i: int) -> ViewMatrix:
        data = ds.views[i].data
        out = data if in_place else np.empty_like(data)
        return ViewMatrix(data=_normalize_view(data, out, mode, i))
    return replace(ds, views=tuple(_each_view(normalize, ds.num_views)),
                   normalization=mode)


def _normalize_view(data: np.ndarray, out: np.ndarray, mode: str, i: int) -> np.ndarray:
    """View ``i``'s ``data`` normalized under ``mode`` into ``out``, which
    may be ``data`` itself; ``data`` when ``mode`` is "none". Refuses the
    view when a sum of squares is not finite: a value or a square beyond
    the float range, or a mean that overflowed. Dividing by such a sum
    would zero a feature row (zscore) or a sample (l2) without a word.
    A finite sum s bounds every value c it sums, c² <= s, so each c is
    finite, and c / sqrt(s / n) (zscore, at most sqrt(n) in size) and
    c / sqrt(s) (l2, at most 1) are finite too: no output value needs a
    check of its own."""
    if mode == "none":
        return data
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "zscore":
            np.subtract(data, data.mean(axis=1, keepdims=True), out=out)
            sums = _sums_of_squares(out, axis=1)
        else:
            sums = _sums_of_squares(data, axis=0)
    if not np.all(np.isfinite(sums)):
        raise DatasetError(f"view {i}: contains non-finite values")
    if mode == "zscore":
        std = np.sqrt(sums / out.shape[1])
        np.divide(out, np.where(std > 0, std, 1.0), out=out)
    else:
        norms = np.sqrt(sums)
        np.divide(data, np.where(norms > 0, norms, 1.0), out=out)
    return out


def _sums_of_squares(x: np.ndarray, axis: int) -> np.ndarray:
    """The sums of squares of ``x`` along ``axis`` (kept as a length-1
    axis), summed as np.std sums its centred copy and np.linalg.norm its
    squares, squaring about ``_BLOCK_BYTES`` at a time.

    numpy sums a contiguous line pairwise, and the lines of a whole array
    across their stride one element at a time, in order. Lines that run
    across the stride of a contiguous array are therefore squared a block
    of columns at a time, into a buffer behind a column that holds their
    sums so far, and summed on from there. Other lines are squared whole,
    a block of lines at a time; a block holds two lines or more, because
    numpy sums a lone strided line pairwise."""
    other = 1 - axis
    if x.strides[other] == x.itemsize != x.strides[axis] and x.shape[other] > 1:
        cols = x if axis == 1 else x.T   # F-contiguous, a line per row, not empty
        blocks = _column_blocks(cols)
        buf = np.zeros((cols.shape[0], 1 + blocks[0].stop), dtype=x.dtype, order="F")
        for block in blocks:
            part = cols[:, block]
            np.square(part, out=buf[:, 1:1 + part.shape[1]])
            buf[:, 0] = buf[:, :1 + part.shape[1]].sum(axis=1)
        return np.expand_dims(buf[:, 0], axis)
    blocks = max(1, min(x.shape[other] // 2, x.nbytes // _BLOCK_BYTES))
    return np.concatenate([np.square(part).sum(axis=axis, keepdims=True)
                           for part in np.array_split(x, blocks, axis=other)],
                          axis=other)


def encode_onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as a k x m matrix with exactly one 1 per column."""
    labels = np.asarray(labels, dtype=int)
    k = int(num_classes)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DatasetError(f"labels must lie in [0, {k})")
    out = np.zeros((k, labels.size))
    out[labels, np.arange(labels.size)] = 1.0
    return out


def unlabeled_subset(ds: MultiViewDataset) -> MultiViewDataset:
    """Restrict the dataset to its unlabeled samples (class split unchanged)."""
    cols = ds.unlabeled_indices
    arrays = [v.data[:, cols] for v in ds.views]
    return make_dataset(arrays, ds.labels[cols], ds.num_classes, ds.known_classes)


def load_dataset(path: str | Path, known_classes: Sequence[int] | None = None,
                 normalize: str = "none") -> MultiViewDataset:
    """Load a dataset from a manifest file (or a directory containing
    ``manifest.json``).

    The manifest lists per-view CSV paths (relative to the manifest) with
    their expected feature dimension, a labels CSV (one integer per line)
    and the total number of classes. The known/novel split is not stored;
    it is derived by split_known_novel unless ``known_classes`` overrides it.

    ``normalize`` is applied in place to the parsed views, so no raw copy
    stays behind; the result equals ``normalize_features(load_dataset(path),
    normalize)`` bit for bit.

    The views load in three stages. :func:`_each_view` looks every CSV up
    in the parse cache. Then, in the calling thread and in view order, each
    CSV with no entry is parsed and each view's ``dim`` is checked; no
    thread of the loader is alive by then, so a parse may fork. Last,
    :func:`_each_view` checks each view's row count and values, saves a
    miss's parse as its cache entry and normalizes the view in place, so a
    view refused for its ``dim``, rows or values leaves no entry. View CSVs
    are the only files the cache serves. The refusal raised is the first
    of: every view's read errors and ``dim`` mismatches, in view order; then
    each view's row count, values and normalization, in view order.
    """
    _check_mode(normalize)
    entries, split = read_manifest(path, known_classes)
    n = split["labels"].size
    found = _each_view(lambda i: _cache_lookup(entries[i][0]), len(entries))
    arrays = []   # d x n
    for i, ((csv, dim), (arr, _)) in enumerate(zip(entries, found)):
        if arr is None:
            arr = _parse_csv(csv, f"view {i}")
        if arr.shape[1] != dim:
            raise DatasetError(f"view {i}: file has {arr.shape[1]} feature "
                               f"columns, manifest declares {dim}")
        arrays.append(arr.T)

    def finish(i: int) -> ViewMatrix:
        data = _checked_view(arrays[i], i, n)
        hit, cache = found[i]
        if hit is None and cache:   # a miss: its parse, before it is normalized in place
            cache.store(data.T)
        return ViewMatrix(data=_normalize_view(data, data, normalize, i))
    views = _each_view(finish, len(entries))
    return MultiViewDataset(views=tuple(views), normalization=normalize, **split)


def _each_view(task: Callable[[int], object], count: int) -> list:
    """Call ``task(i)`` for every view i in range(count) and return the
    results by view. The calls run on up to one thread per view, at most
    ``_THREADS_PER_CPU`` per usable CPU, the calling thread being one of
    them; thread t takes views t, t + threads, ... in order. With one usable
    CPU or one view every call runs in the calling thread. Every thread has
    ended on return, and only then is the lowest view's exception raised,
    when a call raised one; the other calls have all run."""
    cpus = _usable_cpus()
    # on one CPU the threads would only take turns
    workers = max(1, min(count, _THREADS_PER_CPU * cpus if cpus > 1 else 1))
    results = [None] * count
    failed: dict[int, BaseException] = {}

    def work(first: int) -> None:
        for i in range(first, count, workers):
            try:
                results[i] = task(i)
            except BaseException as exc:  # raised below, in the calling thread
                failed[i] = exc

    threads = []
    try:
        for first in range(1, workers):
            threads.append(threading.Thread(target=work, args=(first,)))
            threads[-1].start()
        work(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if failed:
        raise failed[min(failed)]
    return results


def read_manifest(path: str | Path, known_classes: Sequence[int] | None = None
                  ) -> tuple[list[tuple[Path, int]], dict]:
    """The first half of :func:`load_dataset`: reads the manifest and the
    labels, no view CSV. Returns each view's CSV path with its declared
    dimension, and the class split: MultiViewDataset's other fields, by name."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.is_file():
        raise DatasetError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError("manifest must be a JSON object")
    for key in ("views", "labels", "num_classes"):
        if key not in manifest:
            raise DatasetError(f"manifest is missing the {key!r} field")
    views = manifest["views"]
    if not isinstance(views, list) or not all(isinstance(e, dict) for e in views):
        raise DatasetError("manifest field 'views' must be a list of objects")
    if not views:
        raise DatasetError("dataset needs at least one view")
    labels_name = _require(manifest, "labels", str, "manifest")
    num_classes = _require(manifest, "num_classes", int, "manifest")
    base = manifest_path.parent

    entries = []
    for i, entry in enumerate(views):
        if "path" not in entry or "dim" not in entry:
            raise DatasetError(f"view {i}: manifest entry needs 'path' and 'dim'")
        entries.append((base / _require(entry, "path", str, f"view {i}"),
                        _require(entry, "dim", int, f"view {i}")))
    labels = read_integers(base / labels_name, "labels")
    # a declared dim counts only up to the columns its file can hold: a row
    # of d values takes at least 2d - 1 bytes; no view is read here
    widest = max(min(dim, (csv.stat().st_size + 1) // 2 if csv.is_file() else 0)
                 for csv, dim in entries)
    return entries, _class_split(labels, num_classes, known_classes, widest,
                                 capped=widest < max(dim for _, dim in entries))


def _require(fields: dict, key: str, kind: type, what: str):
    """Return ``fields[key]`` if it is a ``kind`` (str or int, never bool)."""
    value = fields[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        noun = "a string" if kind is str else "an integer"
        raise DatasetError(f"{what}: field {key!r} must be {noun}, "
                           f"got {type(value).__name__}")
    return value


def read_integers(path: str | Path, what: str) -> np.ndarray:
    """The values of a file with one integer per line, as floats, so that a
    caller can range-check them before any integer cast. The file is parsed
    as a view CSV is, but never through the parse cache, so reading it
    writes nothing. Every refusal is a DatasetError whose message starts
    with ``what``."""
    raw = _parse_csv(Path(path), what)
    if raw.shape[1] != 1:
        raise DatasetError(f"{what}: must hold one integer per line")
    values = raw[:, 0]
    if not np.all(np.isfinite(values)):
        raise DatasetError(f"{what}: contains non-finite values")
    if not np.all(values == np.floor(values)):
        raise DatasetError(f"{what}: contains non-integer values")
    return values


def _cache_lookup(path: Path) -> tuple[np.ndarray | None, _ParseCache | None]:
    """The parse of ``path`` from its cache entry, None on a miss, and the
    file's cache, None when the file is too small to be cached or is not a
    file at all (its parse refuses it). Safe to call on any thread; the
    file is hashed at most once per cache."""
    stat = path.stat() if path.is_file() else None
    if stat is None or stat.st_size < 2 * _MIN_RANGE_BYTES:
        return None, None
    cache = _ParseCache(path, stat)
    return cache.lookup(), cache


def _loadtxt(source) -> np.ndarray:
    """Every CSV's parse rule; ``source`` is a path or a text file."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, delimiter=",", ndmin=2, dtype=float)


def _parse_csv(path: Path, what: str) -> np.ndarray:
    """Parse ``path`` under :func:`_loadtxt`'s rule; it reads the text every
    time, and the parse cache is the caller's. A path that is not a file is
    refused here as "<what>: file not found".

    A large file is parsed by forked children, one line-aligned byte range
    each; if that path does not apply or fails anywhere, the whole file is
    parsed in-process, so results and error messages are those of the
    serial parse either way. Call it only while no other thread of this
    program runs: a fork copies the calling thread alone.
    """
    if not path.is_file():
        raise DatasetError(f"{what}: file not found: {path}")
    arr = _parse_in_ranges(path)
    if arr is None:
        try:
            arr = _loadtxt(path)
        except ValueError as exc:
            raise DatasetError(f"{what}: could not parse {path}: {exc}") from exc
    if arr.shape[0] == 0:
        raise DatasetError(f"{what}: no data rows in {path}")
    return arr


class _ParseCache:
    """The cached parse of one CSV, its entry: ``<csv dir>/.mvncd_cache/<csv
    name>.npy``. The entry holds the parse as ``np.save`` writes it, then
    its key, the 32-byte SHA-256 of ``_PARSE_FORMAT``, numpy's version and
    the file's bytes, so an entry does not go stale while the parse rules
    stay those of its tag; ``np.load`` of an entry gives the parse. An
    entry is read only if it is owned by the CSV's owner or by the reading
    user and is writable by neither group nor others. Any OSError on the
    cache's side leaves the caller with its own parse."""

    def __init__(self, path: Path, stat: os.stat_result):
        self.path = path
        self.dir = path.parent / _CACHE_DIR
        self.entry = self.dir / f"{path.name}.npy"
        self.stat = stat
        self.digest: bytes | None = None

    def hash(self) -> None:
        """Set ``digest`` once; it stays None if the file cannot be read.
        The file is read into one 256 KiB buffer: a whole read or an mmap
        would count toward the peak RSS."""
        if self.digest is not None:
            return
        import hashlib  # 5.8 ms to import, which `import mvncd.cli` does not pay
        prefix = f"{_PARSE_FORMAT}; numpy {np.__version__}".encode()
        with contextlib.suppress(OSError), open(self.path, "rb", buffering=0) as f:
            self.digest = hashlib.file_digest(f, lambda: hashlib.sha256(prefix)).digest()

    def lookup(self) -> np.ndarray | None:
        """The cached parse, or None. The file is hashed only when it has a
        trusted entry. An entry that is absent, not trusted or unreadable,
        whose last 32 bytes are not the key, or whose header is not the
        ``.npy`` 1.0 header ``np.save`` writes for a 2-d C-order float64
        array with a row that ends where the key begins is a miss; it is
        checked before the array is allocated, so one that overstates the
        entry's size is a miss too."""
        try:
            with open(self.entry, "rb") as f:
                entry_stat = os.fstat(f.fileno())
                # an entry's values are not checked against the CSV, so
                # whoever can write the entry decides what is loaded
                if hasattr(os, "geteuid") and (
                        entry_stat.st_uid not in (self.stat.st_uid, os.geteuid())
                        or entry_stat.st_mode & 0o022):
                    return None
                f.seek(-32, os.SEEK_END)
                self.hash()
                if f.read() != self.digest:
                    return None
                f.seek(0)
                if np.lib.format.read_magic(f) != (1, 0):
                    return None
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
                if (len(shape) != 2 or fortran or dtype != np.float64 or shape[0] < 1
                        or f.tell() + shape[0] * shape[1] * 8 != entry_stat.st_size - 32):
                    return None
                arr = np.empty(shape)
                return arr if f.readinto(arr) == arr.nbytes else None
        except (OSError, ValueError, EOFError):
            return None

    def store(self, arr: np.ndarray) -> None:
        """Save ``arr``, the file's parse, and then its key as its entry in
        place of the one there, with mode 0644 to pass the trust check; no
        entry is saved on an OSError or when the file's size or mtime is no
        longer that of ``stat``, taken before it was parsed and hashed."""
        self.hash()
        with contextlib.suppress(OSError):
            now = self.path.stat()
            if self.digest is None or ((now.st_size, now.st_mtime_ns)
                                       != (self.stat.st_size, self.stat.st_mtime_ns)):
                return
            self.dir.mkdir(mode=0o755, exist_ok=True)
            _write_files([(self.entry, lambda f: (np.save(f, arr), f.write(self.digest)))],
                         0o644)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_in_ranges(path: Path) -> np.ndarray | None:
    """Parse ``path`` in one forked child per line-aligned byte range and
    assemble the rows in one array; None when the file is not split, or a
    child fails, yields no rows or disagrees on the column count."""
    size = path.stat().st_size
    parts = min(_usable_cpus(), size // _MIN_RANGE_BYTES)
    if parts < 2 or not hasattr(os, "fork"):
        return None
    cuts = {0, size}
    with open(path, "rb") as f:
        for i in range(1, parts):
            # from the byte before the nominal cut, so a cut that already
            # sits on a line start stays where it is
            f.seek(i * size // parts - 1)
            if f.readline(size // parts).endswith(b"\n"):
                cuts.add(f.tell())
    cuts = sorted(cuts)
    if len(cuts) < 3:
        return None
    children = []  # (pid, read end of its pipe as a file)
    try:
        for start, stop in zip(cuts, cuts[1:]):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Safe here: the child only parses its range and calls
                    # os._exit, and no thread of ours runs during a parse
                    # (see _parse_csv); the other threads are numpy's BLAS
                    # pool, which the child never calls. As an error, the
                    # warning would be raised after the child exists.
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _parse_range_child(path, start, stop, w,
                                   [r, *(pipe.fileno() for _, pipe in children)])
            try:
                os.close(w)
                pipe = open(r, "rb")
            except BaseException:
                # not on record yet, so the finally below would miss it
                os.close(r)
                os.waitpid(pid, 0)
                raise
            children.append((pid, pipe))
        # readinto stops short of a full buffer only at EOF: the child failed
        shapes = np.empty((len(children), 2), dtype=np.int64)
        for (_, pipe), shape in zip(children, shapes):
            if pipe.readinto(shape) != shape.nbytes:
                return None
        if np.any(shapes[:, 0] == 0) or np.any(shapes[:, 1] != shapes[0, 1]):
            return None
        out = np.empty((int(shapes[:, 0].sum()), int(shapes[0, 1])))
        ends = np.cumsum(shapes[:, 0])
        for (_, pipe), end, rows in zip(children, ends, shapes[:, 0]):
            part = out[end - rows:end]
            if pipe.readinto(part) != part.nbytes:
                return None
        return out
    except OSError:
        return None
    finally:
        # a read end is open only here, so closing it makes a child that is
        # still writing exit on EPIPE
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _parse_range_child(path: Path, start: int, stop: int, fd: int,
                       read_ends: list[int]) -> None:
    """In a forked child: parse bytes [start, stop) of ``path`` the way the
    serial path parses the whole file, send the shape and the float64 rows
    through ``fd`` and exit without returning to the caller. ``read_ends``
    are the inherited pipe ends to close."""
    status = 1
    try:
        for r in read_ends:
            os.close(r)
        warnings.simplefilter("ignore")  # a child reports by its exit status
        with open(path, "rb") as f:
            f.seek(start)
            text = io.TextIOWrapper(io.BytesIO(f.read(stop - start)))
        arr = _loadtxt(text)   # an empty range is reported by its shape
        with open(fd, "wb") as pipe:
            pipe.write(np.array(arr.shape, dtype=np.int64).tobytes())
            pipe.write(arr.data)
        status = 0
    finally:
        os._exit(status)


def write_dataset(ds: MultiViewDataset, directory: str | Path) -> Path:
    """Write manifest + CSVs for ``ds``; returns the manifest path.

    Uses %.17g so a write/load round trip reproduces matrices bit for bit.
    Every file is written before any replaces its namesake, the manifest
    last, so a write that fails leaves the old dataset as it was.
    """
    directory = Path(directory)
    views = [(directory / f"view_{i}.csv",
              lambda f, x=view.data: np.savetxt(f, x.T, fmt="%.17g", delimiter=","))
             for i, view in enumerate(ds.views)]
    manifest = {"views": [{"path": path.name, "dim": view.dim}
                          for (path, _), view in zip(views, ds.views)],
                "labels": "labels.csv", "num_classes": ds.num_classes}
    manifest_path = directory / MANIFEST_NAME
    _write_files([*views, (directory / "labels.csv", _integer_lines(ds.labels)),
                  (manifest_path, json.dumps(manifest, indent=2) + "\n")])
    return manifest_path


def _write_files(files: Sequence[tuple[Path, str | Callable[[BinaryIO], object]]],
                 mode: int = 0o666) -> None:
    """Write each content (a text, or a function that writes to a binary
    file) to a new hidden file of ``mode`` less the umask beside its path,
    then rename them over their paths in order; on any failure remove the
    hidden files not yet renamed. No path is replaced before every content
    is written. O_EXCL: a name that someone else put there is never written
    through."""
    pending: list[tuple[Path, Path]] = []
    try:
        for path, content in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
            pending.append((tmp, path))
            with open(fd, "wb") as f:
                content(f) if callable(content) else f.write(content.encode())
        while pending:
            os.replace(*pending[0])
            del pending[0]
    except BaseException:
        for tmp, _ in pending:
            tmp.unlink(missing_ok=True)
        raise


def _integer_lines(values: np.ndarray) -> str:
    """The text of a file with one integer per line, from a non-empty
    integer array: the bytes of ``np.savetxt(fmt="%d")``, formed in one
    join instead of a Python call per row."""
    return "\n".join(map(str, values.tolist())) + "\n"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic multi-view blob generator.

    Per view, each class is an isotropic Gaussian blob around a
    class-specific mean drawn independently per view with norm
    ``separation`` (uniform random direction), so ``separation`` sets the
    center distance scale regardless of the view dimension. ``noise`` is
    the blob standard deviation, scalar or one value per view.
    """

    views: int = 2
    classes: int = 4
    per_class: int = 30
    dims: int | Sequence[int] = 8
    separation: float = 6.0
    noise: float | Sequence[float] = 1.0
    seed: int = 0


def generate_synthetic(spec: SyntheticSpec) -> MultiViewDataset:
    """Sample a dataset from ``spec``; deterministic under spec.seed."""
    if spec.views < 1 or spec.classes < 2 or spec.per_class < 1:
        raise DatasetError("synthetic spec needs views >= 1, classes >= 2, per_class >= 1")
    if not (math.isfinite(spec.separation) and spec.separation >= 0):
        raise DatasetError(
            f"separation must be finite and >= 0, got {spec.separation}")
    if spec.seed < 0:
        raise DatasetError(f"seed must be >= 0, got {spec.seed}")
    per_view = []
    for name, value, kind in (("dims", spec.dims, int), ("noise", spec.noise, float)):
        arr = np.ravel(np.asarray(value, dtype=kind))
        if arr.size not in (1, spec.views):
            raise DatasetError(f"{name} needs one value or one per view "
                               f"({spec.views}), got {arr.size}")
        per_view.append(np.broadcast_to(arr, (spec.views,)))
    dims, noise = per_view
    if np.any(dims < 1):
        raise DatasetError(f"dims must be >= 1, got {dims.min()}")
    bad = noise[~(np.isfinite(noise) & (noise >= 0))]
    if bad.size:
        raise DatasetError(f"noise must be finite and >= 0, got {bad[0]}")

    rng = np.random.default_rng(spec.seed)
    labels = np.repeat(np.arange(spec.classes), spec.per_class)
    n = labels.size
    arrays = []
    for v in range(spec.views):
        d = int(dims[v])
        dirs = rng.standard_normal((spec.classes, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = spec.separation * dirs
        data = means[labels].T + noise[v] * rng.standard_normal((d, n))
        arrays.append(data)
    return make_dataset(arrays, labels, spec.classes)
