"""Multi-view dataset handling: loading, validation, normalization, splits.

In memory every view keeps samples as columns (a view is d_v x n). On disk
the layout is the usual one-sample-per-row CSV; matrices are transposed on
load and again on write.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

MANIFEST_NAME = "manifest.json"
# A CSV is split into at most one byte range per usable CPU, each at least
# this long: forking a parser and reading its rows back costs as much as
# parsing 0.5-1 MB in-process (5-10 ms on a 2-vCPU host).
_MIN_RANGE_BYTES = 1 << 21


class DatasetError(ValueError):
    """Raised for malformed dataset files or inconsistent dataset contents."""


@dataclass(frozen=True)
class ViewMatrix:
    """One feature view of the sample set, features in rows."""

    data: np.ndarray
    view_index: int

    @property
    def dim(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_samples(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class MultiViewDataset:
    """Feature views over one shared sample axis plus the known/novel split.

    ``labels`` holds a class id for every sample. Labels of unlabeled
    (novel-class) samples are kept for evaluation only; the solver never
    reads them. ``labeled_indices`` are exactly the samples whose class is
    in ``known_classes``; the rest form ``unlabeled_indices``.
    ``normalization`` is the mode last applied to the views ("none" when
    nothing is known about them).
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
    if len(view_arrays) == 0:
        raise DatasetError("dataset needs at least one view")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise DatasetError("labels must be a non-empty 1-d array")
    n = labels.size
    arrays = []
    for i, arr in enumerate(view_arrays):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2:
            raise DatasetError(f"view {i}: expected a 2-d matrix, got ndim={arr.ndim}")
        if arr.shape[1] != n:
            raise DatasetError(
                f"view {i}: has {arr.shape[1]} samples, labels have {n}"
            )
        if not np.all(np.isfinite(arr)):
            raise DatasetError(f"view {i}: contains non-finite values")
        arrays.append(arr)
    k = int(num_classes)
    if k < 2:
        raise DatasetError(f"num_classes must be >= 2, got {k}")
    labels = _integer_labels(labels, k)

    # one mask over the class ids gives the known, novel and labeled sets
    # (np.unique, np.setdiff1d and np.isin would import numpy.ma)
    if known_classes is None:
        known_ids = split_known_novel(labels, k)[0]
    else:
        known_ids = np.asarray(known_classes, dtype=int).ravel()
        if known_ids.size == 0:
            raise DatasetError("known_classes must not be empty")
        if known_ids.min() < 0 or known_ids.max() >= k:
            raise DatasetError(f"known class ids must lie in [0, {k})")
    is_known_class = np.zeros(k, dtype=bool)
    is_known_class[known_ids] = True
    known = np.flatnonzero(is_known_class)
    novel = np.flatnonzero(~is_known_class)
    if novel.size == 0:
        raise DatasetError("at least one class must remain novel")

    is_known = is_known_class[labels]
    labeled = np.flatnonzero(is_known)
    unlabeled = np.flatnonzero(~is_known)
    views = tuple(ViewMatrix(data=a, view_index=i) for i, a in enumerate(arrays))
    return MultiViewDataset(
        views=views,
        labels=labels,
        num_classes=k,
        known_classes=known,
        novel_classes=novel,
        labeled_indices=labeled,
        unlabeled_indices=unlabeled,
    )


def _integer_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels`` as integers in [0, k), or a DatasetError. The range is
    checked before a float array is cast, so a value beyond the integer
    range is reported as itself and not as what the cast made of it."""
    is_int = np.issubdtype(labels.dtype, np.integer)
    if not is_int and not np.all(labels == np.floor(labels)):
        raise DatasetError("labels must be integers")
    lo, hi = labels.min(), labels.max()
    if lo < 0 or hi >= k:
        fmt = "d" if is_int else ".15g"
        raise DatasetError(f"labels must lie in [0, {k}), got range "
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
    if mode == "none" or mode == ds.normalization:
        return ds
    return _normalized(ds, mode, in_place=False)


def _check_mode(mode: str) -> None:
    if mode not in NORMALIZATIONS:
        raise DatasetError(f"unknown normalization mode: {mode!r}")


def _normalized(ds: MultiViewDataset, mode: str, in_place: bool) -> MultiViewDataset:
    """``ds`` with its views normalized under ``mode`` (zscore or l2), into
    new arrays or, with ``in_place``, into the views' own arrays. A new
    array is laid out as its source, so both ways make the same ufunc calls
    on the same layout and give the same bits."""
    views = []
    for view in ds.views:
        data = view.data
        out = data if in_place else np.empty_like(data)
        if mode == "zscore":
            mean = data.mean(axis=1, keepdims=True)
            std = data.std(axis=1, keepdims=True)
            np.subtract(data, mean, out=out)
            np.divide(out, np.where(std > 0, std, 1.0), out=out)
        else:
            norms = np.linalg.norm(data, axis=0, keepdims=True)
            np.divide(data, np.where(norms > 0, norms, 1.0), out=out)
        # a mean that overflows leaves infinities; min and max propagate
        # them and NaN without a data-sized mask
        if not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise DatasetError(f"view {view.view_index}: contains non-finite values")
        views.append(ViewMatrix(data=out, view_index=view.view_index))
    return replace(ds, views=tuple(views), normalization=mode)


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
    """
    _check_mode(normalize)
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
    _require(manifest, "labels", str, "manifest")
    num_classes = _require(manifest, "num_classes", int, "manifest")
    base = manifest_path.parent

    arrays = []
    for i, entry in enumerate(views):
        if "path" not in entry or "dim" not in entry:
            raise DatasetError(f"view {i}: manifest entry needs 'path' and 'dim'")
        view_path = base / _require(entry, "path", str, f"view {i}")
        dim = _require(entry, "dim", int, f"view {i}")
        arr = _read_csv_matrix(view_path, f"view {i}")
        if arr.shape[1] != dim:
            raise DatasetError(
                f"view {i}: file has {arr.shape[1]} feature columns, "
                f"manifest declares {dim}"
            )
        arrays.append(arr.T)

    labels = read_integers(base / manifest["labels"], "labels")
    ds = make_dataset(arrays, labels, num_classes, known_classes)
    return ds if normalize == "none" else _normalized(ds, normalize, in_place=True)


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
    caller can range-check them before any integer cast. Every refusal is a
    DatasetError whose message starts with ``what``."""
    path = Path(path)
    raw = _read_csv_matrix(path, what)
    if raw.shape[1] != 1:
        raise DatasetError(f"{what}: must hold one integer per line")
    values = raw[:, 0]
    if not np.all(np.isfinite(values)):
        raise DatasetError(f"{what}: contains non-finite values")
    if not np.all(values == np.floor(values)):
        raise DatasetError(f"{what}: contains non-integer values")
    return values


def _read_csv_matrix(path: Path, what: str) -> np.ndarray:
    """Parse a CSV as ``np.loadtxt(delimiter=",", ndmin=2, dtype=float)``.

    A large file is parsed by forked children, one line-aligned byte range
    each; if that path does not apply or fails anywhere, the whole file is
    parsed in-process, so results and error messages are those of the
    serial parse either way.
    """
    if not path.is_file():
        raise DatasetError(f"{what}: file not found: {path}")
    arr = _parse_in_ranges(path)
    if arr is None:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        except ValueError as exc:
            raise DatasetError(f"{what}: could not parse {path}: {exc}") from exc
    if arr.shape[0] == 0:
        raise DatasetError(f"{what}: no data rows in {path}")
    return arr


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
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _parse_range_child(path, start, stop, w,
                                   [r, *(pipe.fileno() for _, pipe in children)])
            os.close(w)
            children.append((pid, open(r, "rb")))
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
        warnings.simplefilter("ignore")  # an empty range is reported by shape
        with open(path, "rb") as f:
            f.seek(start)
            text = io.TextIOWrapper(io.BytesIO(f.read(stop - start)))
        arr = np.loadtxt(text, delimiter=",", ndmin=2, dtype=float)
        with open(fd, "wb") as pipe:
            pipe.write(np.array(arr.shape, dtype=np.int64).tobytes())
            pipe.write(arr.data)
        status = 0
    finally:
        os._exit(status)


def write_dataset(ds: MultiViewDataset, directory: str | Path) -> Path:
    """Write manifest + CSVs for ``ds``; returns the manifest path.

    Uses %.17g so a write/load round trip reproduces matrices bit for bit.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for view in ds.views:
        name = f"view_{view.view_index}.csv"
        np.savetxt(directory / name, view.data.T, fmt="%.17g", delimiter=",")
        entries.append({"path": name, "dim": view.dim})
    np.savetxt(directory / "labels.csv", ds.labels[:, None], fmt="%d")
    manifest = {
        "views": entries,
        "labels": "labels.csv",
        "num_classes": ds.num_classes,
    }
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


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
    if spec.separation < 0:
        raise DatasetError("separation must be >= 0")
    per_view = []
    for name, value, kind in (("dims", spec.dims, int), ("noise", spec.noise, float)):
        arr = np.ravel(np.asarray(value, dtype=kind))
        if arr.size not in (1, spec.views):
            raise DatasetError(f"{name} needs one value or one per view "
                               f"({spec.views}), got {arr.size}")
        per_view.append(np.broadcast_to(arr, (spec.views,)))
    dims, noise = per_view
    if np.any(dims < 1) or np.any(noise < 0):
        raise DatasetError("dims must be >= 1 and noise >= 0")

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
