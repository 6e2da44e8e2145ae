"""Datasets with missing views and missing labels.

A dataset bundles per-view feature matrices, a binary label matrix and two
binary indicator matrices: the view indicator (sample i has view m) and
the label indicator (label j of sample i is known).  A dataset refuses
nonzero data where an indicator is 0; :func:`load_dataset` and
:func:`apply_indicators` compose indicators in and zero-fill what they hide
through one method.  The losses additionally gate by the indicators, so
the two protections are independent.

On-disk format: a JSON manifest referencing matrix files, one sample per
row: numpy ``.npy`` files (what :func:`save_dataset` writes) or headerless
CSV.  Label and indicator entries must be exactly 0 or 1.
This module owns mvmlc's text formats too: the one reader of JSON inputs,
the indented JSON writer and the one CSV cell rule.
"""

from __future__ import annotations

import copy
import io
import json
import os
import tokenize
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError

Array = np.ndarray

# The largest view value a dataset takes.  The model has no normalization
# layer, so a first-layer weight's gradient grows as x^2 (the reconstruction
# error grows with x, and x multiplies it again) and Adam's second moment
# as x^4.  (1e60)^4 = 1e240 leaves a factor of ~1e68 below the largest
# double (1.8e308) for the row count, the widths, the initial weights and
# the loss weights; a single value of 1e80 already overflows at the first
# step at the default config.
VIEW_MAX = 1e60


def _as_float_matrix(x) -> Array:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def _within_view_max(x: Array) -> bool:
    """Whether every value of ``x`` is at most ``VIEW_MAX`` in magnitude; a
    NaN fails both comparisons.  Two reductions cost what one ``isfinite``
    pass does, where a mask of ``np.abs(x)`` takes two temporaries."""
    return bool(x.min(initial=np.inf) >= -VIEW_MAX and x.max(initial=-np.inf) <= VIEW_MAX)


def _check_shape(arr: Array, shape: tuple[int, int], what: str) -> None:
    if arr.shape != shape:
        raise ValidationError(f"{what} shape {arr.shape} != {shape}")


def _check_binary(arr: Array, what: str) -> None:
    bad = ~np.isin(arr, (0.0, 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"{what}: entry at row {i}, col {j} is {arr[i, j]}, expected 0 or 1")


def _check_covered(view_indicator: Array) -> None:
    uncovered = np.where(view_indicator.sum(axis=1) == 0)[0]
    if uncovered.size:
        raise ValidationError(f"sample {uncovered[0]} has no available view")


def _subset_rows(rows, n: int) -> Array:
    """``rows`` as an index array into ``n`` rows.  Only integers in
    [0, n) are taken: cast to integers, a boolean mask or float rows name
    other rows than meant, and numpy reads a negative row from the end."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise ValidationError(f"subset rows must be a non-empty 1-D integer index array, "
                              f"got {rows.dtype} of shape {rows.shape}")
    for row in (rows.min(), rows.max()):
        if not 0 <= row < n:
            raise ValidationError(f"subset row {row} is outside [0, {n})")
    return rows


@dataclass
class MultiViewDataset:
    """Per-view features plus labels and availability indicators.

    Invariants enforced at construction: there is at least one sample, all
    views share the sample count and hold only finite values of magnitude
    at most ``VIEW_MAX``, the view indicator covers every sample with at
    least one view, rows of unavailable views are all zeros, and unknown
    labels are stored as 0.
    """

    views: list[Array]
    labels: Array
    view_indicator: Array
    label_indicator: Array
    name: str = ""

    def __post_init__(self) -> None:
        self.views = [_as_float_matrix(v) for v in self.views]
        self.labels = _as_float_matrix(self.labels)
        self.view_indicator = _as_float_matrix(self.view_indicator)
        self.label_indicator = _as_float_matrix(self.label_indicator)
        if not self.views:
            raise ValidationError("dataset needs at least one view")
        n = self.labels.shape[0]
        for m, v in enumerate(self.views):
            if v.shape[0] != n:
                raise ValidationError(f"view {m} has {v.shape[0]} rows, labels have {n}")
        _check_shape(self.view_indicator, (n, len(self.views)), "view indicator")
        _check_shape(self.label_indicator, self.labels.shape, "label indicator")
        if n == 0:
            raise ValidationError("dataset needs at least one sample")
        _check_binary(self.view_indicator, "view indicator")
        _check_binary(self.label_indicator, "label indicator")
        _check_binary(self.labels, "labels")
        for m, v in enumerate(self.views):
            if not _within_view_max(v):
                i, j = np.argwhere(~(np.abs(v) <= VIEW_MAX))[0]
                expected = (f"a magnitude of at most {VIEW_MAX:g}" if np.isfinite(v[i, j])
                            else "a finite value")
                raise ValidationError(f"view {m}: entry at row {i}, col {j} is {v[i, j]}, "
                                      f"expected {expected}")
        _check_covered(self.view_indicator)
        for m, v in enumerate(self.views):
            missing = self.view_indicator[:, m] == 0
            if missing.any() and np.any(v[missing] != 0):
                raise ValidationError(f"view {m} has nonzero data in rows marked missing")
        if np.any(self.labels[self.label_indicator == 0] != 0):
            raise ValidationError("labels matrix has nonzero entries where the label is unknown")

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    @property
    def view_dims(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.views)

    def subset(self, rows: Array) -> "MultiViewDataset":
        """The dataset of the given rows, not validated again: every check
        of ``__post_init__`` holds row by row, so rows of a valid dataset
        pass it."""
        rows = _subset_rows(rows, self.n_samples)
        part = copy.copy(self)
        part.views = [v[rows] for v in self.views]
        part.labels = self.labels[rows]
        part.view_indicator = self.view_indicator[rows]
        part.label_indicator = self.label_indicator[rows]
        return part

    def _hide(self, view_indicator: Array | None,
              label_indicator: Array | None) -> "MultiViewDataset":
        """AND extra indicators (``None``: none) into the dataset's own and
        zero-fill what they hide, in place; returns the dataset.  Only the
        composed indicators are checked, as ``__post_init__`` checks them:
        a 0/1 product changes nothing else its checks see."""
        names = ("view indicator", "label indicator")
        composed = []
        for extra, own, what in zip((view_indicator, label_indicator),
                                    (self.view_indicator, self.label_indicator), names):
            if extra is not None:
                extra = _as_float_matrix(extra)
                _check_shape(extra, own.shape, what)
                extra = own * extra
            composed.append(extra)
        for indicator, what in zip(composed, names):
            if indicator is not None:
                _check_binary(indicator, what)
        new_v, new_w = composed
        if new_v is not None:
            _check_covered(new_v)
            for m, v in enumerate(self.views):
                v *= new_v[:, m:m + 1]
            self.view_indicator = new_v
        if new_w is not None:
            self.labels *= new_w
            self.label_indicator = new_w
        return self


@dataclass
class MaskBank:
    """Per-view binary input masks with one contiguous zero run per row.

    Each row of a mask from :meth:`generate` carries a single zero run of
    length ``round(mask_ratio * d)`` starting at a per-row random offset,
    wrapping at the row end; all other entries are 1.  ``mask_ratio`` 0
    yields all-ones masks.
    """

    masks: list[Array]

    @classmethod
    def generate(cls, n_samples: int, view_dims: tuple[int, ...], mask_ratio: float, seed: int) -> "MaskBank":
        if not 0.0 <= mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1), got {mask_ratio}")
        rng = np.random.default_rng(seed)
        masks = []
        for d in view_dims:
            mask = np.ones((n_samples, d))
            span = int(round(mask_ratio * d))
            if span > 0:
                starts = rng.integers(0, d, size=n_samples)
                cols = (starts[:, None] + np.arange(span)[None, :]) % d
                mask[np.arange(n_samples)[:, None], cols] = 0.0
            masks.append(mask)
        return cls(masks=masks)

    def subset(self, rows: Array) -> "MaskBank":
        rows = _subset_rows(rows, min(map(len, self.masks), default=0))
        return MaskBank(masks=[m[rows] for m in self.masks])


def apply_input_mask(dataset: MultiViewDataset, bank: MaskBank) -> list[Array]:
    """Elementwise product of each view with its mask."""
    if len(bank.masks) != dataset.n_views:
        raise ShapeError(f"mask bank has {len(bank.masks)} masks for {dataset.n_views} views")
    out = []
    for m, (view, mask) in enumerate(zip(dataset.views, bank.masks)):
        if mask.shape != view.shape:
            raise ShapeError(f"view {m}: mask shape {mask.shape} != view shape {view.shape}")
        out.append(view * mask)
    return out


def generate_indicators(
    n_samples: int,
    n_views: int,
    n_labels: int,
    view_missing_ratio: float,
    label_missing_ratio: float,
    seed: int,
) -> tuple[Array, Array]:
    """Draw view/label availability indicators at the requested missing rates.

    Exactly ``round(ratio * cells)`` entries are zeroed in each indicator.
    For the view indicator one randomly chosen view per sample is reserved
    as observed, so no sample ever loses all of its views; zeros are placed
    uniformly among the remaining cells.  Label removal is independent of
    the label values.  Deterministic per seed.
    """
    for name, ratio in (("view_missing_ratio", view_missing_ratio),
                        ("label_missing_ratio", label_missing_ratio)):
        if not 0.0 <= ratio < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {ratio}")
    if n_views < 1 or n_samples < 1 or n_labels < 1:
        raise ConfigError("n_samples, n_views and n_labels must all be >= 1")
    rng = np.random.default_rng(seed)

    view_zeros = int(round(view_missing_ratio * n_samples * n_views))
    if view_zeros > n_samples * (n_views - 1):
        raise ConfigError(
            f"view_missing_ratio {view_missing_ratio} would leave some sample with no view "
            f"({view_zeros} zeros > {n_samples * (n_views - 1)} removable cells)")
    view_indicator = np.ones((n_samples, n_views))
    reserved = rng.integers(0, n_views, size=n_samples)
    removable = np.argwhere(np.arange(n_views)[None, :] != reserved[:, None])
    picked = rng.choice(removable.shape[0], size=view_zeros, replace=False)
    rows, cols = removable[picked].T
    view_indicator[rows, cols] = 0.0

    label_zeros = int(round(label_missing_ratio * n_samples * n_labels))
    label_indicator = np.ones((n_samples, n_labels))
    flat = rng.choice(n_samples * n_labels, size=label_zeros, replace=False)
    label_indicator.ravel()[flat] = 0.0

    return view_indicator, label_indicator


def apply_indicators(
    dataset: MultiViewDataset,
    view_indicator: Array | None = None,
    label_indicator: Array | None = None,
) -> MultiViewDataset:
    """A copy of ``dataset`` with extra missingness ANDed into its indicators
    and zero-filled, checking only the composed indicators; ``dataset`` is
    left unchanged."""
    out = copy.copy(dataset)
    out.views = [v.copy() for v in dataset.views]
    out.labels = dataset.labels.copy()
    return out._hide(view_indicator, label_indicator)


def synth_dataset(
    n_samples: int,
    n_views: int,
    n_labels: int,
    dims: tuple[int, ...] | int,
    noise: float = 0.0,
    seed: int = 0,
) -> MultiViewDataset:
    """Generate a linearly-solvable multi-view multi-label dataset.

    Each label owns a random prototype in a latent space; a sample
    activates 1-3 labels and its latent vector is the sum of the active
    prototypes.  Every view is a fixed random linear map of the latent
    plus Gaussian noise, so with ``noise=0`` the labels are exactly
    recoverable by a linear probe on the concatenated views.
    """
    if n_samples < 1 or n_views < 1 or n_labels < 1:
        raise ConfigError("n_samples, n_views and n_labels must all be >= 1")
    sizes = f"n_samples {n_samples}, n_views {n_views}, n_labels {n_labels} and dims {dims}"
    dims = dims if isinstance(dims, int) else tuple(int(d) for d in dims)
    try:  # numpy refuses a size of 2**63 or more before it asks for memory
        if isinstance(dims, int):
            dims = (dims,) * n_views
        if len(dims) != n_views:
            raise ConfigError(f"got {len(dims)} view dims for {n_views} views")
        if any(d < 1 for d in dims):
            raise ConfigError(f"view dims must be >= 1, got {dims}")
        if not (np.isfinite(noise) and noise >= 0):
            raise ConfigError(f"noise must be finite and >= 0, got {noise}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")

        rng = np.random.default_rng(seed)
        latent_dim = n_labels + 2
        prototypes = rng.normal(size=(n_labels, latent_dim))

        labels = np.zeros((n_samples, n_labels))
        counts = rng.integers(1, min(3, n_labels) + 1, size=n_samples)
        for i in range(n_samples):
            active = rng.choice(n_labels, size=counts[i], replace=False)
            labels[i, active] = 1.0

        latent = labels @ prototypes
        views = []
        for d in dims:
            projection = rng.normal(size=(latent_dim, d)) / np.sqrt(latent_dim)
            x = latent @ projection
            if noise > 0:
                with np.errstate(over="ignore"):
                    x = x + noise * rng.normal(size=x.shape)
                if not _within_view_max(x):
                    raise ConfigError(f"noise must keep the view values finite and at most "
                                      f"{VIEW_MAX:g} in magnitude, got {noise}")
            views.append(x)
        ones_v, ones_w = np.ones((n_samples, n_views)), np.ones((n_samples, n_labels))
    except ConfigError:
        raise
    except (MemoryError, OverflowError, ValueError):
        raise ConfigError(f"{sizes} need more values than memory holds") from None
    return MultiViewDataset(views=views, labels=labels, view_indicator=ones_v,
                            label_indicator=ones_w, name=f"synth-{seed}")


def split(dataset: MultiViewDataset, train_fraction: float, seed: int) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Disjoint train/test row partition, deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = dataset.n_samples
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ConfigError(f"train_fraction {train_fraction} yields an empty split for {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    train_rows = np.sort(perm[:n_train])
    test_rows = np.sort(perm[n_train:])
    return dataset.subset(train_rows), dataset.subset(test_rows)


def read_json_object(path: Path | str, what: str) -> dict:
    """The JSON object in ``path``; anything else is a ValidationError naming ``what``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # JSONDecodeError, UnicodeDecodeError and an integer past Python's digit
    # limit are ValueErrors; deep nesting is a RecursionError.
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} {path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path}: not a JSON object")
    return doc


def write_json(path: Path | str, doc: dict) -> None:
    """Write ``doc`` as JSON indented by 2, keys sorted, with a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def csv_text(rows) -> str:
    """CSV lines of ``rows``, each ending in a newline: ``None`` is an empty cell, any
    other value ``str(value)``, for a Python or numpy float its shortest round-trip repr."""
    return "".join([",".join(["" if x is None else str(x) for x in row]) + "\n" for row in rows])


def write_matrix_csv(path: Path | str, matrix: Array) -> None:
    """Write a matrix as headerless CSV of its float64 values."""
    Path(path).write_text(csv_text(np.asarray(matrix, dtype=np.float64).tolist()))


def _read_matrix_csv(path: Path) -> Array:
    """The matrix in the CSV file ``path``; a parse failure is a
    ValueError, and OSError propagates.  A file without a data line is
    refused here, before numpy warns about it."""
    with open(path) as fh:
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise ValueError("file holds no data")
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


# The most a .npy header can take under numpy's default reader limit: the
# magic string, a 4-byte length and 10000 characters.
_NPY_HEADER_MAX = 8 + 4 + 10000


def _read_matrix_npy(path: Path) -> Array:
    """The 2-D real matrix in the ``.npy`` file ``path``, as float64.  The
    header is parsed from at most ``_NPY_HEADER_MAX`` bytes, and its dtype,
    shape and data size are checked against the file before any array is
    allocated; each refusal is a ValueError.  OSError propagates."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        head = io.BytesIO(fh.read(_NPY_HEADER_MAX))
        version = fmt.read_magic(head)
        read_header = {(1, 0): fmt.read_array_header_1_0,
                       (2, 0): fmt.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ValueError(f"unsupported .npy format version {version}")
        try:
            shape, fortran_order, dtype = read_header(head)
        except (SyntaxError, TypeError, ValueError, tokenize.TokenError) as exc:
            if str(exc).startswith("EOF"):  # a short read, which numpy's text names
                raise
            # numpy's parse text can quote the whole header or a memory address
            raise ValueError(f"cannot parse the array header ({type(exc).__name__})") from None
        if dtype.kind not in "biuf":
            raise ValueError(f"holds {dtype} values, expected bool, integer or float")
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"holds an array of shape {shape}, expected a 2-D matrix")
        if 0 in shape:
            raise ValueError("file holds no data")
        size = shape[0] * shape[1] * dtype.itemsize
        held = os.fstat(fh.fileno()).st_size - head.tell()
        if held != size:
            raise ValueError(f"the header declares {shape[0]} x {shape[1]} {dtype} values "
                             f"({size} bytes), the file holds {held} bytes of data")
        fh.seek(head.tell())
        arr = np.fromfile(fh, dtype=dtype, count=shape[0] * shape[1])
    return arr.reshape(shape, order="F" if fortran_order else "C").astype(np.float64, copy=False)


def _read_matrix(manifest_path: Path, rel: str, what: str) -> Array:
    """The matrix the manifest names ``rel``: a ``.npy`` file by that suffix,
    CSV otherwise."""
    path = manifest_path.parent / rel
    try:
        return (_read_matrix_npy if rel.endswith(".npy") else _read_matrix_csv)(path)
    except ValueError as exc:
        raise ValidationError(f"manifest {manifest_path}: {what} file {rel}: {exc}") from None


def save_dataset(dataset: MultiViewDataset, out_dir: Path | str) -> Path:
    """Write a dataset as ``.npy`` matrices of its float64 values plus a
    manifest; returns the manifest path.  Indicator files are written only
    when some entry is 0."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrices = {f"view_{m}.npy": view for m, view in enumerate(dataset.views)}
    manifest: dict = {"name": dataset.name or out.name, "views": list(matrices),
                      "labels": "labels.npy"}
    matrices["labels.npy"] = dataset.labels
    for key in ("view_indicator", "label_indicator"):
        indicator = getattr(dataset, key)
        if np.any(indicator == 0):
            manifest[key] = f"{key}.npy"
            matrices[manifest[key]] = indicator
    for name, matrix in matrices.items():
        np.save(out / name, matrix)
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def load_dataset(manifest_path: Path | str) -> MultiViewDataset:
    """Load a dataset from a JSON manifest.

    Relative file paths resolve against the manifest's directory; a name
    ending in ``.npy`` is read as a numpy array file, any other as CSV.  One
    :class:`MultiViewDataset` is built and checked from the arrays read
    under all-ones indicators, so a bad value an indicator file hides is
    still refused; the indicator files are then applied to it in place, as
    :func:`apply_indicators` applies indicators to its copy.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, "manifest")
    indicators = ("view_indicator", "label_indicator")
    files = manifest.get("views")
    if not (isinstance(files, list) and files and "labels" in manifest
            and all(isinstance(f, str) for f in
                    files + [manifest["labels"]] + [manifest.get(k, "") for k in indicators])):
        raise ValidationError(f"manifest {manifest_path}: needs 'views', a non-empty list of "
                              "file names, and 'labels' (and any indicator) as a file name")
    labels = _read_matrix(manifest_path, manifest["labels"], "labels")
    n = labels.shape[0]
    views = []
    for m, rel in enumerate(files):
        view = _read_matrix(manifest_path, rel, f"view {m}")
        if view.shape[0] != n:
            raise ValidationError(f"manifest {manifest_path}: view {m} file {rel}: "
                                  f"has {view.shape[0]} rows, labels have {n}")
        views.append(view)
    masks = [_read_matrix(manifest_path, manifest[k], k.replace("_", " ")) if k in manifest
             else None for k in indicators]
    try:
        return MultiViewDataset(views=views, labels=labels,
                                view_indicator=np.ones((n, len(views))),
                                label_indicator=np.ones_like(labels),
                                name=str(manifest.get("name", manifest_path.stem)))._hide(*masks)
    except ValidationError as exc:
        raise ValidationError(f"manifest {manifest_path}: {exc}") from None
