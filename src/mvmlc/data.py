"""Datasets with missing views and missing labels.

A dataset bundles per-view feature matrices, a binary label matrix and two
binary indicator matrices: the view indicator (sample i has view m) and
the label indicator (label j of sample i is known).  Missing entries are
zero-filled at construction time, and the losses additionally gate by the
indicators, so the two protections are independent.

On-disk format: a JSON manifest referencing headerless CSV matrices, one
sample per row.  Label and indicator entries must be exactly 0 or 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError

Array = np.ndarray


def _as_float_matrix(x) -> Array:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def _check_binary(arr: Array, what: str) -> None:
    bad = ~np.isin(arr, (0.0, 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"{what}: entry at row {i}, col {j} is {arr[i, j]!r}, expected 0 or 1")


@dataclass
class MultiViewDataset:
    """Per-view features plus labels and availability indicators.

    Invariants enforced at construction: all views share the sample count,
    the view indicator covers every sample with at least one view, rows of
    unavailable views are all zeros, and unknown labels are stored as 0.
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
        if self.view_indicator.shape != (n, len(self.views)):
            raise ValidationError(
                f"view indicator shape {self.view_indicator.shape} != ({n}, {len(self.views)})")
        if self.label_indicator.shape != self.labels.shape:
            raise ValidationError(
                f"label indicator shape {self.label_indicator.shape} != {self.labels.shape}")
        _check_binary(self.labels, "labels")
        _check_binary(self.view_indicator, "view indicator")
        _check_binary(self.label_indicator, "label indicator")
        uncovered = np.where(self.view_indicator.sum(axis=1) == 0)[0]
        if uncovered.size:
            raise ValidationError(f"sample {uncovered[0]} has no available view")
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
        rows = np.asarray(rows, dtype=int)
        return MultiViewDataset(
            views=[v[rows] for v in self.views],
            labels=self.labels[rows],
            view_indicator=self.view_indicator[rows],
            label_indicator=self.label_indicator[rows],
            name=self.name,
        )


@dataclass
class MaskBank:
    """Per-view binary input masks with one contiguous zero run per row.

    Each row of a mask carries a single zero run of length
    ``round(mask_ratio * d)`` starting at a per-row random offset, wrapping
    at the row end; all other entries are 1.  ``mask_ratio`` 0 yields
    all-ones masks.
    """

    masks: list[Array]
    mask_ratio: float
    seed: int

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
        return cls(masks=masks, mask_ratio=mask_ratio, seed=seed)

    def subset(self, rows: Array) -> "MaskBank":
        rows = np.asarray(rows, dtype=int)
        return MaskBank(masks=[m[rows] for m in self.masks],
                        mask_ratio=self.mask_ratio, seed=self.seed)


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
    """Compose extra missingness into a dataset (logical AND with existing
    indicators) and re-apply the zero-fill convention."""
    new_v = dataset.view_indicator
    if view_indicator is not None:
        view_indicator = _as_float_matrix(view_indicator)
        if view_indicator.shape != new_v.shape:
            raise ShapeError(f"view indicator shape {view_indicator.shape} != {new_v.shape}")
        new_v = new_v * view_indicator
    new_w = dataset.label_indicator
    if label_indicator is not None:
        label_indicator = _as_float_matrix(label_indicator)
        if label_indicator.shape != new_w.shape:
            raise ShapeError(f"label indicator shape {label_indicator.shape} != {new_w.shape}")
        new_w = new_w * label_indicator
    views = [v * new_v[:, m:m + 1] for m, v in enumerate(dataset.views)]
    labels = dataset.labels * new_w
    return MultiViewDataset(views=views, labels=labels, view_indicator=new_v,
                            label_indicator=new_w, name=dataset.name)


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
    if isinstance(dims, int):
        dims = (dims,) * n_views
    dims = tuple(int(d) for d in dims)
    if len(dims) != n_views:
        raise ConfigError(f"got {len(dims)} view dims for {n_views} views")
    if any(d < 1 for d in dims):
        raise ConfigError(f"view dims must be >= 1, got {dims}")
    if noise < 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")

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
            x = x + noise * rng.normal(size=x.shape)
        views.append(x)

    ones_v = np.ones((n_samples, n_views))
    ones_w = np.ones((n_samples, n_labels))
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


def write_matrix_csv(path: Path | str, matrix: Array, integer: bool = False) -> None:
    """Write a matrix as headerless CSV; floats use shortest round-trip repr."""
    matrix = np.asarray(matrix)
    with open(path, "w") as fh:
        for row in matrix:
            if integer:
                fh.write(",".join(str(int(x)) for x in row))
            else:
                fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def _read_matrix_csv(path: Path, what: str) -> Array:
    # OSError (missing/unreadable file) propagates untouched; only parse
    # failures are wrapped as validation errors
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{what} ({path}): {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} ({path}): non-finite entry")
    return arr


def save_dataset(dataset: MultiViewDataset, out_dir: Path | str) -> Path:
    """Write a dataset as CSV matrices plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"name": dataset.name or out.name, "views": [], "labels": "labels.csv"}
    for m, view in enumerate(dataset.views):
        fname = f"view_{m}.csv"
        write_matrix_csv(out / fname, view)
        manifest["views"].append(fname)
    write_matrix_csv(out / "labels.csv", dataset.labels, integer=True)
    if np.any(dataset.view_indicator == 0):
        write_matrix_csv(out / "view_indicator.csv", dataset.view_indicator, integer=True)
        manifest["view_indicator"] = "view_indicator.csv"
    if np.any(dataset.label_indicator == 0):
        write_matrix_csv(out / "label_indicator.csv", dataset.label_indicator, integer=True)
        manifest["label_indicator"] = "label_indicator.csv"
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_dataset(manifest_path: Path | str) -> MultiViewDataset:
    """Load a dataset from a JSON manifest.

    Relative file paths resolve against the manifest's directory.  The
    indicator files (all ones when omitted) are composed into the complete
    data by :func:`apply_indicators`, which zero-fills what they hide.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"manifest {manifest_path}: invalid JSON ({exc})") from None
    indicators = ("view_indicator", "label_indicator")
    files = manifest.get("views") if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and files and "labels" in manifest
            and all(isinstance(f, str) for f in
                    files + [manifest["labels"]] + [manifest.get(k, "") for k in indicators])):
        raise ValidationError(f"manifest {manifest_path}: needs 'views', a non-empty list of "
                              "file names, and 'labels' (and any indicator) as a file name")
    base = manifest_path.parent

    labels = _read_matrix_csv(base / manifest["labels"], "labels")
    n = labels.shape[0]
    views = []
    for m, rel in enumerate(files):
        view = _read_matrix_csv(base / rel, f"view {m}")
        if view.shape[0] != n:
            raise ValidationError(f"view file {rel} has {view.shape[0]} rows, labels have {n}")
        views.append(view)
    masks = [_read_matrix_csv(base / manifest[k], k.replace("_", " ")) if k in manifest else None
             for k in indicators]
    try:
        complete = MultiViewDataset(views=views, labels=labels,
                                    view_indicator=np.ones((n, len(views))),
                                    label_indicator=np.ones_like(labels),
                                    name=str(manifest.get("name", manifest_path.stem)))
        return apply_indicators(complete, *masks)
    except (ShapeError, ValidationError) as exc:
        raise ValidationError(f"manifest {manifest_path}: {exc}") from None
