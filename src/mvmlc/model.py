"""The two-channel network: per-view shared/private encoders, decoders,
shared projection heads, availability-weighted fusion and the linear
sigmoid classifier.

Architecture choices: every encoder, decoder and projection head is a
two-layer MLP with a ReLU hidden layer, recorded on the tape as one
:func:`mvmlc.numerics.mlp` primitive; the instance head and the label
head are single shared copies applied to every view's shared features.
The classifier bias is one row broadcast across samples so the model
generalizes to unseen data.  No normalization or dropout layers, which
keeps finite-difference gradient audits exact.

Each view's stack runs only on the rows where that view is observed.  A
missing view's zero-filled row would yield features that nothing reads:
fusion, the reconstruction gate and the contrastive gates all drop them,
so their adjoints are exactly zero.  Per-view outputs therefore stay
compact.  :func:`forward_all` turns the view indicator into row sets once
(:func:`observed_rows`); nothing below it reads the indicator.  Rows return
to all N samples only through :func:`mvmlc.numerics.scatter_rows`, in
:func:`fuse` and where the training losses take their N-row inputs.  At
inference the decoders and projection heads, which feed only those losses,
do not run, and the encoders and the head run in blocks of ``INFER_ROWS``
samples, so each layer's temporaries span one block rather than all N
rows; only the scores are kept.
"""

from __future__ import annotations

import base64
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .data import MaskBank, MultiViewDataset, apply_input_mask, read_json_object
from .errors import ConfigError, ContractError, ValidationError, shown, writable
from .numerics import Matrix

Array = np.ndarray

# Samples per block of the inference forward, so that a block's encoder
# temporaries (rows x hidden_dim) stay in cache.  On 10000 rows of three
# 32-wide views, blocks of 1024 ran the forward ~1.4x faster than one pass
# (2 vCPUs, BLAS on 1 thread); 256, 512 and 2048 were no faster.
INFER_ROWS = 1024


def parameter_layout(view_dims: tuple[int, ...], n_labels: int, embed_dim: int,
                     hidden_dim: int) -> list[tuple[str, tuple[int, int]]]:
    """Name and shape of every learnable matrix, in canonical order.

    This is the order of :meth:`ModelParams.named_parameters`, of the
    matrices' slices of :attr:`ModelParams.vector` and of the draws of
    :meth:`ModelParams.initialize`.
    """
    nets = [(f"shared_encoder.{m}", d, embed_dim) for m, d in enumerate(view_dims)]
    nets += [(f"private_encoder.{m}", d, embed_dim) for m, d in enumerate(view_dims)]
    nets += [(f"decoder.{m}", embed_dim, d) for m, d in enumerate(view_dims)]
    nets += [("instance_head", embed_dim, embed_dim), ("label_head", embed_dim, n_labels)]
    layout = []
    for prefix, n_in, n_out in nets:
        layout += [(f"{prefix}.hidden.weight", (n_in, hidden_dim)),
                   (f"{prefix}.hidden.bias", (1, hidden_dim)),
                   (f"{prefix}.out.weight", (hidden_dim, n_out)),
                   (f"{prefix}.out.bias", (1, n_out))]
    return layout + [("classifier.weight", (embed_dim, n_labels)),
                     ("classifier.bias", (1, n_labels))]


@dataclass(eq=False)
class ModelParams:
    """All learnable matrices, in a fixed canonical order.

    The network reads them by their :func:`parameter_layout` names:
    ``params.mlp("shared_encoder.0", x)`` applies a two-layer perceptron,
    and ``params["classifier.weight"]`` is one matrix.

    Every value lives in the one contiguous float64 ``vector``: each
    matrix's ``value`` is a row-major view of its own slice, the slices
    following :func:`parameter_layout`.  Gradients and Adam moments are
    vectors of the same layout, so the optimizer, the finite checks and
    checkpoints each work on whole vectors, and :meth:`name_at` names the
    parameter behind a flat index a check refuses.  The names, matrices and
    slices are those :meth:`allocate` built from the layout; no other code
    lists them.
    """

    view_dims: tuple[int, ...]
    n_labels: int
    embed_dim: int
    hidden_dim: int
    vector: Array = field(repr=False)  # every value, in layout order
    _matrices: dict[str, Matrix] = field(repr=False)  # by name, in order
    _slices: dict[str, slice] = field(repr=False)  # of vector, by name

    @classmethod
    def allocate(cls, view_dims: tuple[int, ...], n_labels: int, embed_dim: int,
                 hidden_dim: int) -> "ModelParams":
        """Parameters of this architecture over one new, uninitialized vector.

        A vector too large to allocate is a :class:`ConfigError` that
        names the widths and the parameter count; numpy refuses a size of
        2**63 or more with a ValueError before it asks for memory.
        """
        layout = parameter_layout(view_dims, n_labels, embed_dim, hidden_dim)
        size = sum(rows * cols for _, (rows, cols) in layout)
        try:
            vector = np.empty(size)
        except (MemoryError, ValueError):
            raise ConfigError(
                f"view_dims {list(view_dims)}, embed_dim {embed_dim} and hidden_dim "
                f"{hidden_dim} need {size} parameters, more than memory holds") from None
        mats, slices, start = {}, {}, 0
        for name, (rows, cols) in layout:
            slices[name] = slice(start, start + rows * cols)
            mats[name] = Matrix(vector[slices[name]].reshape(rows, cols))
            start += rows * cols
        return cls(tuple(view_dims), n_labels, embed_dim, hidden_dim, vector, mats, slices)

    @classmethod
    def initialize(
        cls,
        rng: np.random.Generator,
        view_dims: tuple[int, ...],
        n_labels: int,
        embed_dim: int,
        hidden_dim: int,
    ) -> "ModelParams":
        """Each layer's weight and bias uniform on +-1/sqrt(fan-in).

        One draw fills the whole vector, in canonical order, and each layer
        then scales and shifts its slices: bitwise what one
        ``rng.uniform(-bound, bound, shape)`` per matrix in that order
        gives, from the same generator state.
        """
        params = cls.allocate(view_dims, n_labels, embed_dim, hidden_dim)
        rng.random(out=params.vector)
        mats = params.parameters()
        for weight, bias in zip(mats[::2], mats[1::2]):
            bound = 1.0 / np.sqrt(weight.rows)
            for p in (weight, bias):
                p.value *= 2.0 * bound
                p.value -= bound
        return params

    def __getitem__(self, name: str) -> Matrix:
        return self._matrices[name]

    def mlp(self, prefix: str, x: Matrix) -> Matrix:
        """The two-layer perceptron named ``prefix`` in the layout, applied to ``x``."""
        return nm.mlp(x, *(self._matrices[f"{prefix}.{layer}"] for layer in
                           ("hidden.weight", "hidden.bias", "out.weight", "out.bias")))

    def named_parameters(self) -> list[tuple[str, Matrix]]:
        return list(self._matrices.items())

    def parameters(self) -> list[Matrix]:
        return list(self._matrices.values())

    def named_slices(self) -> list[tuple[str, slice]]:
        """Each parameter's name and its slice of :attr:`vector`."""
        return list(self._slices.items())

    def name_at(self, index: int) -> str:
        """The parameter whose slice of :attr:`vector`, and of every vector of
        its layout, holds flat ``index``: searched only once a check has failed."""
        return next(name for name, part in self._slices.items() if index < part.stop)


@dataclass
class ForwardCache:
    """The activations of one forward pass.

    The loss inputs ``masked_views``, ``recon``, ``instance_feats`` and
    ``label_probs`` span all N rows, the last three zero where the view is
    missing.  A forward without training keeps only ``scores``: the other
    fields are empty lists.
    """

    masked_views: list[Matrix]    # encoder inputs before row compaction, N x d_m
    recon: list[Matrix]           # decoder outputs, N x d_m
    instance_feats: list[Matrix]  # instance head outputs, N x embed
    label_probs: list[Matrix]     # label head outputs through sigmoid, N x C
    scores: Matrix                # classifier probabilities, N x C


def check_fits(held: ModelParams | MultiViewDataset, dataset: MultiViewDataset, what: str) -> None:
    """Refuse ``dataset`` unless ``held`` (parameters, or another dataset) has its view
    widths, so its view count, and its label count: an absent view is no missing view."""
    if (held.view_dims, held.n_labels) != (dataset.view_dims, dataset.n_labels):
        raise ContractError(f"{what} views {held.view_dims} with {held.n_labels} "
                            f"labels; dataset has {dataset.view_dims} and {dataset.n_labels}")


def observed_rows(view_indicator: Array) -> list[Array]:
    """Per view, the ascending indices of the samples where it is observed:
    the one reading of the view indicator, made once per forward."""
    return [np.flatnonzero(view_indicator[:, m]) for m in range(view_indicator.shape[1])]


def encode(params: ModelParams, masked_views: list[Matrix]) -> tuple[list[Matrix], list[Matrix]]:
    shared = [params.mlp(f"shared_encoder.{m}", x) for m, x in enumerate(masked_views)]
    private = [params.mlp(f"private_encoder.{m}", x) for m, x in enumerate(masked_views)]
    return shared, private


def decode(params: ModelParams, private: list[Matrix]) -> list[Matrix]:
    return [params.mlp(f"decoder.{m}", p) for m, p in enumerate(private)]


def project_instances(params: ModelParams, shared: list[Matrix]) -> list[Matrix]:
    return [params.mlp("instance_head", s) for s in shared]


def project_labels(params: ModelParams, shared: list[Matrix]) -> list[Matrix]:
    return [nm.sigmoid(params.mlp("label_head", s)) for s in shared]


def fuse(shared: list[Matrix], private: list[Matrix], rows: list[Array], n: int) -> tuple[Matrix, Matrix]:
    """Average the available views of each of ``n`` samples.

    Entry m of ``shared`` and ``private`` holds view m's features on the
    samples ``rows[m]`` only (see :func:`observed_rows`); each mean is one
    :func:`~mvmlc.numerics.scatter_rows` over all views, scaled by one
    over the number of row sets that hold the sample.
    """
    counts = np.bincount(np.concatenate(rows), minlength=n)[:, None]
    if np.any(counts == 0):
        raise ContractError("fuse: a sample has no available view")
    inv_counts = 1.0 / counts
    return (nm.scatter_rows(shared, rows, n, inv_counts),
            nm.scatter_rows(private, rows, n, inv_counts))


def interact(fused_shared: Matrix, fused_private: Matrix) -> Matrix:
    return nm.sigmoid_mul(fused_private, fused_shared)


def classify(params: ModelParams, blended: Matrix) -> Matrix:
    return nm.affine_sigmoid(blended, params["classifier.weight"], params["classifier.bias"])


def _head(params: ModelParams, shared: list[Matrix], private: list[Matrix],
          rows: list[Array], n: int) -> Matrix:
    """Fusion, channel interaction and the classifier: the scores of ``n``
    samples, from each view's features on its rows ``rows[m]``."""
    return classify(params, interact(*fuse(shared, private, rows, n)))


def _infer(params: ModelParams, views: list[Array], rows: list[Array], n: int) -> Matrix:
    """The n x C scores, computed in blocks of ``INFER_ROWS`` samples.

    Each block takes every view's observed rows in it, the run of ``rows[m]``
    that ``searchsorted`` finds, runs the encoders on them and the head on
    them shifted to the block's start, and writes its scores to its rows of
    the output; nothing else is kept.  Every row's scores are the ones a
    single pass computes, except where a block holds one observed row of a
    view: numpy computes a one-row product as a matrix-vector product,
    whose last bit can differ.
    """
    scores = np.empty((n, params.n_labels))
    for start in range(0, n, INFER_ROWS):
        stop = min(start + INFER_ROWS, n)
        block = [r[slice(*np.searchsorted(r, (start, stop)))] for r in rows]
        feats = encode(params, [Matrix(x[b]) for x, b in zip(views, block)])
        scores[start:stop] = _head(params, *feats, [b - start for b in block], stop - start).value
    return Matrix(scores)


def forward_all(
    params: ModelParams,
    dataset: MultiViewDataset,
    bank: MaskBank | None = None,
    training: bool = False,
) -> ForwardCache:
    """Run the network, each view's stack on its observed rows only.

    A dataset :func:`check_fits` refuses is refused first; the view
    indicator becomes row sets here (:func:`observed_rows`).  Input masking
    applies only when training, and the training forward is one pass over
    all N rows, recorded on the active tape.  Without training only the
    encoders, fusion and classifier run, in blocks of ``INFER_ROWS`` samples
    (see :func:`_infer`), and only the scores are kept: the decoders and
    heads feed only the training losses, and a block's temporaries stay in
    cache where all N rows' would not.  No loss check follows that forward,
    so there an overflow is a :class:`ContractError`.
    """
    check_fits(params, dataset, "the parameters take")
    n = dataset.n_samples
    rows = observed_rows(dataset.view_indicator)
    if not training:
        with nm.refuse_overflow("forward"):
            scores = _infer(params, dataset.views, rows, n)
        return ForwardCache(masked_views=[], recon=[], instance_feats=[], label_probs=[],
                            scores=scores)
    views = dataset.views if bank is None else apply_input_mask(dataset, bank)
    masked = [Matrix(x) for x in views]
    shared, private = encode(params, [Matrix(x.value[r]) for x, r in zip(masked, rows)])

    def lift(feats: list[Matrix]) -> list[Matrix]:
        return [nm.scatter_rows([f], [r], n) for f, r in zip(feats, rows)]

    recon = lift(decode(params, private))
    instance_feats = lift(project_instances(params, shared))
    label_probs = lift(project_labels(params, shared))
    return ForwardCache(
        masked_views=masked,
        recon=recon,
        instance_feats=instance_feats,
        label_probs=label_probs,
        scores=_head(params, shared, private, rows, n),
    )


CHECKPOINT_VERSION = 2


def save_checkpoint(
    path: Path | str,
    params: ModelParams,
    *,
    seed: int,
    epoch: int,
    config: dict | None = None,
) -> None:
    """Serialize the architecture, ``seed``, ``epoch`` and ``config`` as
    JSON, with the parameter vector as one ``"vector"`` string: the base64
    of its little-endian float64 bytes.  Every bit is kept, so identical
    parameters give byte-identical files, and so does a load then a save.

    An integral ``seed`` or ``epoch`` (``np.int64`` too) is stored as a plain
    int; a bool or non-integer one, or a ``config`` that is not a dict or
    that json cannot write, is a :class:`ContractError` naming the field.
    The document is serialized before ``path`` is opened, so a refused one
    leaves the old file.
    """
    for name, value in (("seed", seed), ("epoch", epoch)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ContractError(f"save_checkpoint: {name} must be an integer, got {shown(value)}")
        if not writable(value):
            raise ContractError(f"save_checkpoint: {name} must be an integer JSON can write, "
                                f"got {shown(value)}")
    if config is not None and not isinstance(config, dict):
        raise ContractError(f"save_checkpoint: config must be a dict, got {config!r}")
    doc = {
        "version": CHECKPOINT_VERSION,
        "view_dims": list(params.view_dims),
        "n_labels": params.n_labels,
        "embed_dim": params.embed_dim,
        "hidden_dim": params.hidden_dim,
        "seed": int(seed),
        "epoch": int(epoch),
        "config": config or {},
        "vector": base64.b64encode(params.vector.astype("<f8", copy=False).tobytes()).decode(),
    }
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    # A value of no JSON type is a TypeError, an integer past Python's digit
    # limit a ValueError; the checks above leave only config to hold either.
    except (TypeError, ValueError) as exc:
        raise ContractError(f"save_checkpoint: config must be a dict JSON can write ({exc})") from None
    with open(path, "w") as fh:
        fh.write(text)


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict]:
    """Rebuild ModelParams from a checkpoint, with its ``seed``, ``epoch``
    and ``config``.

    The widths, ``seed`` and ``epoch`` must be integers, and ``"vector"``
    strict base64 of exactly the values :func:`parameter_layout` names and
    shapes, all checked before the parameter vector is allocated; a
    non-finite value is refused naming its parameter.  Each refusal is a
    :class:`ValidationError` naming the checkpoint.
    """
    doc = read_json_object(path, "checkpoint")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(f"checkpoint {path}: unsupported version {version!r}")
    view_dims = doc.get("view_dims")
    if not isinstance(view_dims, list) or not view_dims:
        raise ValidationError(f"checkpoint {path}: malformed field view_dims, expected a "
                              f"non-empty list, got {view_dims!r}")
    dims = [("view_dims", d) for d in view_dims]
    dims += [(field, doc.get(field)) for field in ("n_labels", "embed_dim", "hidden_dim")]
    for field, value in dims:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"checkpoint {path}: malformed field {field}, expected a "
                                  f"positive integer, got {value!r}")
    try:
        meta = {k: doc[k] for k in ("seed", "epoch", "config")}
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path}: missing field {exc}") from None
    for field in ("seed", "epoch"):
        if isinstance(meta[field], bool) or not isinstance(meta[field], int):
            raise ValidationError(f"checkpoint {path}: {field} must be an integer, "
                                  f"got {meta[field]!r}")
    try:
        raw = base64.b64decode(doc.get("vector"), validate=True)
    except (TypeError, ValueError) as exc:  # missing, not a str, or not strict base64
        raise ValidationError(f"checkpoint {path}: vector is not a base64 string ({exc})") from None
    architecture = (tuple(view_dims), doc["n_labels"], doc["embed_dim"], doc["hidden_dim"])
    size = sum(rows * cols for _, (rows, cols) in parameter_layout(*architecture))
    if len(raw) != 8 * size:
        raise ValidationError(f"checkpoint {path}: vector holds {len(raw)} bytes, the "
                              f"architecture needs {size} float64 values ({8 * size} bytes)")
    params = ModelParams.allocate(*architecture)
    params.vector[:] = np.frombuffer(raw, dtype="<f8")
    finite = np.isfinite(params.vector)
    if not finite.all():
        raise ValidationError(f"checkpoint {path}: {params.name_at(int(finite.argmin()))} "
                              "has non-finite values")
    return params, meta
