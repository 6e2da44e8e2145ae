"""The two-channel network: per-view shared/private encoders, decoders,
shared projection heads, availability-weighted fusion and the linear
sigmoid classifier.

Architecture choices: every encoder, decoder and projection head is a
two-layer MLP with a ReLU hidden layer; the instance head and the label
head are single shared copies applied to every view's shared features.
The classifier bias is one row broadcast across samples so the model
generalizes to unseen data.  No normalization or dropout layers, which
keeps finite-difference gradient audits exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .data import MaskBank, MultiViewDataset, apply_input_mask
from .errors import ContractError, ValidationError
from .numerics import Matrix

Array = np.ndarray


@dataclass
class Linear:
    weight: Matrix  # n_in x n_out
    bias: Matrix    # 1 x n_out

    def __call__(self, x: Matrix) -> Matrix:
        return x @ self.weight + self.bias

    @classmethod
    def initialize(cls, rng: np.random.Generator, n_in: int, n_out: int) -> "Linear":
        bound = 1.0 / np.sqrt(n_in)
        return cls(weight=Matrix(rng.uniform(-bound, bound, size=(n_in, n_out))),
                   bias=Matrix(rng.uniform(-bound, bound, size=(1, n_out))))


@dataclass
class Mlp:
    """Two-layer perceptron with ReLU hidden activation (no output activation)."""

    hidden: Linear
    out: Linear

    def __call__(self, x: Matrix) -> Matrix:
        return self.out(nm.relu(self.hidden(x)))

    @classmethod
    def initialize(cls, rng: np.random.Generator, n_in: int, n_hidden: int, n_out: int) -> "Mlp":
        return cls(hidden=Linear.initialize(rng, n_in, n_hidden),
                   out=Linear.initialize(rng, n_hidden, n_out))


@dataclass
class ModelParams:
    """All learnable matrices, in a fixed canonical order.

    ``shared_encoders[m]`` and ``private_encoders[m]`` map view m's input
    width to the embedding width; ``decoders[m]`` maps it back.  The
    instance head and label head are shared across views.
    """

    shared_encoders: list[Mlp]
    private_encoders: list[Mlp]
    decoders: list[Mlp]
    instance_head: Mlp       # embed -> embed
    label_head: Mlp          # embed -> n_labels
    classifier_weight: Matrix  # embed x n_labels
    classifier_bias: Matrix    # 1 x n_labels

    @classmethod
    def initialize(
        cls,
        rng: np.random.Generator,
        view_dims: tuple[int, ...],
        n_labels: int,
        embed_dim: int,
        hidden_dim: int,
    ) -> "ModelParams":
        shared = [Mlp.initialize(rng, d, hidden_dim, embed_dim) for d in view_dims]
        private = [Mlp.initialize(rng, d, hidden_dim, embed_dim) for d in view_dims]
        decoders = [Mlp.initialize(rng, embed_dim, hidden_dim, d) for d in view_dims]
        instance_head = Mlp.initialize(rng, embed_dim, hidden_dim, embed_dim)
        label_head = Mlp.initialize(rng, embed_dim, hidden_dim, n_labels)
        bound = 1.0 / np.sqrt(embed_dim)
        clf_w = Matrix(rng.uniform(-bound, bound, size=(embed_dim, n_labels)))
        clf_b = Matrix(rng.uniform(-bound, bound, size=(1, n_labels)))
        return cls(shared, private, decoders, instance_head, label_head, clf_w, clf_b)

    @property
    def n_views(self) -> int:
        return len(self.shared_encoders)

    @property
    def view_dims(self) -> tuple[int, ...]:
        return tuple(enc.hidden.weight.rows for enc in self.shared_encoders)

    @property
    def embed_dim(self) -> int:
        return self.classifier_weight.rows

    @property
    def hidden_dim(self) -> int:
        return self.instance_head.hidden.weight.cols

    @property
    def n_labels(self) -> int:
        return self.classifier_weight.cols

    def named_parameters(self) -> list[tuple[str, Matrix]]:
        named: list[tuple[str, Matrix]] = []

        def mlp(prefix: str, net: Mlp) -> None:
            named.append((f"{prefix}.hidden.weight", net.hidden.weight))
            named.append((f"{prefix}.hidden.bias", net.hidden.bias))
            named.append((f"{prefix}.out.weight", net.out.weight))
            named.append((f"{prefix}.out.bias", net.out.bias))

        for m, net in enumerate(self.shared_encoders):
            mlp(f"shared_encoder.{m}", net)
        for m, net in enumerate(self.private_encoders):
            mlp(f"private_encoder.{m}", net)
        for m, net in enumerate(self.decoders):
            mlp(f"decoder.{m}", net)
        mlp("instance_head", self.instance_head)
        mlp("label_head", self.label_head)
        named.append(("classifier.weight", self.classifier_weight))
        named.append(("classifier.bias", self.classifier_bias))
        return named

    def parameters(self) -> list[Matrix]:
        return [p for _, p in self.named_parameters()]


@dataclass
class ForwardCache:
    """Every intermediate activation of one forward pass."""

    masked_views: list[Matrix]
    shared: list[Matrix]          # per-view consistent features, N x embed
    private: list[Matrix]         # per-view proprietary features, N x embed
    recon: list[Matrix]           # decoder outputs, N x d_m
    instance_feats: list[Matrix]  # instance head outputs, N x embed
    label_probs: list[Matrix]     # label head outputs through sigmoid, N x C
    fused_shared: Matrix          # availability-weighted mean, N x embed
    fused_private: Matrix
    blended: Matrix               # sigmoid(fused_private) * fused_shared
    scores: Matrix                # classifier probabilities, N x C


def encode(params: ModelParams, masked_views: list[Matrix]) -> tuple[list[Matrix], list[Matrix]]:
    shared = [params.shared_encoders[m](x) for m, x in enumerate(masked_views)]
    private = [params.private_encoders[m](x) for m, x in enumerate(masked_views)]
    return shared, private


def decode(params: ModelParams, private: list[Matrix]) -> list[Matrix]:
    return [params.decoders[m](p) for m, p in enumerate(private)]


def project_instances(params: ModelParams, shared: list[Matrix]) -> list[Matrix]:
    return [params.instance_head(s) for s in shared]


def project_labels(params: ModelParams, shared: list[Matrix]) -> list[Matrix]:
    return [nm.sigmoid(params.label_head(s)) for s in shared]


def fuse(shared: list[Matrix], private: list[Matrix], view_indicator: Array) -> tuple[Matrix, Matrix]:
    """Average the available views of each sample; missing views contribute
    nothing and do not affect the divisor."""
    counts = view_indicator.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise ContractError("fuse: a sample has no available view")
    inv_counts = Matrix(1.0 / counts)

    def weighted_mean(feats: list[Matrix]) -> Matrix:
        total = None
        for m, f in enumerate(feats):
            term = f * Matrix(view_indicator[:, m:m + 1])
            total = term if total is None else total + term
        return total * inv_counts

    return weighted_mean(shared), weighted_mean(private)


def interact(fused_shared: Matrix, fused_private: Matrix) -> Matrix:
    if fused_shared.shape != fused_private.shape:
        raise ContractError(
            f"interact: shapes {fused_shared.shape} and {fused_private.shape} differ")
    return nm.sigmoid(fused_private) * fused_shared


def classify(params: ModelParams, blended: Matrix) -> Matrix:
    return nm.sigmoid(blended @ params.classifier_weight + params.classifier_bias)


def forward_all(
    params: ModelParams,
    dataset: MultiViewDataset,
    bank: MaskBank | None = None,
    training: bool = False,
) -> ForwardCache:
    """Run the whole network; input masking applies only when training."""
    if training and bank is not None:
        masked = [Matrix(x) for x in apply_input_mask(dataset, bank)]
    else:
        masked = [Matrix(x) for x in dataset.views]
    shared, private = encode(params, masked)
    recon = decode(params, private)
    instance_feats = project_instances(params, shared)
    label_probs = project_labels(params, shared)
    fused_shared, fused_private = fuse(shared, private, dataset.view_indicator)
    blended = interact(fused_shared, fused_private)
    scores = classify(params, blended)
    return ForwardCache(
        masked_views=masked,
        shared=shared,
        private=private,
        recon=recon,
        instance_feats=instance_feats,
        label_probs=label_probs,
        fused_shared=fused_shared,
        fused_private=fused_private,
        blended=blended,
        scores=scores,
    )


CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: Path | str,
    params: ModelParams,
    *,
    seed: int,
    epoch: int,
    config: dict | None = None,
) -> None:
    """Serialize every parameter matrix with shape metadata as JSON.

    Floats are written with shortest round-trip repr, so identical
    parameters produce byte-identical files.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "view_dims": list(params.view_dims),
        "n_labels": params.n_labels,
        "embed_dim": params.embed_dim,
        "hidden_dim": params.hidden_dim,
        "seed": seed,
        "epoch": epoch,
        "config": config or {},
        "parameters": {
            name: {"shape": list(p.shape), "values": [float(x) for x in p.value.ravel()]}
            for name, p in params.named_parameters()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict]:
    """Rebuild ModelParams from a checkpoint; shape mismatches are rejected."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"checkpoint {path}: invalid JSON ({exc})") from None
    version = doc.get("version") if isinstance(doc, dict) else None
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
        stored = doc["parameters"]
        meta = {k: doc[k] for k in ("seed", "epoch", "config", "view_dims", "n_labels",
                                    "embed_dim", "hidden_dim")}
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path}: missing field {exc}") from None
    for field in ("seed", "epoch"):
        if isinstance(meta[field], bool) or not isinstance(meta[field], int):
            raise ValidationError(f"checkpoint {path}: {field} must be an integer, "
                                  f"got {meta[field]!r}")
    params = ModelParams.initialize(np.random.default_rng(0), tuple(view_dims),
                                    meta["n_labels"], meta["embed_dim"], meta["hidden_dim"])
    expected = params.named_parameters()
    if not isinstance(stored, dict) or set(stored) != {name for name, _ in expected}:
        raise ValidationError(f"checkpoint {path}: parameter set does not match architecture")
    for name, p in expected:
        try:
            shape = tuple(stored[name]["shape"])
            values = np.asarray(stored[name]["values"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"checkpoint {path}: {name} is malformed ({exc!r})") from None
        if shape != p.shape:
            raise ValidationError(
                f"checkpoint {path}: {name} has shape {shape}, expected {p.shape}")
        if not np.isfinite(values).all():
            raise ValidationError(f"checkpoint {path}: {name} has non-finite values")
        p.value[...] = values
    return params, meta
