"""Multi-view multi-label classification with missing views and labels.

The package trains a two-channel (shared/private) multi-view network with
masked inputs, cross-view contrastive objectives at the instance and label
levels, availability-weighted fusion and a masked binary cross-entropy
classifier, and evaluates with the standard six multi-label metrics.
"""

from .data import (
    MaskBank,
    MultiViewDataset,
    apply_indicators,
    apply_input_mask,
    generate_indicators,
    load_dataset,
    save_dataset,
    split,
    synth_dataset,
)
from .errors import ConfigError, ContractError, ShapeError, ValidationError
from .losses import (
    LossBreakdown,
    classification_loss,
    instance_contrastive,
    label_availability_gate,
    label_contrastive,
    reconstruction_loss,
    total_loss,
)
from .metrics import MetricsReport, evaluate_all
from .model import ForwardCache, ModelParams, forward_all, load_checkpoint, save_checkpoint
from .numerics import Matrix, Tape, backward
from .train import (
    AdamState,
    TrainConfig,
    TrainLog,
    TrainResult,
    adam_step,
    channel_similarity,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ConfigError",
    "ContractError",
    "ForwardCache",
    "LossBreakdown",
    "MaskBank",
    "Matrix",
    "MetricsReport",
    "ModelParams",
    "MultiViewDataset",
    "ShapeError",
    "Tape",
    "TrainConfig",
    "TrainLog",
    "TrainResult",
    "ValidationError",
    "adam_step",
    "apply_indicators",
    "apply_input_mask",
    "backward",
    "channel_similarity",
    "classification_loss",
    "evaluate_all",
    "forward_all",
    "generate_indicators",
    "instance_contrastive",
    "label_availability_gate",
    "label_contrastive",
    "load_checkpoint",
    "load_dataset",
    "reconstruction_loss",
    "save_checkpoint",
    "save_dataset",
    "split",
    "synth_dataset",
    "total_loss",
    "train",
]
