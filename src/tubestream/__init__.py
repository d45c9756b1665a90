"""Streaming action-tube linking and evaluation for progress-aware detectors."""

from .decode import (
    AnchorSet,
    CandidateBox,
    DecodedGrid,
    RawGrid,
    decode_grid,
)
from .geometry import box_iou, temporal_iou
from .linker import (
    LinkerConfig,
    OnlineLinker,
    TubeState,
    alpha_from_training_error,
    temporal_label_step,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    TargetAssignment,
    build_targets,
    check_gradients,
    loss_gradient,
    loss_terms,
)
from .metrics import EvalReport, average_precisions, evaluate, tube_iou
from .tubes import DetectionStream, FinalTube, GroundTruthTube

__all__ = [
    "AnchorSet",
    "CandidateBox",
    "DecodedGrid",
    "DetectionStream",
    "EvalReport",
    "FinalTube",
    "GroundTruthTube",
    "LinkerConfig",
    "LossBreakdown",
    "LossWeights",
    "OnlineLinker",
    "RawGrid",
    "TargetAssignment",
    "TubeState",
    "alpha_from_training_error",
    "average_precisions",
    "box_iou",
    "build_targets",
    "check_gradients",
    "decode_grid",
    "evaluate",
    "loss_gradient",
    "loss_terms",
    "temporal_label_step",
    "temporal_iou",
    "tube_iou",
]
