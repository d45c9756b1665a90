"""Run configuration: defaults, JSON config files, environment path overrides."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from .linker import LinkerConfig, alpha_from_training_error
from .metrics import DEFAULT_TUBE_THRESHOLDS

# Environment variables may override path fields only.
ENV_PATHS = {
    "detections": "TUBESTREAM_DETECTIONS",
    "annotations": "TUBESTREAM_ANNOTATIONS",
    "tubes": "TUBESTREAM_TUBES",
    "report": "TUBESTREAM_REPORT",
}

# Valid values of the numeric settings that ``LinkerConfig`` does not check:
# key -> (interval as printed, membership test), for every value of ``deltas``.
_RANGES = {
    "score_threshold": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
    "nms_iou": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "score_floor": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
    "frame_threshold": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
    "deltas": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
}


@dataclass(frozen=True)
class RunConfig:
    """Pipeline settings; field names double as CLI flag and JSON key names.

    Per-class labeling trade-offs come either directly (``alphas``) or as
    mean progress-rate training errors (``rate_errors``) converted through
    ``exp(-err^2 / 1e-2)``; ``alphas`` wins when both are given.
    """

    iou_gate: float = 0.3
    window: int = 6
    max_tubes: int = 10
    score_floor: float = 1e-3
    alphas: tuple[float, ...] | float | None = None
    rate_errors: tuple[float, ...] | float | None = None
    score_threshold: float = 1e-3
    nms_iou: float = 0.45
    deltas: tuple[float, ...] = DEFAULT_TUBE_THRESHOLDS
    frame_threshold: float = 0.5
    detections: str | None = None
    annotations: str | None = None
    tubes: str | None = None
    report: str | None = None

    def __post_init__(self):
        for key, (interval, inside) in _RANGES.items():
            for v in self.deltas if key == "deltas" else (getattr(self, key),):
                if not inside(v):
                    raise ValueError(f"{key} must lie in {interval}, got {v!r}")

    def resolved_alphas(self) -> tuple[float, ...] | float:
        if self.alphas is not None:
            return self.alphas
        if self.rate_errors is not None:
            if isinstance(self.rate_errors, (tuple, list)):
                return tuple(alpha_from_training_error(e) for e in self.rate_errors)
            return alpha_from_training_error(self.rate_errors)
        return LinkerConfig().alphas

    def linker_config(self) -> LinkerConfig:
        return LinkerConfig(
            iou_gate=self.iou_gate,
            window=self.window,
            max_tubes=self.max_tubes,
            alphas=self.resolved_alphas(),
            score_floor=self.score_floor,
        )


_TUPLE_FIELDS = {"alphas", "rate_errors", "deltas"}
_INT_FIELDS = {"window", "max_tubes"}


def _canon(key: str, value):
    if key in _TUPLE_FIELDS and isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(path: str, key: str, value) -> None:
    """Reject a config file value whose JSON type does not fit the field."""
    number_list = isinstance(value, list) and all(map(_is_number, value))
    if key in ENV_PATHS:
        ok, kind = value is None or isinstance(value, str), "a path string"
    elif key in _INT_FIELDS:
        ok, kind = _is_number(value) and isinstance(value, int), "an integer"
    elif key == "deltas":
        ok, kind = number_list, "a list of numbers"
    elif key in _TUPLE_FIELDS:
        ok, kind = value is None or _is_number(value) or number_list, "a number or a list of numbers"
    else:
        ok, kind = _is_number(value), "a number"
    if not ok:
        raise ValueError(f"{path}: config key {key!r} must be {kind}, got {value!r}")


def load_config(path: str | None = None, overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Build a RunConfig with precedence: defaults < config file < env paths < overrides."""
    env = os.environ if env is None else env
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"{path}: unknown config key {key!r}")
            _check_type(path, key, value)
            values[key] = _canon(key, value)
    for field_name, var in ENV_PATHS.items():
        if var in env:
            values[field_name] = env[var]
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _canon(key, value)
    return RunConfig(**values)
