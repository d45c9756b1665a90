"""Run configuration: defaults, JSON config files, environment path overrides."""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields

from .linker import RATE_ERROR_RANGE, LinkerConfig, alpha_from_training_error
from .metrics import DEFAULT_TUBE_THRESHOLDS

# Environment variables may override path fields only.
ENV_PATHS = {
    "detections": "TUBESTREAM_DETECTIONS",
    "annotations": "TUBESTREAM_ANNOTATIONS",
    "tubes": "TUBESTREAM_TUBES",
    "report": "TUBESTREAM_REPORT",
}


class _Resolved:
    """Marks the alphas that ``RunConfig`` resolved itself, from ``rate_errors``
    or the default, so that ``dataclasses.replace`` resolves them again."""

    __slots__ = ()


class _ResolvedFloat(_Resolved, float):
    __slots__ = ()


class _ResolvedTuple(_Resolved, tuple):
    __slots__ = ()


@dataclass(frozen=True)
class RunConfig(LinkerConfig):
    """Pipeline settings; field names double as CLI flag and JSON key names.

    The linking settings and defaults are ``LinkerConfig``'s; every value is
    checked against ``RANGES`` when built.  Per-class labeling trade-offs come
    either directly (``alphas``) or as mean progress-rate training errors
    (``rate_errors``) through ``exp(-err^2 / 1e-2)``; ``alphas`` wins when both
    are given and, once built, holds the resolved trade-offs (or the default).
    ``dataclasses.replace`` keeps given alphas and resolves the others again.
    """

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

    # ``rate_errors`` comes first: the alphas resolved from it are checked after it.
    RANGES = {
        "rate_errors": RATE_ERROR_RANGE,
        **LinkerConfig.RANGES,
        "score_threshold": "[0, 1)",
        "nms_iou": "(0, 1)",
        "deltas": "[0, 1]",
        "frame_threshold": "[0, 1]",
    }

    def __post_init__(self):
        if self.alphas is None or isinstance(self.alphas, _Resolved):
            if self.rate_errors is None:
                alphas = _ResolvedFloat(LinkerConfig.alphas)
            elif isinstance(self.rate_errors, (tuple, list)):
                alphas = _ResolvedTuple(alpha_from_training_error(e) for e in self.rate_errors)
            else:
                alphas = _ResolvedFloat(alpha_from_training_error(self.rate_errors))
            object.__setattr__(self, "alphas", alphas)
        super().__post_init__()

    def linker_config(self) -> LinkerConfig:
        return LinkerConfig(**{f.name: getattr(self, f.name) for f in fields(LinkerConfig)})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(fits):
    return lambda value: isinstance(value, list) and all(map(fits, value))


_is_number_list = _list_of(_is_number)


# For each field annotation, what kind of JSON value sets that field.
JSON_KINDS = {
    "float": ("a number", _is_number),
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a path string", lambda v: v is None or isinstance(v, str)),
    "tuple[float, ...]": ("a list of numbers", _is_number_list),
    "tuple[float, ...] | float | None": (
        "a number or a list of numbers",
        lambda v: v is None or _is_number(v) or _is_number_list(v),
    ),
    "tuple[float, float]": ("a (low, high) pair", lambda v: _is_number_list(v) and len(v) == 2 and v[0] <= v[1]),
    "tuple[float, float, float, float]": ("four numbers", lambda v: _is_number_list(v) and len(v) == 4),
    "tuple[bool, ...]": ("a list of booleans", _list_of(lambda x: isinstance(x, bool))),
    "tuple[TrackSpec, ...]": ("a list of objects", _list_of(lambda x: isinstance(x, dict))),
}


def json_settings(data, cls, what: str) -> dict:
    """The JSON object ``data`` as keyword arguments of the dataclass ``cls``:
    only its fields, none without a default missing, each value of the kind
    its annotation names in ``JSON_KINDS``, lists as tuples (numbers as floats)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    annotations = {f.name: f.type for f in fields(cls)}
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise ValueError(f"{what} key {f.name!r} is missing")
    out = {}
    for key, value in data.items():
        if key not in annotations:
            raise ValueError(f"unknown {what} key {key!r}")
        kind, fits = JSON_KINDS[annotations[key]]
        if not fits(value):
            raise ValueError(f"{what} key {key!r} must be {kind}, got {value!r}")
        if isinstance(value, list):
            value = tuple(float(v) for v in value) if _is_number_list(value) else tuple(value)
        out[key] = value
    return out


def load_config(path: str | None = None, overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Build a RunConfig with precedence: defaults < config file < env paths < overrides."""
    env = os.environ if env is None else env
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                values = json_settings(json.load(fh), RunConfig, "config")
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    for field_name, var in ENV_PATHS.items():
        if var in env:
            values[field_name] = env[var]
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)
