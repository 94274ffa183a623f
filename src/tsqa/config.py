"""Feature configuration, and the one constructor of a config from JSON."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields


@dataclass(frozen=True)
class FeatureConfig:
    """How token and temporal information become policy features."""

    embed_dim: int = 32
    window: int = 10  # dilation radius, in tokens
    hidden: int = 64
    fusion_mode: str = "add"  # "add" or "concat"
    temporal_fusion: bool = True  # False: featurize reads a zero time table, backward skips it

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        if self.window < 0:
            raise ValueError("window must be non-negative")
        if self.hidden < 1:
            raise ValueError("hidden must be positive")
        if self.fusion_mode not in ("add", "concat"):
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r}")

    @property
    def fused_width(self) -> int:
        return self.embed_dim * (2 if self.fusion_mode == "concat" else 1)

    def to_json_dict(self) -> dict:
        return asdict(self)


# Type of a field's default -> the JSON types it takes; bool before its base int.
_JSON_KINDS = (
    (bool, (bool,), "true or false"),
    (int, (int,), "an integer"),
    (float, (int, float), "a number"),
    (str, (str,), "a string"),
    (tuple, (list,), "a list"),
    (dict, (dict,), "a JSON object"),
)


def _json_value(value, default, where: str):
    """`value` if it has the JSON type of `default`; a list becomes a tuple.
    An object's values must have the type of the default's values."""
    accepts, kind = next((a, k) for t, a, k in _JSON_KINDS if isinstance(default, t))
    if not isinstance(value, accepts) or (isinstance(value, bool) and bool not in accepts):
        raise ValueError(f"{where}: expected {kind}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):  # json parses NaN and Infinity
        raise ValueError(f"{where}: expected a finite number, got {json.dumps(value)}")
    if isinstance(default, dict) and default:
        sample = next(iter(default.values()))
        return {k: _json_value(v, sample, f"{where}.{k}") for k, v in value.items()}
    return tuple(value) if isinstance(default, tuple) else value


def config_from_json(cls, block, where: str, **overrides):
    """The config dataclass `cls` from the JSON object `block`, with the
    overrides that are not None.  Unknown keys are ignored, so configs can
    carry commentary, and a field whose default is None is no JSON key.
    Errors start with `where` ("config.json: sft"), plus the field's name
    for a value of the wrong type."""
    if not isinstance(block, dict):
        raise ValueError(f"{where}: must be a JSON object")
    kwargs = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if f.name in block and default is not None:
            kwargs[f.name] = _json_value(block[f.name], default, f"{where}.{f.name}")
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
