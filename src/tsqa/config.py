"""Feature configuration, and the one checked reader of JSON input: configs,
dataset records, facts and time specs."""

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


REQUIRED = object()  # a shape's default for a key that must be present

# Type of a sample -> the JSON value types it takes (json decodes to exactly these; True is no int).
_JSON_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    tuple: ((list,), "a list"),
    dict: ((dict,), "a JSON object"),
}


def field_error(where: tuple, message: str) -> ValueError:
    """`message` behind the path `where`, formatted only here: ("facts", 0, "start") is facts[0].start."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)[1:]
    return ValueError(f"{path}: {message}" if path else message)


def build_at(where: tuple, build, *args):
    """build(*args), with a ValueError it raises behind the path `where`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise field_error(where, str(exc)) from exc


def _shown(value, limit: int = 60) -> str:
    """`value` as JSON, cut short past `limit` characters (a sidecar's vocabulary runs to thousands)."""
    text = json.dumps(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _json_value(value, sample, where: tuple):
    """`value` if it has the JSON type of `sample` (a tuple sample makes it a tuple),
    its elements or values checked against the sample's first element or value."""
    kind = type(value)
    accepts, name = _JSON_KINDS[type(sample)]
    if kind not in accepts:
        raise field_error(where, f"expected {name}, got {_shown(value)}")
    if kind is float and not math.isfinite(value):  # json parses NaN and Infinity
        raise field_error(where, f"expected a finite number, got {_shown(value)}")
    if kind is list:
        if sample:
            value = [_json_value(v, sample[0], (*where, i)) for i, v in enumerate(value)]
        return tuple(value) if type(sample) is tuple else value
    if kind is dict and sample:
        inner = next(iter(sample.values()))
        return {k: _json_value(v, inner, (*where, k)) for k, v in value.items()}
    return value


def json_object(payload, shape: dict, where: tuple = ()) -> dict:
    """Each key of `shape` -> its checked value in the JSON object `payload`,
    ignoring other keys.  `shape` maps a key to a sample of its JSON type and
    its default: REQUIRED, a value, or None for a key that may be null or absent."""
    if not isinstance(payload, dict):
        raise field_error(where, f"expected a JSON object, got {_shown(payload)}")
    values = {}
    for key, (sample, default) in shape.items():
        value = payload.get(key, default)
        if value is REQUIRED:
            raise field_error((*where, key), f"expected {_JSON_KINDS[type(sample)][1]}, got nothing")
        if value is not default and not type(value) is str is type(sample):  # else valid as it is
            value = _json_value(value, sample, (*where, key))
        values[key] = value
    return values


def one_of(value, allowed, where: tuple):
    """`value` if it is one of `allowed`, else a field error listing them."""
    if value not in allowed:
        raise field_error(where, f"expected one of {', '.join(map(_shown, allowed))}, got {_shown(value)}")
    return value


def non_empty(values: dict, keys, where: tuple = ()) -> None:
    """Raise a field error for the first of `keys` whose value in `values` is empty."""
    for key in keys:
        if not values[key]:
            raise field_error((*where, key), f"expected a non-empty value, got {_shown(values[key])}")


def config_from_json(cls, block, where: str, **overrides):
    """The config dataclass `cls` from the JSON object `block` (other keys, such as
    commentary, ignored), with the overrides that are not None.  A field whose
    default is not None is a key with that default as sample."""
    defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory() for f in fields(cls)}
    kwargs = json_object(block, {k: (d, d) for k, d in defaults.items() if d is not None}, (where,))
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
