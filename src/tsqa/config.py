"""Feature configuration, with a JSON round-trip."""

from __future__ import annotations

from dataclasses import asdict, dataclass


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

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FeatureConfig":
        known = {f: payload[f] for f in cls.__dataclass_fields__ if f in payload}
        return cls(**known)
