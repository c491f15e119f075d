"""Top-level run configuration: nested per-module configs, read from a
partial JSON override by ``tensorio.from_json``."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .cohort import CohortConfig
from .distill import DistillConfig
from .errors import ValidationError
from .grounding import GrounderConfig
from .policy import RftConfig
from .pretrain import PretrainConfig
from .tensorio import from_json, read_json_object


def check_seed(value, name: str = "seed") -> int:
    """Reject anything but an integer numpy can seed with: [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ValidationError(f"{name} must be an unsigned 64-bit integer")
    return value


@dataclass
class RunConfig:
    seed: int = field(default=0, metadata={"from_json": check_seed})
    cohort: CohortConfig = field(default_factory=CohortConfig)
    grounder: GrounderConfig = field(default_factory=GrounderConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    rft: RftConfig = field(default_factory=RftConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)

    @classmethod
    def from_json(cls, overrides) -> "RunConfig":
        """Build from a possibly partial JSON object; absent keys keep their defaults."""
        return from_json(cls, overrides)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(read_json_object(path))
