"""Top-level run configuration: nested per-module configs with JSON
round-trip and partial-override merging."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .cohort import CohortConfig
from .distill import DistillConfig
from .errors import ValidationError
from .grounding import GrounderConfig
from .policy import RftConfig
from .pretrain import PretrainConfig
from .tensorio import read_json_object


def check_seed(value, name: str = "seed") -> int:
    """Reject anything but an integer numpy can seed with: [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ValidationError(f"{name} must be an unsigned 64-bit integer")
    return value


@dataclass
class RunConfig:
    seed: int = 0
    cohort: CohortConfig = field(default_factory=CohortConfig)
    grounder: GrounderConfig = field(default_factory=GrounderConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    rft: RftConfig = field(default_factory=RftConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)

    def to_json(self) -> dict:
        d = asdict(self)
        d["cohort"] = self.cohort.to_json()
        return d

    @classmethod
    def from_json(cls, overrides: dict) -> "RunConfig":
        """Build from a possibly partial dict; unknown keys are rejected."""
        cfg = cls()
        sections = {
            "cohort": CohortConfig,
            "grounder": GrounderConfig,
            "distill": DistillConfig,
            "rft": RftConfig,
            "pretrain": PretrainConfig,
        }
        for key, value in overrides.items():
            if key == "seed":
                cfg.seed = check_seed(value)
            elif key in sections:
                base = asdict(getattr(cfg, key))
                unknown = set(value) - set(base)
                if unknown:
                    raise ValidationError(f"unknown keys in {key}: {sorted(unknown)}")
                base.update(value)
                try:
                    setattr(cfg, key, sections[key](**base))
                except TypeError as exc:
                    raise ValidationError(f"bad {key} config: {exc}") from exc
            else:
                raise ValidationError(f"unknown config section {key!r}")
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(read_json_object(path))
