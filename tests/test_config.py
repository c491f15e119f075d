"""Run-config merging and validation."""

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from eviground.cohort import CohortConfig
from eviground.config import RunConfig
from eviground.distill import DistillConfig
from eviground.errors import ValidationError
from eviground.grounding import GrounderConfig
from eviground.policy import RftConfig
from eviground.pretrain import PretrainConfig
from eviground.rules import RuleConfig

DOCS = Path(__file__).resolve().parent.parent / "docs" / "config.md"


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.cohort.n_patients == 100
    assert cfg.cohort.volume_dim == 16
    assert cfg.grounder.tau == 0.07
    assert cfg.grounder.lambda_dice == 1.0
    assert cfg.grounder.lambda_bce == 1.0
    assert cfg.distill.distill_temperature == 2.0
    assert (cfg.rft.group_size, cfg.rft.epsilon, cfg.rft.beta) == (4, 0.2, 0.1)
    assert cfg.rft.lr == 0.05
    assert cfg.pretrain.lambda_res == 0.5
    assert cfg.cohort.rules.w_format == 0.2
    assert cfg.cohort.rules.w_nia == 0.5
    assert cfg.cohort.rules.w_consistency == 0.3


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "grounder": {"epochs": 3}}))
    cfg = RunConfig.load(path)
    assert cfg.seed == 9
    assert cfg.grounder.epochs == 3
    assert cfg.grounder.tau == 0.07  # untouched default


def test_unknown_section_rejected():
    with pytest.raises(ValidationError):
        RunConfig.from_json({"nonsense": {}})


def test_unknown_key_rejected():
    with pytest.raises(ValidationError):
        RunConfig.from_json({"rft": {"learning": 1}})


def test_invalid_value_rejected():
    with pytest.raises(ValidationError):
        RunConfig.from_json({"rft": {"epsilon": 3.0}})


def test_json_roundtrip():
    cfg = RunConfig.from_json({"seed": 4, "cohort": {"n_patients": 12}})
    again = RunConfig.from_json(json.loads(json.dumps(asdict(cfg))))
    assert again.seed == 4
    assert again.cohort.n_patients == 12
    assert again.cohort.rules == cfg.cohort.rules


def test_int_in_float_field_is_kept_as_int():
    # run.json records the value as it was written
    cfg = RunConfig.from_json({"rft": {"lr": 1}, "cohort": {"rules": {"w_nia": 1}}})
    assert type(cfg.rft.lr) is int and type(cfg.cohort.rules.w_nia) is int
    assert json.dumps(asdict(cfg)["rft"]["lr"]) == "1"


def test_unknown_rules_key_names_its_path():
    with pytest.raises(ValidationError, match=r"unknown keys in cohort\.rules: \['w_fromat'\]"):
        RunConfig.from_json({"cohort": {"rules": {"w_fromat": 0.2}}})


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "3", True, None])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValidationError, match="seed must be an unsigned 64-bit integer"):
        RunConfig.from_json({"seed": seed})


def test_largest_seed_accepted():
    assert RunConfig.from_json({"seed": 2**64 - 1}).seed == 2**64 - 1


def _documented_keys() -> dict[str, set[str]]:
    """Backticked names in the key column of each `## <section>` table."""
    sections: dict[str, set[str]] = {}
    section = None
    for line in DOCS.read_text().splitlines():
        if line.startswith("## "):
            section = line[3:].split()[0]
        elif section and line.startswith("| `"):
            key_cell = line.split("|")[1]
            sections.setdefault(section, set()).update(re.findall(r"`([^`]+)`", key_cell))
    return sections


def test_docs_config_lists_exactly_the_dataclass_fields():
    classes = {
        "cohort": CohortConfig,
        "cohort.rules": RuleConfig,
        "grounder": GrounderConfig,
        "distill": DistillConfig,
        "rft": RftConfig,
        "pretrain": PretrainConfig,
    }
    documented = _documented_keys()
    assert set(documented) == set(classes)
    for section, cls in classes.items():
        assert documented[section] == {f.name for f in fields(cls)}, section
