"""Every name the benchmark traces or counts exists in the package.

``evibench/workloads.py`` is read as source and not imported (that would
load its tracer); this checks that each name resolves, while
``evibench/selftest.py`` checks that some workload reaches it."""

import ast
import importlib
from pathlib import Path

from eviground.cli import _COMMANDS

WORKLOADS = Path(__file__).resolve().parent.parent / "evibench" / "workloads.py"


def _constants() -> dict:
    """The literal values of LAYERS, LOSS_FUNCTIONS and CLI_COMMANDS."""
    wanted = {"LAYERS", "LOSS_FUNCTIONS", "CLI_COMMANDS"}
    found = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = ast.literal_eval(node.value)
    assert set(found) == wanted
    return found


def _resolves(module: str, qualname: str) -> bool:
    target = importlib.import_module(f"eviground.{module}")
    for part in qualname.split("."):
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_function_exists():
    found = _constants()
    functions = [(m, name) for m, names in found["LAYERS"].items() for name in names]
    functions += list(found["LOSS_FUNCTIONS"])
    assert [f"{m}.{name}" for m, name in functions if not _resolves(m, name)] == []


def test_every_traced_cli_command_exists():
    assert [c for c in _constants()["CLI_COMMANDS"] if c not in _COMMANDS] == []
