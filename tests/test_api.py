"""The top-level ``fha`` namespace: the README quick-start names, the error
types and ``__version__``, with every submodule reachable as an attribute."""

import re
import types
from pathlib import Path

import fha

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = {"data", "errors", "harness", "losses", "nn", "pairing", "trainers"}
ERRORS = {"FHAError", "ConfigError", "FormatError", "InsufficientDataError",
          "MissingClassError", "NumericalError", "ProtocolError", "QualityGateError"}


def _quick_start_names():
    block = re.search(r"^from fha import \((.*?)\)", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_top_level_is_the_quick_start_and_the_errors():
    quick_start = _quick_start_names()
    assert len(quick_start) == 11
    public = {name for name in vars(fha) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(fha, name), types.ModuleType)}
    assert SUBMODULES <= modules
    assert public - modules == quick_start | ERRORS
    assert fha.__version__ == "0.1.0"

