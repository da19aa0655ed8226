"""Toolchain for data-extended BPMN models: parsing, validation, workflow
data pattern analysis, BPEL/XPDL generation and data-aware simulation.

The layers ``codegen_bpel``, ``codegen_xpdl``, ``patterns``, ``render`` and
``simulator`` are imported on first access (``bpdmn.simulator``), so a
caller loads only the layers it uses."""

from __future__ import annotations

from .format import parse_diagram, serialize_diagram
from .model import Diagram
from .validator import validate

__version__ = "0.1.0"

__all__ = ["Diagram", "parse_diagram", "serialize_diagram", "validate", "__version__"]

_LAYERS = frozenset({"codegen_bpel", "codegen_xpdl", "patterns", "render", "simulator"})


def __getattr__(name: str):
    if name in _LAYERS:
        # the import statement's hook, unlike importlib.import_module, is
        # timed by ``python -X importtime``; importing sets the attribute
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
