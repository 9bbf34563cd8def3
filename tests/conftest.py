"""Shared test helpers: tiny program construction and execution, and
golden-record comparison."""

import json
from pathlib import Path

import pytest

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.isa.assembler import Assembler


@pytest.fixture
def skylake():
    """Fresh default Skylake-class configuration."""
    return CPUConfig.skylake()


def build_core(build_fn, config=None, entry=None):
    """Assemble a program via ``build_fn(asm)`` and wrap it in a Core."""
    asm = Assembler()
    build_fn(asm)
    program = asm.assemble(entry=entry)
    return Core(config or CPUConfig.skylake(), program)


def run(build_fn, regs=None, config=None, entry="main"):
    """Assemble, run to halt, return the core for inspection."""
    core = build_core(build_fn, config=config, entry=entry)
    core.call(entry, regs=regs)
    return core


#: Golden records: canonical JSON of whole-evaluation results, captured
#: once and compared byte for byte.  A deliberate change rewrites the
#: file with ``golden_text(doc)`` and explains the diff in CHANGES.md.
GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_text(doc):
    """The canonical rendering a golden record is stored in."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


def check_golden(name, doc):
    """Assert that ``doc`` renders exactly as ``tests/golden/<name>``."""
    path = GOLDEN_DIR / name
    assert golden_text(doc) == path.read_text(), f"{path} no longer matches"
