"""The documented API exists: ``__all__`` and README's list of key routines."""

import importlib
import re
from pathlib import Path

import rspcert

README = Path(__file__).resolve().parent.parent / "README.md"


def _key_routines():
    """(module, name) for every routine README lists under "Key routines"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Key routines by module:", 1)[1].split("\n\n", 2)[1]
    pairs = []
    for bullet in section.split("\n- "):
        module, *names = re.findall(r"`([^`]+)`", bullet)
        pairs += [(module, name) for name in names if name.isidentifier()]
    return pairs


def test_every_exported_name_resolves():
    missing = [name for name in rspcert.__all__ if not hasattr(rspcert, name)]
    assert missing == []
    assert len(set(rspcert.__all__)) == len(rspcert.__all__)


def test_readme_key_routines_exist():
    pairs = _key_routines()
    assert len({module for module, _ in pairs}) == 5
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
