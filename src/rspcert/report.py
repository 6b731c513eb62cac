"""Machine-readable report values (schema version 1).

Every CLI command can emit one JSON document: inputs (paths, dimensions, the
tolerance block), per-operation verdicts with witnesses as plain decimal
arrays and 0-based indices, wall time, and the seed when randomness was
involved.  Each verdict is a library result written out field by field, plus
its properties, by ``to_json``.  A field whose metadata carries a ``"json"``
entry is written under that key instead, or left out when the entry is None.
Reports round-trip: emitted witnesses re-verify when fed back through the
library.
"""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from functools import cache

import numpy as np

SCHEMA_VERSION = "1"

_SCALARS = (str, int, float, bool, type(None))


@cache
def _layout(cls: type) -> tuple[tuple[str, str], ...]:
    """(attribute, JSON key) pairs of a dataclass: its fields, then its properties."""
    keys = [(f.name, f.metadata.get("json", f.name)) for f in fields(cls)]
    keys += [(name, name) for name, attr in vars(cls).items() if isinstance(attr, property)]
    return tuple((name, key) for name, key in keys if key is not None)


def to_json(value):
    """The JSON value of a result: dataclasses, enums, arrays and containers."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "__dataclass_fields__"):
        return {key: to_json(getattr(value, name)) for name, key in _layout(type(value))}
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).ravel().tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in sorted(value.items())}
    raise TypeError(f"no JSON form for {type(value).__name__}")
