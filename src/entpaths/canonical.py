"""Deterministic text encodings for machine-readable outputs.

Every JSON/CSV artifact written by this package must be byte-identical
across runs with the same config and seed, so floats are rendered with 17
significant digits (which round-trips any IEEE-754 double exactly), JSON
keys are sorted, and line endings are fixed to "\\n".
"""
from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np


def format_float(value: float) -> str:
    """Render a float with 17 significant digits; parses back bit-exactly."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in canonical output")
    return format(value, ".17g")


def _scalar(value) -> str | None:
    """Text of a bool, integer or real (numpy scalars too); None otherwise."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    return None


def _encode(obj, indent: int) -> str:
    if obj is None:
        return "null"
    text = _scalar(obj)
    if text is not None:
        return text
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON requires string keys")
        items = [
            f"{child}{json.dumps(k, ensure_ascii=True)}: {_encode(obj[k], indent + 2)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{child}{_encode(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted-key JSON text with fixed float formatting and trailing newline."""
    return _encode(obj, 0) + "\n"


def write_canonical_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8", newline="\n")


def csv_cell(value) -> str:
    text = _scalar(value)
    if text is not None:
        return text
    if isinstance(value, str):
        if any(c in value for c in ',"\n\r'):
            raise ValueError(f"CSV cell {value!r} needs quoting; keep fields plain")
        return value
    raise TypeError(f"cannot encode CSV cell of type {type(value).__name__}")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
