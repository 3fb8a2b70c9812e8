"""Deterministic text encodings for machine-readable outputs.

Every JSON/CSV artifact written by this package must be byte-identical
across runs with the same config and seed, so floats are rendered as
Python's shortest round-trip text (`repr`, which parses back to the same
IEEE-754 double), JSON keys are sorted, and line endings are fixed to "\\n".
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def format_float(value: float) -> str:
    """Python's shortest text for a finite float; parses back bit-exactly."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in canonical output")
    return repr(value)


def _numpy_scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted-key, 2-space JSON text of finite values with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_numpy_scalar) + "\n"


def write_canonical_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8", newline="\n")


def csv_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
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
