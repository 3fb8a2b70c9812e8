"""Config validation shared by the CLI and the experiment config.

Every helper raises ConfigError whose message starts with the failing
field's name.  A nested field is named by its dotted path: `where` is the
path of the object holding it ("" at the top level).  Integers and numbers
reject bools, and numbers reject inf and nan.
"""
from __future__ import annotations

from .core import _is_finite_number, _is_int
from .entanglement import Measure, _checked_cut


class ConfigError(ValueError):
    """A config violates its schema; the message names the field."""


def need(cond, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field} {message}")


def _name(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def check_fields(doc: dict, allowed, where: str = "") -> None:
    """Reject every key of `doc` that is not in `allowed`."""
    for key in doc:
        need(key in allowed, _name(where, key),
             f"is not a known field (expected one of {sorted(allowed)})")


def int_field(doc: dict, key: str, default: int | None, *, low: int,
              high: int | None = None, where: str = "") -> int:
    """doc[key] as an integer in [low, high]; a None default makes it required."""
    name = _name(where, key)
    need(key in doc or default is not None, name, "is required")
    value = doc.get(key, default)
    ok = _is_int(value) and value >= low and (high is None or value <= high)
    span = f">= {low}" if high is None else f"in [{low}, {high}]"
    need(ok, name, f"must be an integer {span}")
    return value


def number_field(doc: dict, key: str, default: float, *, above: float,
                 below: float | None = None) -> float:
    """doc[key] as a finite float strictly inside (above, below)."""
    value = doc.get(key, default)
    ok = _is_finite_number(value) and value > above and (below is None or value < below)
    span = f"> {above:g}" if below is None else f"in ({above:g}, {below:g})"
    need(ok, key, f"must be a finite number {span}")
    return float(value)


def cut_field(raw, n: int) -> tuple[int, ...]:
    """Kept-qubit indices of a bipartition, checked by the entropy's cut rules."""
    try:
        return tuple(_checked_cut(raw, n))
    except ValueError as exc:
        raise ConfigError(f"cut: {exc}") from None


def measure_field(raw, cut: tuple[int, ...] | None) -> Measure:
    """The entanglement measure named by `raw`; vonneumann needs a cut."""
    try:
        measure = Measure(raw)
    except ValueError:
        raise ConfigError(f"measure must be one of {[m.value for m in Measure]}, "
                          f"got {raw!r}") from None
    need(cut is not None or measure is not Measure.VON_NEUMANN_BITS,
         "cut", "is required when measure is 'vonneumann'")
    return measure
