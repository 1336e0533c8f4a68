"""Deterministic JSON emission for CLI reports; circuits share its float format.

``dumps`` writes the types reports hold: None, bool, str, int, float, and
dicts, lists and tuples of them. A complex number is written as its
``[re, im]`` pair. An object with a ``to_jsonable`` method is written as
what that method returns, and any other dataclass instance as the dict of
its fields in declaration order. Anything else, a numpy integer, float32
or array or a dataclass class among them, raises TypeError.
Floats are written with 17 significant digits so output is byte-stable and
round-trips losslessly through a JSON parser. Dicts keep insertion order;
nothing is sorted, so the caller controls field order.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number cannot be emitted as JSON")
    return format(x, ".17g")


def dumps(value) -> str:
    """Serialize a report, or a dict/list/scalar tree, to canonical JSON text."""
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(value, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, int):
        parts.append(str(int(value)))
    elif isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _emit(item, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(value, complex):
        parts.append(f"[{format_float(value.real)}, {format_float(value.imag)}]")
    elif hasattr(type(value), "to_jsonable"):
        _emit(value.to_jsonable(), parts)
    elif hasattr(type(value), "__dataclass_fields__"):
        _emit({name: getattr(value, name) for name in type(value).__dataclass_fields__}, parts)
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")
