"""JSON emission with full-precision floats.

The standard library encoder cannot be told how to format floats, and the
output contract here is: floats printed with 17 significant digits (lossless
round-trip), infinities serialized as the string "inf" (never a bare float),
and no NaNs anywhere.
"""

from __future__ import annotations

import json
import math


def _format_float(value: float) -> str:
    if math.isnan(value):
        raise ValueError("NaN is not representable in report JSON")
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    text = format(value, ".17g")
    # keep a float marker so the value parses back as a float
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def dumps(obj, indent: int | None = None) -> str:
    """Serialize ``obj`` to JSON text with 17-significant-digit floats."""
    return "".join(_emit(obj, indent, 0))


def dump(obj, fh, indent: int | None = None) -> None:
    fh.write(dumps(obj, indent=indent))
    fh.write("\n")


def _emit(obj, indent, level):
    if obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, float):
        yield _format_float(obj)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        yield from _emit_container(
            (f"{json.dumps(str(k))}:{'' if indent is None else ' '}" for k in obj),
            obj.values(),
            "{}",
            indent,
            level,
        )
    elif isinstance(obj, (list, tuple)):
        yield from _emit_container(("" for _ in obj), obj, "[]", indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _emit_container(prefixes, values, brackets, indent, level):
    items = list(zip(prefixes, values))
    if not items:
        yield brackets
        return
    open_b, close_b = brackets
    # both empty in the compact form
    newline, pad = ("", "") if indent is None else ("\n", " " * indent)
    yield open_b + newline
    for i, (prefix, value) in enumerate(items):
        if i:
            yield "," + newline
        yield pad * (level + 1) + prefix
        yield from _emit(value, indent, level + 1)
    yield newline + pad * level + close_b
