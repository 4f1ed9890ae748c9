"""Data types for the relational substrate.

Pig models tuples of typed fields.  We support the scalar types used by
PigMix (int, long, float, double, chararray) plus the nested bag/tuple
types produced by GROUP/COGROUP.  Values travel through the engine as
plain Python objects; this module centralizes parsing, casting and
text serialization (the PigStorage format: tab-separated fields, bags
rendered as ``{(f1,f2),(f1,f2)}``).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.exceptions import SchemaError


class DataType(enum.Enum):
    """Scalar and nested field types, mirroring Pig's type system."""

    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    CHARARRAY = "chararray"
    BOOLEAN = "boolean"
    BYTEARRAY = "bytearray"
    TUPLE = "tuple"
    BAG = "bag"

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC

    @property
    def is_nested(self) -> bool:
        return self in (DataType.TUPLE, DataType.BAG)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        try:
            return cls(name.lower())
        except ValueError:
            raise SchemaError(f"unknown data type: {name!r}") from None


_NUMERIC = frozenset({DataType.INT, DataType.LONG, DataType.FLOAT, DataType.DOUBLE})

_PYTHON_TYPES = {
    DataType.INT: int,
    DataType.LONG: int,
    DataType.FLOAT: float,
    DataType.DOUBLE: float,
    DataType.CHARARRAY: str,
    DataType.BOOLEAN: bool,
    DataType.BYTEARRAY: str,
}


def cast_value(value: Any, dtype: DataType) -> Any:
    """Cast *value* to *dtype*, returning ``None`` unchanged.

    Mirrors Pig's permissive casts: numeric strings cast to numbers,
    numbers widen/narrow between int and float.
    """
    if value is None:
        return None
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            return value.strip().lower() in ("true", "1")
        return bool(value)
    if dtype.is_nested:
        return value
    target = _PYTHON_TYPES[dtype]
    if isinstance(value, target) and not (target is int and isinstance(value, bool)):
        return value
    try:
        if target is int and isinstance(value, str):
            # Pig parses "3.0" as a double then narrows; accept both forms.
            return int(float(value)) if "." in value else int(value)
        return target(value)
    except (TypeError, ValueError):
        raise SchemaError(f"cannot cast {value!r} to {dtype.value}") from None


def parse_text(text: str, dtype: DataType) -> Any:
    """Parse one PigStorage field into a typed value.

    Empty text parses to ``None`` (Pig's null), matching how PigStorage
    round-trips missing values.
    """
    if text == "":
        return None
    if dtype is DataType.BAG:
        return parse_bag(text)
    if dtype is DataType.TUPLE:
        return parse_tuple(text)
    return cast_value(text, dtype)


def format_value(value: Any) -> str:
    """Serialize a field value in PigStorage text form."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr keeps round-trip precision while staying compact for
        # common values (1.5 rather than 1.50000...).
        return repr(value)
    if isinstance(value, (list,)):
        return format_bag(value)
    if isinstance(value, tuple):
        return format_tuple(value)
    return str(value)


def format_tuple(row: tuple) -> str:
    return "(" + ",".join(format_value(v) for v in row) + ")"


def format_bag(bag: list) -> str:
    return "{" + ",".join(format_tuple(t) for t in bag) + "}"


def parse_tuple(text: str) -> tuple:
    """Parse ``(a,b,c)`` into a tuple of strings (untyped fields).

    Nested bag/tuple values are parsed recursively.  The strings are
    typed, and the tuple squared to its declared width, by the caller
    that knows the column's inner schema (``tuples.deserialize_row``).
    """
    if not (text.startswith("(") and text.endswith(")")):
        raise SchemaError(f"malformed tuple text: {text!r}")
    return tuple(_split_nested(text[1:-1]))


def parse_bag(text: str) -> list:
    """Parse ``{(a,b),(c,d)}`` into a list of tuples."""
    if not (text.startswith("{") and text.endswith("}")):
        raise SchemaError(f"malformed bag text: {text!r}")
    inner = text[1:-1]
    if not inner:
        return []
    parts = _split_nested(inner)
    return [
        part if isinstance(part, tuple) else parse_tuple(part)
        for part in parts
    ]


def _split_nested(text: str) -> list:
    """Split on commas not enclosed in parentheses or braces."""
    parts: list = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({":
            depth += 1
            current.append(ch)
        elif ch in ")}":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append(_finish_part("".join(current)))
            current = []
        else:
            current.append(ch)
    if current or parts:
        parts.append(_finish_part("".join(current)))
    return parts


def _finish_part(part: str):
    part = part.strip()
    if part.startswith("("):
        return parse_tuple(part)
    if part.startswith("{"):
        return parse_bag(part)
    return part
