"""Correctness checks on the program's outputs.

``schema_errors`` reads the subset of JSON Schema that
``poshan.metrics.EVAL_REPORT_SCHEMA`` uses, in plain Python, because
``jsonschema`` is a test-only dependency of the package.
"""

from __future__ import annotations

import math

SIMPLEX_TOLERANCE = 1e-12

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def schema_errors(value, schema: dict, path: str = "$") -> list:
    """Every way ``value`` breaks ``schema``; an empty list means it conforms."""
    errors = []
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[k](value) for k in kinds):
            return [f"{path}: expected {'/'.join(kinds)}, got {type(value).__name__}"]
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} above {schema['maximum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing key {key!r}")
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                errors.extend(schema_errors(item, props[key], f"{path}.{key}"))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(schema_errors(item, schema["items"], f"{path}[{i}]"))
    return errors


def off_simplex(probs) -> bool:
    """True unless probs is a finite, non-negative pair summing to 1."""
    values = [float(p) for p in probs]
    if len(values) != 2 or not all(math.isfinite(p) and p >= 0.0 for p in values):
        return True
    return abs(sum(values) - 1.0) > SIMPLEX_TOLERANCE


def log_losses(log_lines: list) -> list:
    """(train-loss, val-loss) per epoch row of a training log."""
    rows = []
    for line in log_lines[1:]:
        fields = line.split("\t")
        rows.append((float(fields[1]), float(fields[2])))
    return rows
