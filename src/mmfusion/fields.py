"""Type checks for values read from JSON: the scalar fields of
configuration dataclasses and the numbers of a checkpoint manifest.

A field annotated ``int`` may hold a string or a list once it came from a
JSON file. ``validate`` methods call ``type_problems`` first and
range-check only a section whose fields all have their annotated types.
"""

from __future__ import annotations

import dataclasses
import numbers


def is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# annotation -> (check, what the message says the value must be)
_CHECKS = {
    "int": (is_int, "an integer"),
    "float": (is_real, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def type_problems(obj):
    """One message per field of dataclass ``obj`` whose value lacks its
    annotated scalar type (``int``, ``float``, ``bool`` or ``str``, each
    optionally ``| None``); fields with other annotations are not checked."""
    problems = []
    for f in dataclasses.fields(obj):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind not in _CHECKS or (rest == "None" and value is None):
            continue
        check, what = _CHECKS[kind]
        if not check(value):
            problems.append(f"{f.name} must be {what}, got {value!r}")
    return problems
