"""The one schema of the configuration dataclasses: each field's type, its
bounds and its JSON form.

A field's type is its annotation, read as a string (the modules use
``from __future__ import annotations``): ``int``, ``float`` (finite),
``bool`` or ``str``, a fixed-length ``tuple[...]`` of those, or a nested
section dataclass. Its bounds are declared where the field is defined,
with ``bounded``. ``field_problems`` checks both; ``validate`` methods add
only the rules that relate two fields.
``from_dict`` reads the JSON form, where a tuple is a list and a document
names only the fields it changes.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


def is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# annotation -> (check, what one value must be, what several must be)
_CHECKS = {
    "int": (is_int, "an integer", "integers"),
    "float": (is_real, "a number", "numbers"),
    "bool": (lambda v: isinstance(v, bool), "true or false", "booleans"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
}


def bounded(default, lo=None, hi=None, lo_open=False, choices=None, label=None):
    """A dataclass field defaulting to ``default`` whose value must be one of
    ``choices``, or lie in ``[lo, hi]`` (``(lo, hi]`` with ``lo_open``; no
    upper end when ``hi`` is None). Each entry of a tuple value is checked.
    ``label`` names the field in messages instead of its name. A message
    about integers names only the end they are past."""
    return dataclasses.field(default=default,
                             metadata={"bounds": (lo, hi, lo_open, choices, label)})


def _type_problem(name, kind, value):
    if kind.startswith("tuple["):
        items = kind[len("tuple["):-1].split(", ")
        check, _, what = _CHECKS[items[0]]
        if not (isinstance(value, (tuple, list)) and len(value) == len(items)
                and all(map(check, value))):
            return f"{name} must be a list of {len(items)} {what}, got {value!r}"
    elif kind in _CHECKS:
        check, what, _ = _CHECKS[kind]
        if not check(value):
            return f"{name} must be {what}, got {value!r}"
    # JSON's Infinity and NaN, and an integer past float range, are no float
    if "float" in kind and not all(-sys.float_info.max <= v <= sys.float_info.max
                                   for v in (value if "[" in kind else (value,))):
        return f"{name} must be finite, got {value!r}"
    return None


def _bound_problem(name, value, bounds):
    lo, hi, lo_open, choices, label = bounds
    label = label or name
    if choices is not None:
        return None if value in choices else \
            f"{label} must be one of {choices}, got {value!r}"
    values = value if isinstance(value, (tuple, list)) else (value,)
    too_low = not all(v > lo if lo_open else v >= lo for v in values)
    too_high = hi is not None and any(v > hi for v in values)
    if not (too_low or too_high):
        return None
    if hi is None or (all(map(is_int, values)) and too_low != too_high):
        # an integer is a size or count, whose upper end is a generous cap:
        # name the one end the value is past
        end = f"{'>' if lo_open else '>='} {lo}" if too_low else f"<= {hi}"
        return f"{label} must be {end}, got {value}"
    return f"{label} must be in {'(' if lo_open else '['}{lo}, {hi}], got {value}"


def field_problems(obj):
    """One message per field of dataclass ``obj`` whose value lacks its
    annotated type; when every type is right, one per value outside its
    declared bounds. Nested sections are not entered."""
    fields = dataclasses.fields(obj)
    problems = [_type_problem(f.name, f.type, getattr(obj, f.name)) for f in fields]
    if not any(problems):
        problems = [_bound_problem(f.name, getattr(obj, f.name), f.metadata["bounds"])
                    for f in fields if "bounds" in f.metadata]
    return [p for p in problems if p]


def from_dict(base, doc):
    """``base`` with the fields that the JSON object ``doc`` names replaced,
    section by section: a section names only the fields it changes, and a
    JSON list becomes a tuple. Every unknown field and every section that
    is not an object is reported in one ``ConfigError``."""
    problems = []
    merged = _merge(base, doc, type(base).__name__, problems)
    if problems:
        raise ConfigError(problems)
    return merged


def _merge(base, doc, where, problems):
    if not isinstance(doc, dict):
        problems.append(f"{where} must be a JSON object, got {doc!r}")
        return base
    known = {f.name for f in dataclasses.fields(base)}
    if set(doc) - known:
        problems.append(f"{where}: unknown fields {sorted(set(doc) - known)}")
    changes = {}
    for name, value in doc.items():
        if name not in known:
            continue
        current = getattr(base, name)
        if dataclasses.is_dataclass(current):
            value = _merge(current, value, name, problems)
        elif isinstance(value, list):
            value = tuple(value)
        changes[name] = value
    return dataclasses.replace(base, **changes)
