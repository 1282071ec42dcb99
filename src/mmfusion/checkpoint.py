"""Bit-exact parameter serialization.

Layout: a directory with ``manifest.json`` mapping parameter name to
{shape, dtype, crc32} and ``weights.bin`` holding the little-endian raw
buffers back to back in manifest order. ``crc32`` is the ``zlib.crc32`` of
the entry's bytes, so a same-size corruption of ``weights.bin`` is caught on
load instead of loading as other weights.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

from .fields import is_int

_LE = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(IOError):
    pass


def save_checkpoint(named_params, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    with open(os.path.join(out_dir, "weights.bin"), "wb") as fh:
        for name, p in named_params:
            dtype = str(p.data.dtype)
            raw = p.data.astype(_LE[dtype]).tobytes()
            fh.write(raw)
            manifest[name] = {"shape": list(p.data.shape), "dtype": dtype,
                              "crc32": zlib.crc32(raw)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(ckpt_dir):
    """Read a checkpoint directory back into {name: ndarray}, walking the
    manifest in order: each entry's bytes start where the previous entry's
    end, so no entry can point at another's. Other keys than ``shape``,
    ``dtype`` and ``crc32``, such as the ``offset`` and ``length`` that older
    checkpoints store, are ignored.

    Anything that does not describe a whole checkpoint raises
    ``CheckpointError``: an unreadable file, a manifest that is not a JSON
    object of entries, an entry without an integer ``crc32``, a ``shape``
    list numpy can build or a known ``dtype``, an entry that runs past the
    end of ``weights.bin`` or fails its checksum, or bytes after the last
    entry.
    """
    try:
        with open(os.path.join(ckpt_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(ckpt_dir, "weights.bin"), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint at {ckpt_dir}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise CheckpointError(f"corrupt manifest.json at {ckpt_dir}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt manifest.json at {ckpt_dir}: not a JSON object")
    weights, start = {}, 0
    for name, meta in manifest.items():
        weights[name], start = _read_entry(name, meta, blob, start)
    if len(blob) != start:
        raise CheckpointError(
            f"weights.bin at {ckpt_dir} has {len(blob) - start} bytes after its last entry")
    return weights


def _is_count(v):
    return is_int(v) and v >= 0


def _read_entry(name, meta, blob, start):
    """Entry ``name``'s array, read from ``blob`` at ``start``, and its end."""
    fields = ("shape", "dtype", "crc32")
    if not isinstance(meta, dict) or any(f not in meta for f in fields):
        raise CheckpointError(f"manifest entry '{name}' needs fields {list(fields)}")
    shape, dtype, crc = (meta[f] for f in fields)
    if not isinstance(dtype, str) or dtype not in _LE:
        raise CheckpointError(f"manifest entry '{name}': unknown dtype {dtype!r}")
    if not (_is_count(crc) and isinstance(shape, list) and all(_is_count(n) for n in shape)):
        raise CheckpointError(f"corrupt manifest entry '{name}': crc32 {crc!r}, shape {shape!r}")
    stop = start + math.prod(shape) * np.dtype(_LE[dtype]).itemsize
    if stop > len(blob):
        raise CheckpointError(
            f"weights.bin truncated: '{name}' needs bytes [{start}, {stop}) "
            f"but file has {len(blob)}")
    raw = memoryview(blob)[start:stop]
    if zlib.crc32(raw) != crc:
        raise CheckpointError(
            f"weights.bin bytes [{start}, {stop}) of '{name}' fail their crc32")
    try:
        arr = np.frombuffer(raw, dtype=_LE[dtype]).reshape(shape)
    except ValueError as exc:   # more axes or a larger axis than numpy allows
        raise CheckpointError(f"manifest entry '{name}': shape {shape}: {exc}") from exc
    return arr.astype(dtype), stop


def load_into(module, ckpt_dir):
    """Copy checkpoint arrays into a module's parameters in place, so an
    optimizer's arena sees them. The checkpoint must hold exactly the module's
    parameter names, with their shapes and dtypes (a checkpoint never changes
    a parameter's dtype); nothing is copied unless all of it matches."""
    weights = load_checkpoint(ckpt_dir)
    params = list(module.named_parameters())
    for name, p in params:
        if name not in weights:
            raise CheckpointError(f"checkpoint missing parameter '{name}'")
        arr = weights[name]
        if tuple(arr.shape) != tuple(p.shape):
            raise CheckpointError(
                f"parameter '{name}': checkpoint shape {arr.shape} != model {p.shape}")
        if arr.dtype != p.data.dtype:
            raise CheckpointError(
                f"parameter '{name}': checkpoint dtype {arr.dtype} != model {p.data.dtype}")
    extra = sorted(weights.keys() - {name for name, _ in params})
    if extra:
        raise CheckpointError(
            "checkpoint has parameters the model lacks: " + ", ".join(map(repr, extra)))
    for name, p in params:
        p.data[...] = weights[name]
    return module
