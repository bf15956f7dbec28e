"""JSON input/output for matrices, fourth-rank tensors and check reports.

Schema:
  rank-2   {"matrix":  [[3 x 3 reals]], row-major}
  rank-4   {"tensor4": nested 3 x 3 x 3 x 3 arrays, slot order (1,2,3,4)}
  reports  {"reports": [CheckReport...], "all_pass": bool}

Floating-point numbers are written with 17 significant digits so a read-back
reproduces the exact 64-bit value, and the writer is deterministic: identical
data produces identical bytes.
"""

import functools
import json
import math
from itertools import chain, repeat

import numpy as np

from .algebra import DIM


class SerializeError(ValueError):
    """Malformed or out-of-schema JSON input."""


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise SerializeError(f"non-finite number cannot be serialized: {x!r}")
    return format(x, ".17g")


def _array(obj):
    """Shape and row-major entries of a regular nested list of scalars, else None."""
    shape, values = [], [obj]
    while values and all(map(isinstance, values, repeat((list, tuple)))):
        shape.append(len(values[0]))
        if len(set(map(len, values))) > 1:
            return None
        values = list(chain.from_iterable(values))
    # by type, not per entry: a failed isinstance costs an attribute lookup
    if any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, values))):
        return None
    return tuple(shape), values


@functools.lru_cache(maxsize=16)
def _template(shape, level, field):
    """Text of an array of this shape at this indent level, one format field per entry."""
    if len(shape) == 1:
        # scalar rows stay on one line for diffability
        return "[" + ", ".join([field] * shape[0]) + "]"
    pad = "  " * level
    row = pad + "  " + _template(shape[1:], level + 1, field)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + pad + "]"


def _write(obj, parts, level):
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for n, (key, value) in enumerate(obj.items()):
            parts.append(f"{pad}  {json.dumps(str(key))}: ")
            _write(value, parts, level + 1)
            parts.append(",\n" if n < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        array = _array(obj)
        if array is not None:
            shape, values = array
            parts.append(_template(shape, level, "{}").format(*map(_scalar, values)))
            return
        parts.append("[\n")
        for n, value in enumerate(obj):
            parts.append(pad + "  ")
            _write(value, parts, level + 1)
            parts.append(",\n" if n < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim and obj.size:
        # the bytes of obj.tolist(), from the shape the array already knows
        values = obj.ravel().tolist()
        if not np.isfinite(obj).all():
            for value in values:
                format_float(value)  # raises at the first non-finite entry
        parts.append(_template(obj.shape, level, "{:.17g}").format(*values))
    else:
        parts.append(_scalar(obj))


def _scalar(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise SerializeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """Deterministic JSON text with 17-significant-digit floats.

    A float64 ndarray with at least one axis and one entry, given as the
    object or as a dict value, is written as its ``tolist()`` would be; other
    arrays, and arrays inside lists, are not serializable.
    """
    parts = []
    try:
        _write(obj, parts, 0)
    except RecursionError:
        raise SerializeError("cannot serialize: object nested too deeply") from None
    parts.append("\n")
    return "".join(parts)


def _as_array(obj, key, shape):
    """obj[key] as a float array of this shape, from an object holding finite JSON numbers."""
    if not isinstance(obj, dict) or key not in obj:
        raise SerializeError(f'expected an object with a "{key}" key')
    data = obj[key]
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float
        raise SerializeError(f"{key}: not a numeric array ({exc})") from None
    if arr.shape != shape:
        raise SerializeError(f"{key}: expected shape {shape}, got {arr.shape}")
    entries = [data]
    for _ in shape:  # numpy also reads "9" and true as numbers: check the JSON values
        entries = [v for row in entries for v in row]
    if not all(type(v) in (int, float) for v in entries):
        raise SerializeError(f"{key}: not a numeric array (entries must be JSON numbers)")
    if not np.isfinite(arr).all():
        raise SerializeError(f"{key}: non-finite entries")
    return arr


def parse_matrix(obj):
    return _as_array(obj, "matrix", (DIM, DIM))


def parse_tensor4(obj):
    return _as_array(obj, "tensor4", (DIM, DIM, DIM, DIM))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8, so undecodable bytes are invalid JSON as well
        raise SerializeError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise SerializeError(f"{path}: invalid JSON (nested too deeply)") from None
