"""JSON input/output for matrices, fourth-rank tensors and check reports.

Schema:
  rank-2   {"matrix":  [[3 x 3 reals]], row-major}
  rank-4   {"tensor4": nested 3 x 3 x 3 x 3 arrays, slot order (1,2,3,4)}
  reports  {"reports": [CheckReport...], "all_pass": bool}

Floating-point numbers are written with 17 significant digits so a read-back
reproduces the exact 64-bit value, and the writer is deterministic: identical
data produces identical bytes.
"""

import json

import numpy as np

from .algebra import DIM


class SerializeError(ValueError):
    """Malformed or out-of-schema JSON input."""


def format_float(x):
    x = float(x)
    if not np.isfinite(x):
        raise SerializeError(f"non-finite number cannot be serialized: {x!r}")
    return format(x, ".17g")


def _is_scalar_list(obj):
    return isinstance(obj, (list, tuple)) and all(
        not isinstance(v, (list, tuple, dict)) for v in obj
    )


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
        if _is_scalar_list(obj):
            # scalar rows stay on one line for diffability
            parts.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        parts.append("[\n")
        for n, value in enumerate(obj):
            parts.append(pad + "  ")
            _write(value, parts, level + 1)
            parts.append(",\n" if n < len(obj) - 1 else "\n")
        parts.append(pad + "]")
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
    """Deterministic JSON text with 17-significant-digit floats."""
    parts = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def matrix_obj(a):
    return {"matrix": [[float(v) for v in row] for row in np.asarray(a, dtype=float)]}


def tensor4_obj(h):
    h = np.asarray(h, dtype=float)
    return {"tensor4": h.tolist()}


def _as_array(data, shape, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float
        raise SerializeError(f"{what}: not a numeric array ({exc})") from None
    if arr.shape != shape:
        raise SerializeError(f"{what}: expected shape {shape}, got {arr.shape}")
    entries = [data]
    for _ in shape:  # numpy also reads "9" and true as numbers: check the JSON values
        entries = [v for row in entries for v in row]
    if not all(type(v) in (int, float) for v in entries):
        raise SerializeError(f"{what}: not a numeric array (entries must be JSON numbers)")
    if not np.all(np.isfinite(arr)):
        raise SerializeError(f"{what}: non-finite entries")
    return arr


def parse_matrix(obj):
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SerializeError('expected an object with a "matrix" key')
    return _as_array(obj["matrix"], (DIM, DIM), "matrix")


def parse_tensor4(obj):
    if not isinstance(obj, dict) or "tensor4" not in obj:
        raise SerializeError('expected an object with a "tensor4" key')
    return _as_array(obj["tensor4"], (DIM, DIM, DIM, DIM), "tensor4")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8, so undecodable bytes are invalid JSON as well
        raise SerializeError(f"{path}: invalid JSON ({exc})") from None
