"""Span tracer that rebinds tenderiv's public functions by object identity.

``Tracer.install`` resolves each listed function, then walks the globals of
every loaded ``tenderiv`` module and replaces each value that *is* one of
those function objects with a recording wrapper.  Module-level dict, list and
tuple registries (one level of nesting, so ``{"row": (fn, tol)}`` counts) are
rewritten the same way, which catches call sites such as ``suites.ddot_seq``,
``isotropic.SCHEMES`` and ``basis._CARTESIAN_OPS`` without naming them, and
keeps working when a refactor moves a function between modules.  Targets that
no longer exist are skipped and read as zero.

Each call records one span: name, start, end, parent span and operation id.
Spans stay in memory (flat arrays) until ``write`` is called at the end of
the run.  Self time is a span's duration minus the durations of its direct
children.
"""

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# layer -> public functions traced in that layer
FUNCTIONS = {
    "rng": ["trial_rng", "random_ten2", "random_ten4", "random_orthogonal",
            "random_near_identity"],
    "algebra": ["dot", "ddot_seq", "ddot_cross", "ddot_pos", "outer", "box", "boxhat",
                "transpose4", "pos_dot", "invariants", "inverse2", "matpow"],
    "isotropic": ["iso_tensor", "contraction_role", "expected_role", "isotropy_check"],
    "bridge": ["to_nested_layout", "to_trailing_layout", "rank2_bridge_error",
               "rank4_bridge_error", "check_seq_transposers"],
    "suites": ["contraction_identity_reports", "iso_role_reports", "iso_rotation_reports",
               "bridge_reports"],
    "calculus": ["fd_scalar_derivative", "fd_tensor_derivative"],
    "serialize": ["dumps", "load_json", "parse_matrix", "parse_tensor4", "tensor4_obj"],
    "cli": ["main", "build_parser"],
    "basis": ["make_basis", "to_components", "raise_all_indices", "component_op",
              "from_components", "verify_basis_invariance"],
}

# The seven cross-convention rows of the layout bridge.
BRIDGE_ROWS = ["chain_scalar", "chain_tensor", "product_dot", "unit_and_transposer",
               "square", "inverse", "scalar_times_tensor"]

# The eleven catalog entries of the calculus module.
CATALOG = ["I1", "I2", "I3", "trI_pow_2", "trI_pow_3", "trI_pow_4",
           "id", "transpose", "square", "cube", "inverse"]

# Spans of these functions are named after the catalog entry they probe.
_FD_FUNCTIONS = {"calculus.fd_scalar_derivative", "calculus.fd_tensor_derivative"}


def _tenderiv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tenderiv" or name.startswith("tenderiv."))]


class Tracer:
    """Records spans for the listed tenderiv functions once installed."""

    def __init__(self):
        self.names = []          # span name id -> (function name, catalog entry or "")
        self._name_ids = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.op = 0              # operation id stamped on new spans
        self.bytes_out = 0       # characters returned by serialize.dumps
        self._stack = [-1]

    def _name_id(self, key):
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _wrap(self, name, fn):
        fixed_id = self._name_id((name, ""))
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        by_entry = name in _FD_FUNCTIONS
        counts_bytes = name == "serialize.dumps"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id
            if by_entry:
                nid = tracer._name_id((name, getattr(args[0], "name", "")))
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if counts_bytes:
                tracer.bytes_out += len(result)
            return result

        return traced

    def _targets(self):
        """id(function) -> (function, span name) for every target still present."""
        modules = {m.__name__: m for m in _tenderiv_modules()}
        found = {}
        for layer, funcs in FUNCTIONS.items():
            mod = modules.get(f"tenderiv.{layer}")
            for func in funcs:
                obj = getattr(mod, func, None)
                if callable(obj):
                    found[id(obj)] = (obj, f"{layer}.{func}")
        rows = getattr(modules.get("tenderiv.bridge"), "CONVENTION_ROWS", {})
        for row, entry in rows.items():
            obj = entry[0] if isinstance(entry, tuple) else entry
            if callable(obj):
                found[id(obj)] = (obj, f"bridge.row.{row}")
        return found

    def install(self):
        """Rebind every reference to a target inside the loaded tenderiv modules."""
        targets = self._targets()
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}

        def swap(value, depth):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                return wrappers[id(value)]
            if depth == 0:
                return value
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    new = swap(item, depth - 1)
                    if new is not item:
                        value[key] = new
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    new = swap(item, depth - 1)
                    if new is not item:
                        value[i] = new
            elif type(value) is tuple:
                items = tuple(swap(item, depth - 1) for item in value)
                if any(new is not old for new, old in zip(items, value)):
                    return items
            return value

        for mod in _tenderiv_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                new = swap(value, 2)
                if new is not value:
                    namespace[key] = new

    def write(self, path):
        """Write the recorded spans: a JSON header line, then one tab-separated span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "bytes_out": self.bytes_out}) + "\n")
            for span in zip(self.ops, self.name_ids, self.starts, self.ends, self.parents):
                fh.write("\t".join(map(str, span)) + "\n")


def read_spans(path):
    """Load a file written by ``Tracer.write`` into a Tracer holding its spans."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            op, nid, start, end, parent = map(int, line.split("\t"))
            tracer.ops.append(op)
            tracer.name_ids.append(nid)
            tracer.starts.append(start)
            tracer.ends.append(end)
            tracer.parents.append(parent)
    tracer.names = [tuple(key) for key in header["names"]]
    tracer.bytes_out = header["bytes_out"]
    return tracer


def totals(tracer):
    """(function, entry) -> [calls, self_ns, inclusive_ns] over every recorded span."""
    n = len(tracer.name_ids)
    child_ns = [0] * n
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    for parent, dur in zip(tracer.parents, durations):
        if parent >= 0:
            child_ns[parent] += dur
    out = {}
    for nid, dur, child in zip(tracer.name_ids, durations, child_ns):
        acc = out.setdefault(tracer.names[nid], [0, 0, 0])
        acc[0] += 1
        acc[1] += dur - child
        acc[2] += dur
    return out
