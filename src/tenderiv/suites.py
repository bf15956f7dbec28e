"""Seeded identity suites: the checks behind `tenderiv identities`.

``run_report`` runs one row of the report table ``REPORTS`` by name and
``full_identity_suite`` runs every row in order.

Each report's trials come from one Philox generator keyed by (seed, report
name) (``reporting.fuzz_report``), whatever the execution order.

The trial functions here take ``(rng, n)`` and evaluate a block of n trials
at once: they draw the block's operands in trial-major order
(``rng.uniform_tensors``), evaluate each product once over the block's
leading trial axis, and return the block's legs: the two sides of each
identity, their rank and their normalizer.  ``fuzz_report`` measures them.
"""

import time
from functools import partial

from .algebra import ident2, maxabs, product, transpose2
from .bridge import CONVENTION_ROWS, R22, R44, to_nested_layout, to_trailing_layout
from .isotropic import KINDS, SCHEMES, contraction_role, expected_role, iso_tensor, rotate4
from .reporting import RunSummary, fuzz_report
from .rng import orthogonal_tensors, uniform_tensors


# ---------------------------------------------------------------------------
# Double-contraction identities on second-rank operands
# ---------------------------------------------------------------------------

def _err_cross_as_seq_transpose(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    c = product("ddot_cross", a, b, R22)
    return [([(c, product("ddot_seq", a, transpose2(b), R22)),
              (c, product("ddot_seq", transpose2(a), b, R22))],
             0, 1.0 + maxabs(a, 2) * maxabs(b, 2))]


def _err_ddot_symmetry(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    pairs = []
    for op in ("ddot_seq", "ddot_cross"):
        v = product(op, a, b, R22)
        pairs.append((v, product(op, b, a, R22)))
        pairs.append((v, product(op, transpose2(a), transpose2(b), R22)))
    return [(pairs, 0, 1.0 + maxabs(a, 2) * maxabs(b, 2))]


def _err_dot_ddot_associativity(rng, n):
    a, b, c = uniform_tensors(rng, n, 2, 2, 2)
    bc = product("dot", b, c, R22)
    return [([
        (product("ddot_seq", a, bc, R22), product("ddot_seq", product("dot", a, b, R22), c, R22)),
        (product("ddot_cross", a, bc, R22),
         product("ddot_cross", product("dot", transpose2(a), b, R22), transpose2(c), R22)),
    ], 0, 1.0 + maxabs(a, 2) * maxabs(b, 2) * maxabs(c, 2))]


def _err_pos_equals_cross_rank2(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    return [([(product("ddot_pos", a, b, R22), product("ddot_cross", a, b, R22))],
             0, 1.0 + maxabs(a, 2) * maxabs(b, 2))]


def _err_cross_via_seq(rx, ry, rng, n):
    x, y = uniform_tensors(rng, n, rx, ry)
    c2 = iso_tensor("II")
    ref = product("ddot_cross", x, y, (rx, ry))
    via_left = product("ddot_seq", product("ddot_seq", x, c2, (rx, 4)), y, (rx, ry))
    via_right = product("ddot_seq", x, product("ddot_seq", c2, y, (4, ry)), (rx, ry))
    return [([(via_left, ref), (via_right, ref)], rx + ry - 4,
             1.0 + maxabs(x, rx) * maxabs(y, ry))]


# ---------------------------------------------------------------------------
# Isotropic tensor roles
# ---------------------------------------------------------------------------

def _err_role(scheme, kind, side, rng, n):
    (a,) = uniform_tensors(rng, n, 2)
    return [([(contraction_role(scheme, kind, a, side), expected_role(scheme, kind, a))],
             2, 1.0 + maxabs(a, 2))]


def _err_rotation(kind, rng, n):
    # rotating every slot of C leaves it as it is, and q I q^T is I (q . I is q exactly)
    q, c = orthogonal_tensors(rng, n), iso_tensor(kind)
    return [([(rotate4(c, q), c)], 4, None),
            ([(product("dot", q, transpose2(q), R22), ident2())], 2, None)]


# ---------------------------------------------------------------------------
# Layout bridge
# ---------------------------------------------------------------------------

def _err_layout_roundtrip(rng, n):
    (m,) = uniform_tensors(rng, n, 4)
    return [([(to_trailing_layout(to_nested_layout(m)), m),
              (to_nested_layout(to_trailing_layout(m)), m)], 4, None)]


def _err_layout_constants(rng, n):
    # a fixed measurement: no operand is drawn
    c1, c2, c3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")
    return [([(to_nested_layout(c2), c1), (to_nested_layout(c3), c2),
              (to_trailing_layout(c1), c2), (to_trailing_layout(c2), c3)], 4, None)]


def _err_seq_transposers(rng, n):
    # C_II : C_II = C_III under the sequential contraction, and C_III is its unit
    c2, c3 = iso_tensor("II"), iso_tensor("III")
    (d,) = uniform_tensors(rng, n, 4)
    return [([(product("ddot_seq", c2, c2), c3)], 4, None),
            ([(product("ddot_seq", d, c3, R44), d)], 4, 1.0 + maxabs(d, 4))]


# Trial-count rules: a report's trial count when the run asks for t trials.
COUNTS = {"run": lambda t: t, "rotations": lambda t: 50, "capped": lambda t: min(t, 100),
          "once": lambda t: 1}

# name -> (block trial function, trial-count rule), in output order.
REPORTS = {
    "algebra/cross-as-seq-transpose": (_err_cross_as_seq_transpose, "run"),
    "algebra/ddot-symmetry": (_err_ddot_symmetry, "run"),
    "algebra/dot-ddot-associativity": (_err_dot_ddot_associativity, "run"),
    "algebra/pos-equals-cross-rank2": (_err_pos_equals_cross_rank2, "run"),
    **{f"algebra/cross-via-seq-{x}x{y}": (partial(_err_cross_via_seq, x, y), "run")
       for x, y in [(2, 2), (2, 4), (4, 2), (4, 4)]},
    **{f"iso/role/{s}/{k}/{side}": (partial(_err_role, s, k, side), "run")
       for s in SCHEMES for k in KINDS for side in ("left", "right")},
    **{f"iso/rotation-invariance/{k}": (partial(_err_rotation, k), "rotations")
       for k in KINDS},
    "bridge/layout-roundtrip": (_err_layout_roundtrip, "run"),
    "bridge/layout-constants": (_err_layout_constants, "once"),
    "bridge/rank2-contraction": (CONVENTION_ROWS["chain_scalar"], "run"),
    "bridge/rank4-contraction": (CONVENTION_ROWS["chain_tensor"], "run"),
    **{f"bridge/rule/{row}": (fn, "run") for row, fn in CONVENTION_ROWS.items()},
    "bridge/seq-transposer-identities": (_err_seq_transposers, "capped"),
}


def run_report(name, seed, trials, tol=1e-12):
    """Run the named report for a run of ``trials`` trials at tolerance ``tol``."""
    if name not in REPORTS:
        raise ValueError(f"unknown report {name!r}")
    trial_legs, count = REPORTS[name]
    return fuzz_report(name, seed, COUNTS[count](trials), tol, trial_legs)


def full_identity_suite(seed, trials, tol=1e-12):
    """Every report of the table in order, with wall time for the log."""
    t0 = time.perf_counter()
    reports = [run_report(name, seed, trials, tol) for name in REPORTS]
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return RunSummary(reports=reports, wall_time_ms=wall_ms)
