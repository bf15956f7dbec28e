"""Seeded identity suites: the checks behind `tenderiv identities`.

Every report normalizes its worst absolute error by (1 + product of operand
max-norms), so the configured tolerance is a pure rounding allowance.  Each
fuzzed report runs through ``reporting.fuzz_report``, which draws all of its
trials from one Philox generator keyed by (seed, report name); results are
independent of execution order.

The trial functions here take ``(rng, n)`` and evaluate a block of n trials
at once: they draw the block's operands in trial-major order
(``rng.uniform_tensors``) and evaluate each product once over the block's
leading trial axis, returning the n trial errors.
"""

import time
from functools import partial

import numpy as np

from .algebra import maxabs, product, transpose2
from .bridge import (
    CONVENTION_ROWS,
    check_seq_transposers,
    convention_row_check,
    rank2_bridge_error,
    rank4_bridge_error,
    to_nested_layout,
    to_trailing_layout,
)
from .isotropic import KINDS, SCHEMES, contraction_role, expected_role, iso_tensor, rotation_error
from .reporting import CheckReport, RunSummary, fuzz_report
from .rng import orthogonal_tensors, uniform_tensors

# Random orthogonal maps per rotation-invariance report, whatever the trial count.
ROTATIONS = 50

R22 = (2, 2)


# ---------------------------------------------------------------------------
# Double-contraction identities on second-rank operands
# ---------------------------------------------------------------------------

def _err_cross_as_seq_transpose(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    scale = 1.0 + maxabs(a, 2) * maxabs(b, 2)
    c = product("ddot_cross", a, b, R22)
    return np.maximum(
        np.abs(c - product("ddot_seq", a, transpose2(b), R22)),
        np.abs(c - product("ddot_seq", transpose2(a), b, R22)),
    ) / scale


def _err_ddot_symmetry(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    scale = 1.0 + maxabs(a, 2) * maxabs(b, 2)
    diffs = []
    for op in ("ddot_seq", "ddot_cross"):
        v = product(op, a, b, R22)
        diffs.append(np.abs(v - product(op, b, a, R22)))
        diffs.append(np.abs(v - product(op, transpose2(a), transpose2(b), R22)))
    return np.maximum.reduce(diffs) / scale


def _err_dot_ddot_associativity(rng, n):
    a, b, c = uniform_tensors(rng, n, 2, 2, 2)
    scale = 1.0 + maxabs(a, 2) * maxabs(b, 2) * maxabs(c, 2)
    bc = product("dot", b, c, R22)
    e1 = np.abs(product("ddot_seq", a, bc, R22)
                - product("ddot_seq", product("dot", a, b, R22), c, R22))
    e2 = np.abs(
        product("ddot_cross", a, bc, R22)
        - product("ddot_cross", product("dot", transpose2(a), b, R22), transpose2(c), R22)
    )
    return np.maximum(e1, e2) / scale


def _err_pos_equals_cross_rank2(rng, n):
    a, b = uniform_tensors(rng, n, 2, 2)
    scale = 1.0 + maxabs(a, 2) * maxabs(b, 2)
    return np.abs(product("ddot_pos", a, b, R22) - product("ddot_cross", a, b, R22)) / scale


def _err_cross_via_seq(rx, ry, rng, n):
    x, y = uniform_tensors(rng, n, rx, ry)
    c2 = iso_tensor("II")
    out_rank = rx + ry - 4
    ref = product("ddot_cross", x, y, (rx, ry))
    via_left = product("ddot_seq", product("ddot_seq", x, c2, (rx, 4)), y, (rx, ry))
    via_right = product("ddot_seq", x, product("ddot_seq", c2, y, (4, ry)), (rx, ry))
    scale = 1.0 + maxabs(x, rx) * maxabs(y, ry)
    return np.maximum(maxabs(via_left - ref, out_rank), maxabs(via_right - ref, out_rank)) / scale


def contraction_identity_reports(seed, trials, tol):
    """Identities tying the three double contractions together."""
    checks = {
        "algebra/cross-as-seq-transpose": _err_cross_as_seq_transpose,
        "algebra/ddot-symmetry": _err_ddot_symmetry,
        "algebra/dot-ddot-associativity": _err_dot_ddot_associativity,
        "algebra/pos-equals-cross-rank2": _err_pos_equals_cross_rank2,
    }
    for rx, ry in [(2, 2), (2, 4), (4, 2), (4, 4)]:
        checks[f"algebra/cross-via-seq-{rx}x{ry}"] = partial(_err_cross_via_seq, rx, ry)
    return [fuzz_report(name, seed, trials, tol, fn) for name, fn in checks.items()]


# ---------------------------------------------------------------------------
# Isotropic tensor roles
# ---------------------------------------------------------------------------

def _err_role(scheme, kind, side, rng, n):
    (a,) = uniform_tensors(rng, n, 2)
    got = contraction_role(scheme, kind, a, side)
    return maxabs(got - expected_role(scheme, kind, a), 2) / (1.0 + maxabs(a, 2))


def iso_role_reports(seed, trials, tol):
    """All scheme x kind x side contractions against their closed forms."""
    return [
        fuzz_report(f"iso/role/{scheme}/{kind}/{side}", seed, trials, tol,
                    partial(_err_role, scheme, kind, side))
        for scheme in SCHEMES for kind in KINDS for side in ("left", "right")
    ]


def iso_rotation_reports(seed, tol):
    """Slot-rotation invariance of each isotropic tensor under orthogonal maps."""
    return [
        fuzz_report(
            f"iso/rotation-invariance/{kind}", seed, ROTATIONS, tol,
            lambda rng, n, kind=kind: rotation_error(kind, orthogonal_tensors(rng, n)),
        )
        for kind in KINDS
    ]


# ---------------------------------------------------------------------------
# Layout bridge
# ---------------------------------------------------------------------------

def _err_layout_roundtrip(rng, n):
    (m,) = uniform_tensors(rng, n, 4)
    return np.maximum(
        maxabs(to_trailing_layout(to_nested_layout(m)) - m, 4),
        maxabs(to_nested_layout(to_trailing_layout(m)) - m, 4),
    )


def bridge_reports(seed, trials, tol):
    """Layout roundtrip, layout constants, contraction bridges and the rule rows."""
    c1, c2, c3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")
    const_err = max(
        maxabs(to_nested_layout(c2) - c1),
        maxabs(to_nested_layout(c3) - c2),
        maxabs(to_trailing_layout(c1) - c2),
        maxabs(to_trailing_layout(c2) - c3),
    )
    return [
        fuzz_report("bridge/layout-roundtrip", seed, trials, tol, _err_layout_roundtrip),
        CheckReport.from_measurement("bridge/layout-constants", 1, const_err, tol, seed),
        fuzz_report("bridge/rank2-contraction", seed, trials, tol,
                    lambda rng, n: rank2_bridge_error(*uniform_tensors(rng, n, 2, 4))),
        fuzz_report("bridge/rank4-contraction", seed, trials, tol,
                    lambda rng, n: rank4_bridge_error(*uniform_tensors(rng, n, 4, 4))),
        *(convention_row_check(row, seed, trials, tol) for row in CONVENTION_ROWS),
        check_seq_transposers(seed, min(trials, 100), tol),
    ]


def full_identity_suite(seed, trials, tol=1e-12):
    """Every identity suite in a fixed order, with wall time for the log."""
    t0 = time.perf_counter()
    reports = []
    reports += contraction_identity_reports(seed, trials, tol)
    reports += iso_role_reports(seed, trials, tol)
    reports += iso_rotation_reports(seed, tol)
    reports += bridge_reports(seed, trials, tol)
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return RunSummary(reports=reports, wall_time_ms=wall_ms)
