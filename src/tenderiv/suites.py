"""Seeded identity suites: the checks behind `tenderiv identities`.

Every report normalizes its worst absolute error by (1 + product of operand
max-norms), so the configured tolerance is a pure rounding allowance.  Each
fuzzed report runs through ``reporting.fuzz_report``, which draws all of its
trials from one Philox generator keyed by (seed, report name); results are
independent of execution order.
"""

import time
from functools import partial

import numpy as np

from .algebra import ddot_cross, ddot_pos, ddot_seq, dot, maxabs, transpose2
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
from .rng import random_orthogonal, random_ten2, random_ten4

# Random orthogonal maps per rotation-invariance report, whatever the trial count.
ROTATIONS = 50


# ---------------------------------------------------------------------------
# Double-contraction identities on second-rank operands
# ---------------------------------------------------------------------------

def _err_cross_as_seq_transpose(rng):
    a, b = random_ten2(rng), random_ten2(rng)
    scale = 1.0 + maxabs(a) * maxabs(b)
    c = ddot_cross(a, b)
    return max(
        abs(c - ddot_seq(a, transpose2(b))),
        abs(c - ddot_seq(transpose2(a), b)),
    ) / scale


def _err_ddot_symmetry(rng):
    a, b = random_ten2(rng), random_ten2(rng)
    scale = 1.0 + maxabs(a) * maxabs(b)
    worst = 0.0
    for op in (ddot_seq, ddot_cross):
        v = op(a, b)
        worst = max(
            worst,
            abs(v - op(b, a)),
            abs(v - op(transpose2(a), transpose2(b))),
        )
    return worst / scale


def _err_dot_ddot_associativity(rng):
    a, b, c = random_ten2(rng), random_ten2(rng), random_ten2(rng)
    scale = 1.0 + maxabs(a) * maxabs(b) * maxabs(c)
    e1 = abs(ddot_seq(a, dot(b, c)) - ddot_seq(dot(a, b), c))
    e2 = abs(
        ddot_cross(a, dot(b, c))
        - ddot_cross(dot(transpose2(a), b), transpose2(c))
    )
    return max(e1, e2) / scale


def _err_pos_equals_cross_rank2(rng):
    a, b = random_ten2(rng), random_ten2(rng)
    scale = 1.0 + maxabs(a) * maxabs(b)
    return abs(ddot_pos(a, b) - ddot_cross(a, b)) / scale


def _cross_via_seq_error(x, y):
    c2 = iso_tensor("II")
    ref = ddot_cross(x, y)
    via_left = ddot_seq(ddot_seq(x, c2), y)
    via_right = ddot_seq(x, ddot_seq(c2, y))
    scale = 1.0 + maxabs(x) * maxabs(y)
    return max(maxabs(np.asarray(via_left) - ref), maxabs(np.asarray(via_right) - ref)) / scale


_RANK_SAMPLERS = {2: random_ten2, 4: random_ten4}


def contraction_identity_reports(seed, trials, tol):
    """Identities tying the three double contractions together."""
    checks = {
        "algebra/cross-as-seq-transpose": _err_cross_as_seq_transpose,
        "algebra/ddot-symmetry": _err_ddot_symmetry,
        "algebra/dot-ddot-associativity": _err_dot_ddot_associativity,
        "algebra/pos-equals-cross-rank2": _err_pos_equals_cross_rank2,
    }
    for rx, ry in [(2, 2), (2, 4), (4, 2), (4, 4)]:
        checks[f"algebra/cross-via-seq-{rx}x{ry}"] = (
            lambda rng, rx=rx, ry=ry: _cross_via_seq_error(
                _RANK_SAMPLERS[rx](rng), _RANK_SAMPLERS[ry](rng)
            )
        )
    return [fuzz_report(name, seed, trials, tol, fn) for name, fn in checks.items()]


# ---------------------------------------------------------------------------
# Isotropic tensor roles
# ---------------------------------------------------------------------------

def _err_role(scheme, kind, side, rng):
    a = random_ten2(rng)
    got = contraction_role(scheme, kind, a, side)
    return maxabs(got - expected_role(scheme, kind, a)) / (1.0 + maxabs(a))


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
            lambda rng, kind=kind: rotation_error(kind, random_orthogonal(rng)),
        )
        for kind in KINDS
    ]


# ---------------------------------------------------------------------------
# Layout bridge
# ---------------------------------------------------------------------------

def _err_layout_roundtrip(rng):
    m = random_ten4(rng)
    return max(
        maxabs(to_trailing_layout(to_nested_layout(m)) - m),
        maxabs(to_nested_layout(to_trailing_layout(m)) - m),
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
                    lambda rng: rank2_bridge_error(random_ten2(rng), random_ten4(rng))),
        fuzz_report("bridge/rank4-contraction", seed, trials, tol,
                    lambda rng: rank4_bridge_error(random_ten4(rng), random_ten4(rng))),
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
