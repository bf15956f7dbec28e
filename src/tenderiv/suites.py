"""Seeded identity suites: the checks behind `tenderiv identities`.

Every report normalizes its worst absolute error by (1 + product of operand
max-norms), so the configured tolerance is a pure rounding allowance.  Each
report draws from its own Philox substream; results are independent of
execution order.
"""

import time

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
from .isotropic import KINDS, SCHEMES, contraction_role, expected_role, iso_tensor, isotropy_check
from .reporting import CheckReport, RunSummary
from .rng import random_orthogonal, random_ten2, random_ten4, trial_rng


def _rng(seed, stream, trial):
    # Distinct 64-bit substream per (report, trial).
    return trial_rng(seed, (stream << 32) | trial)


def _fuzz_report(name, seed, stream, trials, tol, trial_error):
    err = 0.0
    for t in range(trials):
        err = max(err, trial_error(_rng(seed, stream, t)))
    return CheckReport.from_measurement(name, trials, err, tol, seed)


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
    reports = [
        _fuzz_report("algebra/cross-as-seq-transpose", seed, 0, trials, tol,
                     _err_cross_as_seq_transpose),
        _fuzz_report("algebra/ddot-symmetry", seed, 1, trials, tol,
                     _err_ddot_symmetry),
        _fuzz_report("algebra/dot-ddot-associativity", seed, 2, trials, tol,
                     _err_dot_ddot_associativity),
        _fuzz_report("algebra/pos-equals-cross-rank2", seed, 3, trials, tol,
                     _err_pos_equals_cross_rank2),
    ]
    for stream, (rx, ry) in enumerate([(2, 2), (2, 4), (4, 2), (4, 4)], start=4):
        reports.append(
            _fuzz_report(
                f"algebra/cross-via-seq-{rx}x{ry}", seed, stream, trials, tol,
                lambda rng, rx=rx, ry=ry: _cross_via_seq_error(
                    _RANK_SAMPLERS[rx](rng), _RANK_SAMPLERS[ry](rng)
                ),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Isotropic tensor roles
# ---------------------------------------------------------------------------

def iso_role_reports(seed, trials, tol):
    """All scheme x kind x side contractions against their closed forms."""
    reports = []
    stream = 8
    for scheme in SCHEMES:
        for kind in KINDS:
            for side in ("left", "right"):
                def trial_error(rng, scheme=scheme, kind=kind, side=side):
                    a = random_ten2(rng)
                    got = contraction_role(scheme, kind, a, side)
                    want = expected_role(scheme, kind, a)
                    return maxabs(got - want) / (1.0 + maxabs(a))

                reports.append(
                    _fuzz_report(f"iso/role/{scheme}/{kind}/{side}",
                                 seed, stream, trials, tol, trial_error)
                )
                stream += 1
    return reports


def iso_rotation_reports(seed, rotations, tol):
    """Slot-rotation invariance of each isotropic tensor under orthogonal maps."""
    reports = []
    for stream, kind in enumerate(KINDS, start=26):
        err = 0.0
        for t in range(rotations):
            q = random_orthogonal(_rng(seed, stream, t))
            err = max(err, isotropy_check(kind, q).max_abs_err)
        reports.append(
            CheckReport.from_measurement(
                f"iso/rotation-invariance/{kind}", rotations, err, tol, seed
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Layout bridge
# ---------------------------------------------------------------------------

def bridge_reports(seed, trials, tol, fd_tol=1e-9):
    """Layout roundtrip, layout constants, contraction bridges and the rule rows."""
    reports = []

    def roundtrip_error(rng):
        m = random_ten4(rng)
        return max(
            maxabs(to_trailing_layout(to_nested_layout(m)) - m),
            maxabs(to_nested_layout(to_trailing_layout(m)) - m),
        )

    reports.append(
        _fuzz_report("bridge/layout-roundtrip", seed, 29, trials, tol, roundtrip_error)
    )

    c1, c2, c3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")
    const_err = max(
        maxabs(to_nested_layout(c2) - c1),
        maxabs(to_nested_layout(c3) - c2),
        maxabs(to_trailing_layout(c1) - c2),
        maxabs(to_trailing_layout(c2) - c3),
    )
    reports.append(
        CheckReport.from_measurement("bridge/layout-constants", 1, const_err, tol, seed)
    )

    reports.append(
        _fuzz_report(
            "bridge/rank2-contraction", seed, 30, trials, tol,
            lambda rng: rank2_bridge_error(random_ten2(rng), random_ten4(rng)),
        )
    )
    reports.append(
        _fuzz_report(
            "bridge/rank4-contraction", seed, 31, trials, tol,
            lambda rng: rank4_bridge_error(random_ten4(rng), random_ten4(rng)),
        )
    )

    for row in CONVENTION_ROWS:
        reports.append(
            convention_row_check(row, seed=seed, trials=trials, tol=tol, fd_tol=fd_tol)
        )

    reports.append(check_seq_transposers(seed=seed, trials=min(trials, 100), tol=tol))
    return reports


def full_identity_suite(seed, trials, tol=1e-12):
    """Every identity suite in a fixed order, with wall time for the log."""
    t0 = time.perf_counter()
    reports = []
    reports += contraction_identity_reports(seed, trials, tol)
    reports += iso_role_reports(seed, trials, tol)
    reports += iso_rotation_reports(seed, rotations=50, tol=tol)
    reports += bridge_reports(seed, trials, tol, fd_tol=max(tol, 1e-9))
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return RunSummary(reports=reports, wall_time_ms=wall_ms)
