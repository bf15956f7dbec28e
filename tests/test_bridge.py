import numpy as np
import pytest

import tenderiv.bridge
import tenderiv.isotropic

from tenderiv.algebra import (
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    ident2,
    inverse2,
    outer,
    transpose2,
)
from tenderiv.bridge import CONVENTION_ROWS, to_nested_layout, to_trailing_layout
from tenderiv.calculus import d_inverse, d_power
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import trial_rng
from tenderiv.suites import full_identity_suite, run_report

from oracles import maxabs, one_hot2, one_hot4, random_near_identity, random_ten2, random_ten4

I = ident2()
D = np.diag([1.0, 2.0, 3.0])
C1, C2, C3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")


def test_layout_constants():
    assert np.array_equal(to_nested_layout(C2), C1)
    assert np.array_equal(to_nested_layout(C3), C2)
    assert np.array_equal(to_trailing_layout(C1), C2)
    assert np.array_equal(to_trailing_layout(C2), C3)


def test_layout_one_hot_images():
    # swap the middle pair of the hot coordinate, then the trailing pair
    assert np.array_equal(to_nested_layout(one_hot4(0, 1, 2, 0)), one_hot4(0, 2, 0, 1))
    assert np.array_equal(to_trailing_layout(one_hot4(0, 2, 0, 1)), one_hot4(0, 1, 2, 0))


def test_layout_entry_permutation():
    m = random_ten4(trial_rng(500, 0))
    nested = to_nested_layout(m)
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        assert nested[i, j, k, l] == m[i, l, j, k]


def test_layout_roundtrip_is_exact():
    for t in range(25):
        m = random_ten4(trial_rng(501, t))
        assert np.array_equal(to_trailing_layout(to_nested_layout(m)), m)
        assert np.array_equal(to_nested_layout(to_trailing_layout(m)), m)


def rank2_sides_equal(a, l1):
    # the positional contraction of a with the nested form of l1 and the cross
    # contraction with l1 sum the same products in the same order
    return np.array_equal(ddot_pos(a, to_nested_layout(l1)), ddot_cross(a, l1))


def rank4_sides_equal(l1a, l1b):
    # the positional contraction of the nested forms is the nested form of the
    # cross contraction of the trailing forms
    return np.array_equal(ddot_pos(to_nested_layout(l1a), to_nested_layout(l1b)),
                          to_nested_layout(ddot_cross(l1a, l1b)))


def test_rank2_bridge_spot_values():
    e12, e21 = one_hot2(0, 1), one_hot2(1, 0)
    # all three contraction spellings send e12 through C_III to its transpose
    assert np.array_equal(ddot_pos(e12, to_nested_layout(C3)), e21)
    assert np.array_equal(ddot_cross(e12, C3), e21)
    assert np.array_equal(ddot_seq(ddot_seq(e12, C2), C3), e21)
    assert rank2_sides_equal(I, C1)


def test_rank2_bridge_fuzz():
    for t in range(200):
        rng = trial_rng(502, t)
        assert rank2_sides_equal(random_ten2(rng), random_ten4(rng))


def test_rank4_bridge_iso_case():
    assert rank4_sides_equal(C2, C2)
    assert rank4_sides_equal(one_hot4(0, 1, 2, 0), one_hot4(2, 0, 1, 2))


def test_rank4_bridge_fuzz():
    for t in range(200):
        rng = trial_rng(503, t)
        assert rank4_sides_equal(random_ten4(rng), random_ten4(rng))


def test_seq_transposer_identities():
    assert np.array_equal(ddot_seq(C2, C2), C3)
    hot = one_hot4(0, 1, 2, 0)
    assert np.array_equal(ddot_seq(hot, C3), hot)
    report = run_report("bridge/seq-transposer-identities", 7, 100)
    assert report.passed and report.max_abs_err <= 1e-12


@pytest.mark.parametrize("row", sorted(CONVENTION_ROWS))
def test_convention_rows_pass(row):
    report = run_report(f"bridge/rule/{row}", 11, 40)
    assert report.passed, f"{row}: err={report.max_abs_err:.3e} tol={report.tol:.0e}"


def test_rule_rows_keep_algebraic_tolerance():
    # every report, the two complex-step rule rows too, is held to the requested tol
    for tol in (1e-14, 1e-12, 1e-6):
        entry_points = {
            "full_identity_suite": full_identity_suite(1, 2, tol=tol).reports,
            "run_report": [run_report(f"bridge/rule/{row}", 1, 2, tol)
                           for row in CONVENTION_ROWS],
        }
        for entry, reports in entry_points.items():
            assert len([r for r in reports if r.name.startswith("bridge/rule/")]) == 7, entry
            for r in reports:
                assert r.tol == tol, (entry, tol, r.name)


def test_reports_without_trials_are_rejected():
    with pytest.raises(ValueError):
        full_identity_suite(0, 0)
    with pytest.raises(ValueError):
        run_report("bridge/rule/square", 0, -3)


def test_convention_row_unknown():
    with pytest.raises(ValueError):
        run_report("bridge/rule/6.5", 0, 200)


def test_square_row_symmetric_spot_value():
    # for a symmetric argument the interleaved form loses its transpose
    assert np.array_equal(d_power(2, D), box(D, I) + box(I, D))


def test_inverse_row_scaled_identity_spot_value():
    got = d_inverse(2.0 * I)
    assert maxabs(got + 0.25 * C2) <= 1e-14
    b = inverse2(2.0 * I)
    assert maxabs(-box(b, transpose2(b)) - got) <= 1e-14
    assert maxabs(to_nested_layout(got) + outer(b, b)) <= 1e-14


def test_nested_forms_of_catalog_derivatives():
    for t in range(200):
        rng = trial_rng(504, t)
        a = random_ten2(rng)
        tol = 1e-12 * (1.0 + maxabs(a) ** 2)
        assert maxabs(to_nested_layout(d_power(2, a)) - (outer(I, a) + outer(a, I))) <= tol
        ai = random_near_identity(rng)
        b = inverse2(ai)
        tol_inv = 1e-12 * (1.0 + maxabs(b) ** 2)
        assert maxabs(to_nested_layout(d_inverse(ai)) + outer(b, b)) <= tol_inv


def test_interleave_transpose_chain():
    # the nested image of a dyadic product is the slot-(1,4) interleave
    for t in range(50):
        rng = trial_rng(505, t)
        a, b = random_ten2(rng), random_ten2(rng)
        assert np.array_equal(to_nested_layout(outer(a, b)), boxhat(a, b))
        assert np.array_equal(np.transpose(box(a, b), (0, 1, 3, 2)), boxhat(a, b))


def _transposing(module, op, monkeypatch):
    # module's product, with the results of op transposed
    real = module.product

    def wrong(name, x, y, ranks=None):
        out = real(name, x, y, ranks)
        return transpose2(out) if name == op else out

    monkeypatch.setattr(module, "product", wrong)


def test_unit_and_transposer_row_fails_on_a_wrong_contraction(monkeypatch):
    # a positional contraction that transposes its result swaps the roles of
    # nested C_II and nested C_III
    _transposing(tenderiv.bridge, "ddot_pos", monkeypatch)
    report = run_report("bridge/rule/unit_and_transposer", 3, 5)
    assert not report.passed


@pytest.mark.parametrize("kind", ["II", "III"])
def test_cross_roles_fail_on_a_wrong_contraction(monkeypatch, kind):
    # the cross roles of C_II and C_III, which the unit_and_transposer row
    # leaves to the iso/role rows
    name = f"iso/role/cross/{kind}/left"
    assert run_report(name, 3, 5).passed
    _transposing(tenderiv.isotropic, "ddot_cross", monkeypatch)
    assert not run_report(name, 3, 5).passed
