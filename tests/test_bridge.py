import numpy as np
import pytest

from tenderiv.algebra import (
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    ident2,
    inverse2,
    one_hot2,
    one_hot4,
    outer,
    transpose2,
)
from tenderiv.bridge import (
    CONVENTION_ROWS,
    check_seq_transposers,
    convention_row_check,
    rank2_bridge_error,
    rank4_bridge_error,
    to_nested_layout,
    to_trailing_layout,
)
from tenderiv.calculus import d_inverse, d_square
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import random_near_identity, random_ten2, random_ten4, trial_rng
from tenderiv.suites import full_identity_suite

I = ident2()
D = np.diag([1.0, 2.0, 3.0])
C1, C2, C3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")


def maxabs(x):
    return float(np.max(np.abs(x)))


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


def test_rank2_bridge_spot_values():
    e12, e21 = one_hot2(0, 1), one_hot2(1, 0)
    # all three contraction spellings send e12 through C_III to its transpose
    assert np.array_equal(ddot_pos(e12, to_nested_layout(C3)), e21)
    assert np.array_equal(ddot_cross(e12, C3), e21)
    assert np.array_equal(ddot_seq(ddot_seq(e12, C2), C3), e21)
    assert rank2_bridge_error(e12, C3) == 0.0
    assert rank2_bridge_error(I, C1) == 0.0


def test_rank2_bridge_fuzz():
    for t in range(200):
        rng = trial_rng(502, t)
        assert rank2_bridge_error(random_ten2(rng), random_ten4(rng)) <= 1e-12


def test_rank4_bridge_iso_case():
    left = ddot_pos(to_nested_layout(C2), to_nested_layout(C2))
    right = to_nested_layout(ddot_cross(C2, C2))
    assert np.array_equal(left, right)
    assert rank4_bridge_error(one_hot4(0, 1, 2, 0), one_hot4(2, 0, 1, 2)) == 0.0


def test_rank4_bridge_fuzz():
    for t in range(200):
        rng = trial_rng(503, t)
        assert rank4_bridge_error(random_ten4(rng), random_ten4(rng)) <= 1e-12


def test_seq_transposer_identities():
    assert np.array_equal(ddot_seq(C2, C2), C3)
    hot = one_hot4(0, 1, 2, 0)
    assert np.array_equal(ddot_seq(hot, C3), hot)
    report = check_seq_transposers(seed=7, trials=100)
    assert report.passed and report.max_abs_err <= 1e-12


@pytest.mark.parametrize("row", sorted(CONVENTION_ROWS))
def test_convention_rows_pass(row):
    report = convention_row_check(row, seed=11, trials=40)
    assert report.passed, f"{row}: err={report.max_abs_err:.3e} tol={report.tol:.0e}"


def test_rule_rows_keep_algebraic_tolerance():
    fd_rows = {"bridge/rule/square", "bridge/rule/inverse"}
    for tol, want_algebraic in ((1e-14, 1e-14), (1e-12, 1e-12)):
        rows = [r for r in full_identity_suite(1, 2, tol=tol).reports
                if r.name.startswith("bridge/rule/")]
        assert len(rows) == 7
        for r in rows:
            assert r.tol == (1e-9 if r.name in fd_rows else want_algebraic), r.name


def test_convention_row_unknown():
    with pytest.raises(ValueError):
        convention_row_check("6.5")


def test_square_row_symmetric_spot_value():
    # for a symmetric argument the interleaved form loses its transpose
    assert np.array_equal(d_square(D), box(D, I) + box(I, D))


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
        assert maxabs(to_nested_layout(d_square(a)) - (outer(I, a) + outer(a, I))) <= tol
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
