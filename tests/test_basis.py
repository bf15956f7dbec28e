import itertools

import numpy as np
import pytest

from tenderiv import algebra
from tenderiv.algebra import ddot_pos, ident2, one_hot2
from tenderiv.basis import (
    DegenerateFrameError,
    from_components,
    make_basis,
    to_components,
    verify_basis_invariance,
)
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import random_frame, random_ten2, random_ten4, trial_rng

E1, E2, E3 = np.eye(3)


def maxabs(x):
    return float(np.max(np.abs(x)))


def test_orthonormal_basis_is_self_reciprocal():
    b = make_basis(E1, E2, E3)
    assert np.array_equal(b.reciprocal, b.frame)
    assert np.array_equal(b.g_lo, np.eye(3))
    assert np.array_equal(b.g_hi, np.eye(3))


def test_skewed_basis_reciprocal_and_metric():
    b = make_basis([1, 0, 0], [1, 1, 0], [0, 0, 1])
    assert np.allclose(b.reciprocal, [[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    assert np.allclose(b.g_lo, [[1, 1, 0], [1, 2, 0], [0, 0, 1]])


def test_degenerate_frame_raises():
    with pytest.raises(DegenerateFrameError) as err:
        make_basis(E1, E1, E3)
    assert err.value.triple_product == 0.0


def test_duality_and_metric_inversion():
    for t in range(50):
        b = make_basis(*random_frame(trial_rng(200, t)))
        assert maxabs(b.frame @ b.reciprocal.T - np.eye(3)) <= 1e-12
        assert maxabs(b.g_lo @ b.g_hi - np.eye(3)) <= 1e-12
        assert maxabs(b.g_lo - b.g_lo.T) == 0.0
        assert np.all(np.linalg.eigvalsh(b.g_lo) > 0.0)


def test_orthonormal_components_are_cartesian_entries():
    b = make_basis(E1, E2, E3)
    d = np.diag([1.0, 2.0, 3.0])
    for v in itertools.product(("lo", "hi"), repeat=2):
        assert np.allclose(to_components(d, b, v), d)


def test_component_roundtrip_all_variances():
    for t in range(10):
        rng = trial_rng(201, t)
        b = make_basis(*random_frame(rng))
        a = random_ten2(rng)
        for v in itertools.product(("lo", "hi"), repeat=2):
            back = from_components(to_components(a, b, v), b, v)
            assert maxabs(back - a) <= 1e-12
        h = random_ten4(rng)
        for v in itertools.product(("lo", "hi"), repeat=4):
            back = from_components(to_components(h, b, v), b, v)
            assert maxabs(back - h) <= 1e-12


def test_mixed_components_of_unit_tensor_are_kronecker():
    for t in range(10):
        b = make_basis(*random_frame(trial_rng(202, t)))
        assert maxabs(to_components(ident2(), b, ("lo", "hi")) - np.eye(3)) <= 1e-12
        assert maxabs(from_components(np.eye(3), b, ("lo", "hi")) - ident2()) <= 1e-12


def test_zero_components_reassemble_to_zero():
    b = make_basis(*random_frame(trial_rng(207, 0)))
    assert maxabs(from_components(np.zeros((3, 3)), b, ("lo", "hi"))) == 0.0
    assert maxabs(from_components(np.zeros((3, 3, 3, 3)), b, ("hi",) * 4)) == 0.0


# Variance patterns under which each isotropic tensor keeps its Kronecker
# component form over any basis.
ISO_PATTERNS = {
    "I": [("hi", "lo", "hi", "lo"), ("hi", "lo", "lo", "hi"),
          ("lo", "hi", "hi", "lo"), ("lo", "hi", "lo", "hi")],
    "II": [("hi", "hi", "lo", "lo"), ("hi", "lo", "lo", "hi"),
           ("lo", "hi", "hi", "lo"), ("lo", "lo", "hi", "hi")],
    "III": [("hi", "hi", "lo", "lo"), ("hi", "lo", "hi", "lo"),
            ("lo", "hi", "lo", "hi"), ("lo", "lo", "hi", "hi")],
}


@pytest.mark.parametrize("kind", ["I", "II", "III"])
def test_iso_tensor_component_patterns(kind):
    c = iso_tensor(kind)
    for t in range(10):
        b = make_basis(*random_frame(trial_rng(203, t)))
        for pattern in ISO_PATTERNS[kind]:
            assert maxabs(to_components(c, b, pattern) - c) <= 1e-11
            assert maxabs(from_components(c, b, pattern) - c) <= 1e-11


OPS_AND_RANKS = [
    ("dot", (2, 2)), ("dot", (2, 4)), ("dot", (4, 2)),
    ("ddot_seq", (2, 2)), ("ddot_seq", (2, 4)), ("ddot_seq", (4, 2)), ("ddot_seq", (4, 4)),
    ("ddot_cross", (2, 2)), ("ddot_cross", (2, 4)), ("ddot_cross", (4, 2)), ("ddot_cross", (4, 4)),
    ("ddot_pos", (2, 2)), ("ddot_pos", (2, 4)), ("ddot_pos", (4, 2)), ("ddot_pos", (4, 4)),
    ("outer", (2, 2)), ("box", (2, 2)), ("boxhat", (2, 2)),
]

_SAMPLE = {2: random_ten2, 4: random_ten4}


def test_every_table_row_has_an_invariance_case():
    # keys only: the subscripts are checked by the invariance cases and loop oracles
    assert set(algebra.SUBSCRIPTS) == set(OPS_AND_RANKS)


@pytest.mark.parametrize("op,ranks", OPS_AND_RANKS)
def test_products_are_basis_invariant(op, ranks):
    for t in range(15):
        rng = trial_rng(204, t)
        b = make_basis(*random_frame(rng))
        x, y = _SAMPLE[ranks[0]](rng), _SAMPLE[ranks[1]](rng)
        vx = tuple(rng.choice(["lo", "hi"]) for _ in range(ranks[0]))
        vy = tuple(rng.choice(["lo", "hi"]) for _ in range(ranks[1]))
        report = verify_basis_invariance(op, (x, y), b, (vx, vy))
        assert report.passed, f"{op}{ranks} err={report.max_abs_err:.3e}"


def test_fixed_skewed_basis_seq_contraction():
    b = make_basis([1, 0, 0], [1, 1, 0], [0, 0, 1])
    for t in range(10):
        rng = trial_rng(208, t)
        report = verify_basis_invariance("ddot_seq", (random_ten2(rng), random_ten2(rng)), b)
        assert report.max_abs_err <= 1e-12


def test_orthonormal_basis_paths_agree_tightly():
    b = make_basis(E1, E2, E3)
    rng = trial_rng(205, 0)
    report = verify_basis_invariance("ddot_seq", (random_ten2(rng), random_ten2(rng)), b)
    assert report.max_abs_err <= 1e-15


def test_positional_unit_role_in_random_basis():
    for t in range(10):
        rng = trial_rng(206, t)
        b = make_basis(*random_frame(rng))
        a = random_ten2(rng)
        report = verify_basis_invariance("ddot_pos", (a, iso_tensor("I")), b)
        assert report.passed
        assert maxabs(ddot_pos(a, iso_tensor("I")) - a) <= 1e-12 * (1.0 + maxabs(a))


def test_unknown_operation_rejected():
    b = make_basis(E1, E2, E3)
    with pytest.raises(ValueError):
        verify_basis_invariance("cross", (np.eye(3), np.eye(3)), b)
    with pytest.raises(ValueError):
        to_components(np.eye(3), b, ("up", "dn"))
    with pytest.raises(ValueError):
        to_components(one_hot2(0, 0), b, ("lo",))
