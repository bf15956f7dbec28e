import itertools

import numpy as np
import pytest

from tenderiv.algebra import box, boxhat, ident2, outer, trace
from tenderiv.isotropic import (
    KINDS,
    SCHEMES,
    contraction_role,
    expected_role,
    iso_tensor,
    rotate4,
)
from tenderiv.rng import trial_rng

import oracles
from oracles import maxabs, one_hot2, random_orthogonal, random_ten2

I = ident2()
D = np.diag([1.0, 2.0, 3.0])


def test_iso_tensors_from_products():
    assert np.array_equal(iso_tensor("I"), outer(I, I))
    assert np.array_equal(iso_tensor("II"), box(I, I))
    assert np.array_equal(iso_tensor("III"), boxhat(I, I))
    with pytest.raises(ValueError):
        iso_tensor("IV")


def test_iso_tensor_kronecker_entries():
    c1, c2, c3 = (iso_tensor(k) for k in KINDS)
    for i, j, k, l in itertools.product(range(3), repeat=4):
        assert c1[i, j, k, l] == (i == j) * (k == l)
        assert c2[i, j, k, l] == (i == k) * (j == l)
        assert c3[i, j, k, l] == (i == l) * (j == k)


def test_role_spot_values():
    e12, e21 = one_hot2(0, 1), one_hot2(1, 0)
    assert np.array_equal(contraction_role("cross", "II", e12, "left"), e12)
    assert np.array_equal(contraction_role("seq", "II", e12, "right"), e21)
    assert np.array_equal(contraction_role("pos", "III", D, "left"), 6.0 * I)


def test_all_roles_against_closed_forms():
    for scheme in SCHEMES:
        for kind in KINDS:
            for side in ("left", "right"):
                for t in range(50):
                    a = random_ten2(trial_rng(300, t))
                    got = contraction_role(scheme, kind, a, side)
                    want = expected_role(scheme, kind, a)
                    assert maxabs(got - want) <= 1e-12 * (1.0 + maxabs(a))


def test_trace_role_value():
    a = random_ten2(trial_rng(301, 0))
    assert np.allclose(expected_role("cross", "I", a), trace(a) * I)


def test_role_argument_validation():
    with pytest.raises(ValueError):
        contraction_role("diag", "I", I)
    with pytest.raises(ValueError):
        contraction_role("seq", "I", I, side="middle")


def test_rotation_invariance_quarter_turn():
    q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for kind in KINDS:
        c = iso_tensor(kind)
        assert maxabs(oracles.rotate4_oracle(c, q) - c) == 0.0
        assert maxabs(rotate4(c, q) - c) <= 1e-12


def test_rotation_invariance_random_orthogonal():
    for kind in KINDS:
        for t in range(25):
            q, c = random_orthogonal(trial_rng(302, t)), iso_tensor(kind)
            err = maxabs(rotate4(c, q) - c)
            assert err <= 1e-12, f"{kind}: err={err:.3e}"


def test_rotate4_matches_loop_oracle():
    q = random_orthogonal(trial_rng(303, 0))
    c = iso_tensor("II")
    assert maxabs(rotate4(c, q) - oracles.rotate4_oracle(c, q)) <= 1e-14


def test_identity_rotation_is_exact():
    for kind in KINDS:
        c = iso_tensor(kind)
        assert maxabs(rotate4(c, np.eye(3)) - c) == 0.0


def test_improper_orthogonal_also_preserved():
    # reflections belong to the invariance group as well
    q = np.diag([1.0, 1.0, -1.0])
    for kind in KINDS:
        c = iso_tensor(kind)
        assert maxabs(rotate4(c, q) - c) <= 1e-12
