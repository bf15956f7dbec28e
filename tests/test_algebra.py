import itertools

import numpy as np
import pytest

from tenderiv.algebra import (
    RankError,
    SingularTensorError,
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    dot,
    hamilton_cayley_residual,
    ident2,
    inverse2,
    invariants,
    matpow,
    one_hot2,
    one_hot4,
    outer,
    pos_ddot_left,
    pos_ddot_right,
    pos_dot,
    transpose2,
    transpose4,
)
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import random_ten2, random_ten4, trial_rng

import oracles

I = ident2()
D = np.diag([1.0, 2.0, 3.0])
E12 = one_hot2(0, 1)
E21 = one_hot2(1, 0)
E13 = one_hot2(0, 2)
C1, C2, C3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")


def maxabs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# dot
# ---------------------------------------------------------------------------

def test_dot_identity_cases():
    assert np.array_equal(dot(I, D), D)
    assert np.array_equal(dot(I, C1), C1)


def test_dot_rank4_rank2_index_evaluation():
    expected = np.zeros((3, 3, 3, 3))
    for i, j, k, l, m in itertools.product(range(3), repeat=5):
        expected[i, j, k, l] += C1[i, j, k, m] * E12[m, l]
    got = dot(C1, E12)
    assert np.array_equal(got, expected)
    hot = {(0, 0, 0, 1), (1, 1, 0, 1), (2, 2, 0, 1)}
    assert {idx for idx in zip(*np.nonzero(got))} == hot


def test_dot_rejects_unsupported_ranks():
    with pytest.raises(RankError):
        dot(C1, C2)


# ---------------------------------------------------------------------------
# double contractions
# ---------------------------------------------------------------------------

def test_ddot_seq_examples():
    assert ddot_seq(I, I) == pytest.approx(3.0)
    assert ddot_seq(E12, E12) == 0.0
    assert ddot_seq(E12, E21) == 1.0
    assert np.array_equal(ddot_seq(D, C2), D.T)


def test_ddot_cross_examples():
    assert ddot_cross(E12, E12) == 1.0
    assert ddot_cross(E12, E21) == 0.0
    assert np.array_equal(ddot_cross(E12, C3), E21)
    assert np.array_equal(ddot_cross(D, C1), 6.0 * I)


def test_ddot_pos_examples():
    assert np.array_equal(ddot_pos(D, C1), D)
    assert np.array_equal(ddot_pos(E12, C2), E21)
    assert np.array_equal(ddot_pos(D, C3), 6.0 * I)


@pytest.mark.parametrize("ranks", [(2, 2), (2, 4), (4, 2), (4, 4)])
@pytest.mark.parametrize(
    "op,oracle",
    [
        (ddot_seq, oracles.ddot_seq_oracle),
        (ddot_cross, oracles.ddot_cross_oracle),
        (ddot_pos, oracles.ddot_pos_oracle),
    ],
)
def test_ddot_matches_loop_oracle(op, oracle, ranks):
    sample = {2: random_ten2, 4: random_ten4}
    for t in range(25):
        rng = trial_rng(100, t)
        x, y = sample[ranks[0]](rng), sample[ranks[1]](rng)
        assert maxabs(np.asarray(op(x, y)) - oracle(x, y)) < 1e-13


@pytest.mark.parametrize("ranks", [(2, 2), (2, 4), (4, 2)])
def test_dot_matches_loop_oracle(ranks):
    sample = {2: random_ten2, 4: random_ten4}
    for t in range(25):
        rng = trial_rng(101, t)
        x, y = sample[ranks[0]](rng), sample[ranks[1]](rng)
        assert maxabs(dot(x, y) - oracles.dot_oracle(x, y)) < 1e-13


def test_ddot_rejects_bad_ranks():
    for op in (ddot_seq, ddot_cross, ddot_pos, dot, outer, box, boxhat):
        with pytest.raises(RankError):
            op(np.zeros(3), I)
        with pytest.raises(RankError):
            op(np.ones((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# outer products
# ---------------------------------------------------------------------------

def test_outer_examples():
    assert np.array_equal(outer(I, I), C1)
    assert np.array_equal(outer(E12, E13), one_hot4(0, 1, 0, 2))
    assert np.array_equal(outer(np.zeros((3, 3)), random_ten2(trial_rng(1, 0))),
                          np.zeros((3, 3, 3, 3)))


def test_box_examples():
    assert np.array_equal(box(I, I), C2)
    assert np.array_equal(box(E12, E13), one_hot4(0, 0, 1, 2))
    expected = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(range(3), repeat=4):
        expected[i, j, k, l] = D[i, k] * I[j, l]
    assert np.array_equal(box(D, I), expected)


def test_boxhat_examples():
    assert np.array_equal(boxhat(I, I), C3)
    assert np.array_equal(boxhat(E12, E13), one_hot4(0, 0, 2, 1))
    for t in range(25):
        rng = trial_rng(102, t)
        a, b = random_ten2(rng), random_ten2(rng)
        assert np.array_equal(boxhat(a, b), transpose4(box(a, b), "dr"))
        assert np.array_equal(box(a, b), transpose4(outer(a, b), "ti"))


@pytest.mark.parametrize(
    "op,oracle",
    [(outer, oracles.outer_oracle), (box, oracles.box_oracle),
     (boxhat, oracles.boxhat_oracle)],
)
def test_outer_products_match_loop_oracle(op, oracle):
    for t in range(10):
        rng = trial_rng(103, t)
        a, b = random_ten2(rng), random_ten2(rng)
        assert maxabs(op(a, b) - oracle(a, b)) == 0.0


# ---------------------------------------------------------------------------
# transposes
# ---------------------------------------------------------------------------

def test_transpose2():
    assert np.array_equal(transpose2(E12), E21)
    assert np.array_equal(transpose2(D), D)
    a = random_ten2(trial_rng(104, 0))
    assert np.array_equal(transpose2(transpose2(a)), a)


def test_transpose4_one_hot_images():
    hot = one_hot4(0, 1, 2, 0)
    assert np.array_equal(transpose4(hot, "ti"), one_hot4(0, 2, 1, 0))
    assert np.array_equal(transpose4(hot, "dr"), one_hot4(0, 1, 0, 2))
    assert np.array_equal(transpose4(hot, "dl"), one_hot4(1, 0, 2, 0))


def test_transpose4_iso_relations():
    assert np.array_equal(transpose4(C2, "ti"), C1)
    assert np.array_equal(transpose4(C1, "dr"), C1)


def test_transpose4_involution_and_oracle():
    for t in range(10):
        m = random_ten4(trial_rng(105, t))
        for kind in ("ti", "dr", "dl"):
            assert np.array_equal(transpose4(transpose4(m, kind), kind), m)
            assert np.array_equal(transpose4(m, kind), oracles.transpose4_oracle(m, kind))
    with pytest.raises(ValueError):
        transpose4(C1, "xy")


# ---------------------------------------------------------------------------
# positional products
# ---------------------------------------------------------------------------

def test_pos_dot_examples():
    assert np.array_equal(pos_dot(one_hot4(0, 1, 2, 0), E21, 2), one_hot4(0, 0, 2, 0))
    assert np.array_equal(pos_dot(C2, I, 2), C2)
    expected = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(range(3), repeat=4):
        expected[i, j, k, l] = I[i, k] * E12[l, j]
    assert np.array_equal(pos_dot(C2, E12, 2), expected)
    assert {idx for idx in zip(*np.nonzero(expected))} == {(0, 1, 0, 0), (1, 1, 1, 0), (2, 1, 2, 0)}


def test_pos_dot_all_slots_match_oracle():
    for t in range(10):
        rng = trial_rng(106, t)
        h, d = random_ten4(rng), random_ten2(rng)
        for n in (1, 2, 3, 4):
            assert maxabs(pos_dot(h, d, n) - oracles.pos_dot_oracle(h, d, n)) < 1e-13
    with pytest.raises(ValueError):
        pos_dot(C1, I, 5)


def test_pos_ddot_left_transposes():
    for t in range(10):
        m = random_ten4(trial_rng(107, t))
        assert np.array_equal(pos_ddot_left(C2, m, 2), transpose4(m, "ti"))
        assert np.array_equal(pos_ddot_left(C2, m, 3), transpose4(m, "dr"))
        assert np.array_equal(pos_ddot_left(C2, m, 1), transpose4(m, "dl"))
    assert np.array_equal(pos_ddot_left(C2, one_hot4(0, 1, 2, 0), 2), one_hot4(0, 2, 1, 0))
    with pytest.raises(ValueError):
        pos_ddot_left(C2, C1, 4)


def test_pos_ddot_right_transposes():
    for t in range(10):
        m = random_ten4(trial_rng(108, t))
        assert np.array_equal(pos_ddot_right(m, C2, 3), transpose4(m, "ti"))
        assert np.array_equal(pos_ddot_right(m, C2, 4), transpose4(m, "dr"))
    assert np.array_equal(pos_ddot_right(one_hot4(0, 1, 2, 0), C2, 3), one_hot4(0, 2, 1, 0))
    assert np.array_equal(pos_ddot_right(C1, C2, 3), transpose4(C1, "ti"))
    with pytest.raises(ValueError):
        pos_ddot_right(C1, C2, 1)


def test_pos_ddot_matches_loop_oracle():
    for t in range(6):
        rng = trial_rng(109, t)
        c, m = random_ten4(rng), random_ten4(rng)
        for n in (1, 2, 3):
            assert maxabs(pos_ddot_left(c, m, n) - oracles.pos_ddot_left_oracle(c, m, n)) < 1e-13
        for n in (2, 3, 4):
            assert maxabs(pos_ddot_right(m, c, n) - oracles.pos_ddot_right_oracle(m, c, n)) < 1e-13


# ---------------------------------------------------------------------------
# invariants, inverse, powers, characteristic identity
# ---------------------------------------------------------------------------

def test_invariants_values():
    assert tuple(invariants(I)) == (3.0, 3.0, 1.0)
    # elementary symmetric polynomials of the eigenvalues 1, 2, 3
    assert tuple(invariants(D)) == (6.0, 11.0, 6.0)
    assert tuple(invariants(np.zeros((3, 3)))) == (0.0, 0.0, 0.0)


def test_invariant_i3_matches_determinant():
    for t in range(25):
        a = random_ten2(trial_rng(110, t))
        assert invariants(a).i3 == pytest.approx(np.linalg.det(a), abs=1e-13)


def test_inverse2():
    assert np.allclose(inverse2(I), I)
    assert np.allclose(inverse2(D), np.diag([1.0, 0.5, 1.0 / 3.0]))
    with pytest.raises(SingularTensorError) as err:
        inverse2(one_hot2(0, 0))
    assert err.value.det == 0.0


def test_matpow():
    assert np.array_equal(matpow(D, 2), np.diag([1.0, 4.0, 9.0]))
    a = random_ten2(trial_rng(111, 0))
    assert np.array_equal(matpow(a, 0), I)
    assert np.allclose(matpow(a, 3), dot(a, matpow(a, 2)), atol=1e-14)


def test_hamilton_cayley_residual():
    assert maxabs(hamilton_cayley_residual(I)) == 0.0
    assert maxabs(hamilton_cayley_residual(D)) <= 1e-12
    for t in range(100):
        a = random_ten2(trial_rng(112, t))
        bound = 1e-12 * (1.0 + maxabs(a) ** 3)
        assert maxabs(hamilton_cayley_residual(a)) <= bound


# ---------------------------------------------------------------------------
# contraction interrelations
# ---------------------------------------------------------------------------

def test_cross_equals_seq_with_one_transpose():
    for t in range(50):
        rng = trial_rng(113, t)
        a, b = random_ten2(rng), random_ten2(rng)
        tol = 1e-12 * (1.0 + maxabs(a) * maxabs(b))
        c = ddot_cross(a, b)
        assert abs(c - ddot_seq(a, transpose2(b))) <= tol
        assert abs(c - ddot_seq(transpose2(a), b)) <= tol


def test_ddot_argument_symmetry():
    for t in range(50):
        rng = trial_rng(114, t)
        a, b = random_ten2(rng), random_ten2(rng)
        tol = 1e-12 * (1.0 + maxabs(a) * maxabs(b))
        for op in (ddot_seq, ddot_cross):
            v = op(a, b)
            assert abs(v - op(b, a)) <= tol
            assert abs(v - op(transpose2(a), transpose2(b))) <= tol


def test_dot_ddot_associativity():
    for t in range(50):
        rng = trial_rng(115, t)
        a, b, c = (random_ten2(rng) for _ in range(3))
        tol = 1e-12 * (1.0 + maxabs(a) * maxabs(b) * maxabs(c))
        assert abs(ddot_seq(a, dot(b, c)) - ddot_seq(dot(a, b), c)) <= tol
        assert abs(
            ddot_cross(a, dot(b, c))
            - ddot_cross(dot(transpose2(a), b), transpose2(c))
        ) <= tol


def test_pos_equals_cross_on_rank2():
    for t in range(50):
        rng = trial_rng(116, t)
        a, b = random_ten2(rng), random_ten2(rng)
        assert ddot_pos(a, b) == ddot_cross(a, b)


@pytest.mark.parametrize("ranks", [(2, 2), (2, 4), (4, 2), (4, 4)])
def test_cross_is_seq_through_c2(ranks):
    sample = {2: random_ten2, 4: random_ten4}
    for t in range(50):
        rng = trial_rng(117, t)
        x, y = sample[ranks[0]](rng), sample[ranks[1]](rng)
        tol = 1e-12 * (1.0 + maxabs(x) * maxabs(y))
        ref = np.asarray(ddot_cross(x, y))
        assert maxabs(np.asarray(ddot_seq(ddot_seq(x, C2), y)) - ref) <= tol
        assert maxabs(np.asarray(ddot_seq(x, ddot_seq(C2, y))) - ref) <= tol
