import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from tenderiv.algebra import (
    SUBSCRIPTS,
    RankError,
    SingularTensorError,
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    dot,
    ident2,
    inverse2,
    inverse_det,
    invariants,
    matpow,
    outer,
    pos_dot,
    product,
    trace,
    transpose2,
    transpose4,
)
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import trial_rng, uniform_tensors

import oracles
from oracles import hamilton_cayley_residual, maxabs, one_hot2, one_hot4, random_ten2, random_ten4

I = ident2()
D = np.diag([1.0, 2.0, 3.0])
E12 = one_hot2(0, 1)
E21 = one_hot2(1, 0)
E13 = one_hot2(0, 2)
C1, C2, C3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")


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
    with pytest.raises(ValueError, match="slot must be one of 1, 2, 3, 4, got 5"):
        pos_dot(C1, I, 5)


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


def test_singular_complex_tensor_raises_with_the_real_part_of_its_det():
    # a complex det once went through float(), whose ComplexWarning an
    # error filter raised in place of SingularTensorError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularTensorError, match=r"det = 0\.000e\+00") as err:
            inverse2(np.zeros((3, 3), complex))
    assert err.value.det == 0.0 and type(err.value.det) is float


def test_complex_argument_keeps_its_dtype():
    rng = trial_rng(115, 0)
    a = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (4, 3, 3))
    z = a + 1j * rng.uniform(-1.0, 1.0, (4, 3, 3))
    for f in (inverse2, lambda x: matpow(x, 2), lambda x: matpow(x, 0), trace,
              lambda x: invariants(x).i3):
        assert np.asarray(f(z)).dtype == complex
        assert np.asarray(f(a)).dtype == float
    assert isinstance(trace(z[0]), complex) and isinstance(product("ddot_cross", z[0], a[0]), complex)
    assert isinstance(trace(a[0]), float) and isinstance(product("ddot_cross", a[0], a[0]), float)
    # the inverse of a complex stack, to rounding, and exact powers of two
    # scale its rows part by part
    inverse = inverse2(z)
    assert maxabs(inverse - np.linalg.inv(z)) <= 1e-14 * maxabs(inverse)
    assert np.array_equal(inverse2(z[1]), inverse[1])
    assert maxabs(inverse2(1e200 * z) * 1e200 - inverse) <= 1e-14 * maxabs(inverse)


def test_inverse_det_matches_linalg_on_well_conditioned_stacks():
    rng = trial_rng(112, 0)
    stack = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (256, 3, 3))
    inverse, det = inverse_det(stack)
    assert det.shape == (256,)
    assert maxabs(det - np.linalg.det(stack)) <= 1e-14
    assert maxabs(inverse - np.linalg.inv(stack)) <= 1e-14
    assert np.array_equal(inverse2(stack), inverse)
    # a single tensor gives the same bits as its item of the stack
    for t in (0, 17, 255):
        single_inverse, single_det = inverse_det(stack[t])
        assert np.array_equal(single_inverse, inverse[t]) and single_det == det[t]
        assert np.array_equal(inverse2(stack[t]), inverse[t])
    # also at the edges: a det or an unscaling past the float range, det 0,
    # and entries that are not finite
    base = stack[17]
    rows = np.array([[1e300], [1.0], [1e-300]])
    subnormal = base.copy()
    subnormal[1] *= 5e-324
    subnormal[2, 0] = -2.5e-310
    adversarial = [
        rows * base, rows[::-1] * base,
        np.array([[1e300], [1e300], [1.0]]) * base,  # det 1e600
        np.array([[1e-300], [1e-300], [1.0]]) * base,  # det 1e-600, inverse 1e300
        np.vstack([np.full(3, -0.0), base[1:]]), subnormal,
        base[[0, 1, 1]], 1e-300 * base[[2, 0, 2]],  # a repeated row: det exactly 0
    ]
    for value in (np.inf, -np.inf, np.nan):
        for at in ((0, 0), (1, 2), (2, 1)):
            adversarial.append(base.copy())
            adversarial[-1][at] = value
    adversarial.append(np.full((3, 3), np.nan))
    for a in adversarial:
        single_inverse, single_det = inverse_det(a)
        stack_inverse, stack_det = inverse_det(a[None])
        assert single_inverse.tobytes() == stack_inverse[0].tobytes()
        assert np.float64(single_det).tobytes() == stack_det[0].tobytes()
        try:
            want = inverse2(a[None])[0]
        except SingularTensorError as stack_error:
            with pytest.raises(SingularTensorError) as err:
                inverse2(a)
            assert str(err.value) == str(stack_error)
            assert err.value.index == stack_error.index == 0
        else:
            assert inverse2(a).tobytes() == want.tobytes()


# a scale per row: the wide stack's rows differ by 1e260, so scaling each
# item by one power of two would underflow the cofactors of row 0
@pytest.mark.parametrize("scale", [1e-100, 1e110, 1e160, np.array([[1e160], [1.0], [1e-100]])],
                         ids=["1e-100", "1e+110", "1e+160", "wide"])
def test_inverse_det_has_the_range_of_linalg(scale):
    stack = scale * (np.eye(3) + 0.3 * trial_rng(114, 0).uniform(-1.0, 1.0, (16, 3, 3)))
    inverse, det = inverse_det(stack)
    want = np.linalg.inv(stack)
    assert maxabs(inverse - want) <= 1e-14 * maxabs(want)
    with np.errstate(over="ignore"):
        want_det = np.linalg.det(stack)
    # past the float range both are inf
    assert np.array_equal(np.isinf(det), np.isinf(want_det))
    finite = np.isfinite(want_det)
    assert np.all(np.abs(det[finite] - want_det[finite]) <= 1e-13 * np.abs(want_det[finite]))
    if np.prod(scale) > 1.0:
        assert np.array_equal(inverse2(stack), inverse)
    else:  # det about 1e-300, below the absolute floor
        with pytest.raises(SingularTensorError):
            inverse2(stack)


def test_det_of_a_negative_zero_row_is_positive_zero():
    # every term of the row-0 expansion is -0.0; the sum starts from +0.0
    a = np.array([[-0.0, -0.0, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    det = inverse_det(a)[1]
    assert det == 0.0 and not np.signbit(det)
    with pytest.raises(SingularTensorError, match=r"det = 0\.000e\+00"):
        inverse2(a)


def test_inverse2_reports_the_first_singular_item():
    stack = np.eye(3) + 0.3 * random_ten2(trial_rng(113, 0)) * np.ones((6, 1, 1))
    stack[2, 2] = stack[2, 1]  # a repeated row: det exactly 0
    stack[4] = 1e-3 * np.eye(3)  # det 1e-9, also below the floor
    with pytest.raises(SingularTensorError) as err:
        inverse2(stack)
    assert (err.value.det, err.value.index) == (0.0, 2)
    assert inverse_det(stack)[1][4] == pytest.approx(1e-9)
    with pytest.raises(SingularTensorError) as err:
        inverse2(stack[3:])
    assert err.value.det == pytest.approx(1e-9) and err.value.index == 1


def test_matpow():
    assert np.array_equal(matpow(D, 2), np.diag([1.0, 4.0, 9.0]))
    a = random_ten2(trial_rng(111, 0))
    assert np.array_equal(matpow(a, 0), I)
    assert np.allclose(matpow(a, 3), dot(a, matpow(a, 2)), atol=1e-14)


def test_hamilton_cayley_residual():
    assert maxabs(hamilton_cayley_residual(I, *invariants(I))) == 0.0
    assert maxabs(hamilton_cayley_residual(D, *invariants(D))) <= 1e-12
    for t in range(100):
        a = random_ten2(trial_rng(112, t))
        bound = 1e-12 * (1.0 + maxabs(a) ** 3)
        assert maxabs(hamilton_cayley_residual(a, *invariants(a))) <= bound


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


# ---------------------------------------------------------------------------
# batched kernel memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [19, 128])
def test_product_results_own_their_memory(n):
    rng = trial_rng(120, n)
    operands = {rank: rng.uniform(-1.0, 1.0, (2, n) + (3,) * rank) for rank in (2, 4)}
    kept = []
    previous = None
    for op, (rx, ry) in SUBSCRIPTS:
        x, y = operands[rx][0], operands[ry][1]
        out = product(op, x, y, (rx, ry))
        assert out.shape[0] == n
        for other in [x, y] + ([] if previous is None else [previous]):
            assert not np.shares_memory(out, other), (op, rx, ry)
        previous = out
        if len(kept) < 2:
            kept.append((out, out.copy()))
    # the first two results stay as they were through every later call
    for out, copy in kept:
        assert np.array_equal(out, copy)
    inverse, det = inverse_det(operands[2][0])
    assert not np.shares_memory(inverse, operands[2][0])
    assert not np.shares_memory(det, operands[2][0])


def test_inverse_det_results_own_their_memory():
    # inverse_det's results are fresh arrays, which a later product leaves alone
    stack = np.eye(3) + 0.3 * trial_rng(122, 0).uniform(-1.0, 1.0, (19 * 256, 3, 3))
    inverse, det = inverse_det(stack)
    kept = inverse.copy(), det.copy()
    for out in (inverse, det):
        assert not np.shares_memory(out, stack)
    product("dot", stack, stack, (2, 2))
    assert np.array_equal(inverse, kept[0]) and np.array_equal(det, kept[1])


@pytest.mark.parametrize("op", ["ddot_seq", "ddot_cross", "ddot_pos"])
def test_split_product_peak_memory_stays_near_its_result(op):
    # whole, the 729 x 128 terms of two 128-item fourth-rank stacks take 9
    # results' bytes and their sum peaks at 17; summed in parts (see
    # algebra._SPLIT), it peaks at 5
    rng = trial_rng(121, 0)
    x, y = rng.uniform(-1.0, 1.0, (2, 128, 3, 3, 3, 3))
    product(op, x, y, (4, 4))
    # tracemalloc sees numpy's data allocations
    tracemalloc.start()
    try:
        out = product(op, x, y, (4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 128 * 81 * 8
    assert peak <= 6 * out.nbytes, peak


def test_drawn_stacks_are_read_in_place():
    # uniform_tensors lays a block's stacks out trial-innermost, the order
    # product sums in, as views of one buffer; product then reads them
    # without copying: two 512-item fourth-rank stacks peak at 3 times the
    # result's bytes, and C-ordered copies of them at 5 (tracemalloc)
    x, y = uniform_tensors(trial_rng(122, 0), 512, 4, 4)
    assert x.strides[0] == y.strides[0] == x.itemsize
    assert x.base is not None and x.base is y.base

    def peak_per_result(x, y):
        product("ddot_cross", x, y, (4, 4))
        tracemalloc.start()
        try:
            out = product("ddot_cross", x, y, (4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (512, 3, 3, 3, 3)
        return peak / out.nbytes

    assert peak_per_result(x, y) <= 4
    assert peak_per_result(np.ascontiguousarray(x), np.ascontiguousarray(y)) <= 6


@pytest.mark.parametrize("n", [1, 2])
def test_matpow_keeps_a_trial_innermost_stack_trial_innermost(n):
    # so product reads matpow's result without copying it: d_power(2, a)
    # multiplies by matpow(a, 1), and bridge/rule/square's complex step is
    # matpow(z, 2); the bits do not change
    u, e = uniform_tensors(trial_rng(123, 0), 64, 2, 2)
    for a in (u, u + 1j * (1e-30 * e)):
        got = matpow(a, n)
        assert got.strides[0] == got.itemsize
        assert np.array_equal(got, matpow(np.ascontiguousarray(a), n))
