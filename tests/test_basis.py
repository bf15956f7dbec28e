import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from tenderiv import algebra
from tenderiv.algebra import ddot_pos, ident2
from tenderiv.basis import (
    DegenerateFrameError,
    from_components,
    make_basis,
    raise_all_indices,
    to_components,
    verify_basis_invariance,
)
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import trial_rng

from oracles import (
    from_components_oracle,
    maxabs,
    one_hot2,
    raise_all_indices_oracle,
    random_frame,
    random_ten2,
    random_ten4,
    to_components_oracle,
)

E1, E2, E3 = np.eye(3)


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


def test_make_basis_rejects_what_is_not_three_finite_3_vectors():
    message = "make_basis: expected three finite 3-vectors"
    for vectors in [
        ([10**400, 0, 0], E2, E3),  # past the float range
        ([1, 0, 0], [0, 1], [0, 0, 1]),  # ragged
        ([1, 0, 0], [0, np.nan, 0], [0, 0, 1]),
        (E1, E2, [0, 0, np.inf]),
        (E1, E2, 3.0),
        (E1, E2, [0, 0, 1, 0]),
        (E1, E2, ["a", "b", "c"]),
    ]:
        with pytest.raises(ValueError, match=message):
            make_basis(*vectors)
    # a triple product just below the floor is degenerate; the floor itself is not
    below = np.nextafter(algebra.DET_FLOOR, 0.0)
    with pytest.raises(DegenerateFrameError) as err:
        make_basis(E1, E2, [0, 0, below])
    assert err.value.triple_product == below
    assert make_basis(E1, E2, [0, 0, algebra.DET_FLOOR]).g_lo[2, 2] > 0.0


def test_reciprocal_frame_and_triple_product_match_linalg():
    for t in range(50):
        frame = random_frame(trial_rng(201, t))
        b = make_basis(*frame)
        assert maxabs(b.reciprocal - np.linalg.inv(frame).T) <= 1e-14
        triple = np.dot(frame[0], np.cross(frame[1], frame[2]))
        assert abs(algebra.inverse_det(frame)[1] - triple) <= 1e-14


@pytest.mark.parametrize("scale", [1e110, 1e160])
def test_reciprocal_frame_of_a_huge_frame_matches_linalg(scale):
    frame = scale * random_frame(trial_rng(202, 0))
    with np.errstate(over="ignore"):  # g_lo = frame frame^T is past the float range at 1e160
        b = make_basis(*frame)
    want = np.linalg.inv(frame).T
    assert maxabs(b.reciprocal - want) <= 1e-14 * maxabs(want)


def _frame_corpus():
    """Frames at scales 1e-3 to 1e300 and per-row scales of 1e+-150, with subnormal
    rows, -0.0 entries, zero entries and near-degenerate frames."""
    rng = trial_rng(215, 0)
    skewed = np.eye(3) + 0.6 * rng.uniform(-1.0, 1.0, (300, 3, 3))
    frames = [scale * skewed for scale in (1e-3, 1.0, 1e3, 1e100, 1e160, 1e200, 1e300)]
    frames.append(10.0 ** rng.uniform(-150.0, 150.0, (900, 3, 1)) * rng.uniform(-1.0, 1.0, (900, 3, 3)))
    subnormal = rng.uniform(-1.0, 1.0, (2, 300, 3, 3))
    subnormal[0, :, 0] *= 5e-320
    subnormal[1, :, 1] *= 1e-310
    subnormal[1, :, 2] *= 1e200
    frames += list(subnormal)
    for value, share in ((-0.0, 0.4), (0.0, 0.3)):
        holes = rng.uniform(-1.0, 1.0, (300, 3, 3))
        holes[rng.uniform(size=holes.shape) < share] = value
        frames.append(holes)
    # row 3 a combination of rows 1 and 2 plus a push of 1e-18 to 1e-4
    near = rng.uniform(-1.0, 1.0, (600, 3, 3))
    near[:, 2] = (rng.uniform(-1.0, 1.0, (600, 1)) * near[:, 0] + rng.uniform(-1.0, 1.0, (600, 1))
                  * near[:, 1] + 10.0 ** rng.uniform(-18.0, -4.0, (600, 1)) * near[:, 2])
    frames += [near, 1e-3 * near, np.zeros((1, 3, 3))]
    return np.concatenate(frames)


def test_make_basis_matches_the_stack_inverse_bit_for_bit():
    # make_basis builds the reciprocal frame from cross products on its own;
    # its fields and its refusals are those of algebra.inverse_det's stack path
    degenerate = 0
    for frame in _frame_corpus():
        inverse, det = algebra.inverse_det(frame[None])
        try:
            b = make_basis(*frame)
        except DegenerateFrameError as err:
            degenerate += 1
            assert abs(det[0]) < algebra.DET_FLOOR
            assert np.float64(err.triple_product).tobytes() == det[0].tobytes()
            continue
        assert abs(det[0]) >= algebra.DET_FLOOR
        reciprocal = inverse[0].T
        assert b.reciprocal.tobytes() == reciprocal.tobytes()
        # einsum's sums depend on the operands' memory layout: this pins it
        assert b.g_hi.tobytes() == np.einsum("ik,jk->ij", reciprocal, reciprocal).tobytes()
    assert 1000 < degenerate < 3000


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_reciprocal_entry_past_the_float_range_is_inf(sign):
    frame = np.array([[sign * 1e-310, 0, 0], [0, 1e200, 0], [0, 0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = make_basis(*frame)
        report = verify_basis_invariance("dot", (ident2(), ident2()), b)
    assert b.reciprocal[0, 0] == sign * np.inf
    assert b.reciprocal.tobytes() == algebra.inverse_det(frame[None])[0][0].T.tobytes()
    assert (report.passed, report.nonfinite) == (False, 1)


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
    ("pos_dot1", (4, 2)), ("pos_dot2", (4, 2)), ("pos_dot3", (4, 2)), ("pos_dot4", (4, 2)),
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


@pytest.mark.parametrize("rank", [2, 4])
def test_conversions_match_loop_oracles_for_every_variance(rank):
    for t, v in enumerate(itertools.product(("lo", "hi"), repeat=rank)):
        rng = trial_rng(209, t)
        frame = random_frame(rng)
        b = make_basis(*frame)
        x = _SAMPLE[rank](rng)
        for got, want in [
            (to_components(x, b, v), to_components_oracle(x, frame, v)),
            (from_components(x, b, v), from_components_oracle(x, frame, v)),
            (raise_all_indices(x, v, b), raise_all_indices_oracle(x, frame, v)),
        ]:
            assert maxabs(got - want) <= 1e-13 * (1.0 + maxabs(want)), v


# every row but outer, box and boxhat pairs an index of x with one of y
CONTRACTING = [(op, ranks) for op, ranks in OPS_AND_RANKS if op not in ("outer", "box", "boxhat")]


@pytest.mark.parametrize("op,ranks", CONTRACTING)
def test_contravariant_metric_in_place_of_covariant_fails(op, ranks):
    rng = trial_rng(210, CONTRACTING.index((op, ranks)))
    b = make_basis(*random_frame(rng))
    wrong = dataclasses.replace(b, g_lo=b.g_hi)
    x, y = _SAMPLE[ranks[0]](rng), _SAMPLE[ranks[1]](rng)
    assert verify_basis_invariance(op, (x, y), b).passed
    report = verify_basis_invariance(op, (x, y), wrong)
    assert not report.passed, f"{op}{ranks} err={report.max_abs_err:.3e}"


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
    for t, variance, message in [
        (np.eye(3), "hi", "variance 'hi' invalid for rank-2 tensor"),
        (np.eye(3), ("hi",), "variance ('hi',) invalid for rank-2 tensor"),
        (np.eye(3), (["hi"], "lo"), "variance (['hi'], 'lo') invalid for rank-2 tensor"),
        (np.zeros((3, 3, 3)), ("hi",) * 3, "unsupported rank 3, expected 2 or 4"),
    ]:
        with pytest.raises(ValueError) as err:
            to_components(t, b, variance)
        assert str(err.value) == message
    assert np.array_equal(to_components(np.eye(3), b, ["hi", "lo"]), np.eye(3))


# the covariant metric grows as the square of the frame scale, and the error
# normalization as its square again: past a frame scale of about 1e77 it is
# beyond the float range
@pytest.mark.parametrize("op,ranks", OPS_AND_RANKS)
def test_invariance_reports_over_frame_scales(op, ranks):
    rng = trial_rng(211, OPS_AND_RANKS.index((op, ranks)))
    frame = random_frame(rng)
    x, y = _SAMPLE[ranks[0]](rng), _SAMPLE[ranks[1]](rng)
    variances = [(("hi",) * ranks[0], ("lo",) * ranks[1]), (("lo",) * ranks[0], ("hi",) * ranks[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-2, 151, 4):
            b = make_basis(*(10.0**exponent * frame))
            for variance in variances:
                report = verify_basis_invariance(op, (x, y), b, variance)
                if exponent <= 70:
                    assert report.passed, (exponent, variance, report)
                elif exponent >= 80:  # never passes an error as 0
                    assert (report.passed, report.nonfinite) == (False, 1), (exponent, report)
                else:
                    assert report.passed or report.nonfinite == 1, (exponent, report)
