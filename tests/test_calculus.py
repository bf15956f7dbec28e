import itertools
from fractions import Fraction

import numpy as np
import pytest

from tenderiv.algebra import (
    SingularTensorError,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    ident2,
    inverse2,
    invariants,
    matpow,
    outer,
    trace,
    transpose2,
)
from tenderiv.calculus import (
    CATALOG,
    DomainError,
    TensorFunction,
    d_invariant,
    d_inverse,
    d_power,
    d_trace_power,
    d_transpose,
    fd_scalar_derivative,
    fd_tensor_derivative,
    product_rule_dot,
    product_rule_scalar_tensor,
)
from tenderiv.isotropic import iso_tensor
from tenderiv.rng import trial_rng

from oracles import (
    d_invariant_3_compact,
    gato_derivative,
    linearization_check,
    maxabs,
    one_hot2,
    random_invertible,
    random_near_identity,
    random_ten2,
    random_ten4,
)

I = ident2()
D = np.diag([1.0, 2.0, 3.0])
E12 = one_hot2(0, 1)
C2, C3 = iso_tensor("II"), iso_tensor("III")


def relerr(got, want):
    return maxabs(np.asarray(got) - np.asarray(want)) / max(1.0, maxabs(want))


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def test_fd_scalar_spot_values():
    a = random_ten2(trial_rng(400, 0))
    assert maxabs(fd_scalar_derivative(CATALOG["I1"], a) - I) <= 1e-9
    assert maxabs(fd_scalar_derivative(CATALOG["I3"], D) - np.diag([6.0, 3.0, 2.0])) <= 1e-9
    assert maxabs(fd_scalar_derivative(CATALOG["I2"], I) - 2.0 * I) <= 1e-9


def test_fd_tensor_spot_values():
    a = random_ten2(trial_rng(401, 0))
    assert maxabs(fd_tensor_derivative(CATALOG["id"], a) - C2) <= 1e-9
    assert maxabs(fd_tensor_derivative(CATALOG["transpose"], a) - C3) <= 1e-9
    assert maxabs(fd_tensor_derivative(CATALOG["square"], I) - 2.0 * C2) <= 1e-9


def test_fd_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        fd_scalar_derivative(CATALOG["square"], I)
    with pytest.raises(ValueError):
        fd_tensor_derivative(CATALOG["I1"], I)


def test_fd_guards_probe_points():
    # base point passes the determinant floor but an axis probe lands on zero
    a = np.diag([1.0, 1.0, 1e-5])
    assert np.allclose(inverse2(a), np.diag([1.0, 1.0, 1e5]))
    with pytest.raises(DomainError):
        fd_tensor_derivative(CATALOG["inverse"], a)
    with pytest.raises(DomainError):
        fd_tensor_derivative(CATALOG["inverse"], np.zeros((3, 3)))


def test_fd_guard_is_checked_at_every_probe_of_a_stack():
    # the stencil goes to the evaluator as one stack; the error names its point.
    # det = 1e-5 passes at the base point; the -h probe of component (2,2) is singular
    near = np.diag([1.0, 1.0, 1e-5])
    with pytest.raises(DomainError, match=r"probe \(-h\) of component \(2,2\)"):
        fd_tensor_derivative(CATALOG["inverse"], near)
    # det = 0 at the base point only: every probe moves it to about +-3.3e-6
    with pytest.raises(DomainError, match="the base point"):
        fd_tensor_derivative(CATALOG["inverse"], I - np.ones((3, 3)) / 3.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fd_takes_one_argument(name):
    fn = CATALOG[name]
    fd = fd_scalar_derivative if fn.kind == "scalar" else fd_tensor_derivative
    stack = np.stack([I + 0.3 * random_ten2(trial_rng(420, t)) for t in range(4)])
    for bad in (stack, stack[:1], stack[0, 0], np.ones((3, 3, 3, 3)), 1.0):
        with pytest.raises(ValueError, match=r"one \(3, 3\) argument") as info:
            fd(fn, bad)
        assert not isinstance(info.value, DomainError)
    assert np.shape(fd(fn, stack[0])) == np.shape(fn.deriv(stack[0]))


def test_fd_probe_points_follow_the_step_rule():
    # each component alone is probed at a[k,p] +/- 1e-5 * max(1, |a[k,p]|);
    # the whole stencil goes to the evaluator as one stack: a, then 18 probes
    a = np.diag([0.1, -4.0, 1.0])
    probes, calls = [], []

    def record(x):
        calls.append(x.shape)
        probes.extend(x.copy())
        return np.zeros(len(x))

    fd_scalar_derivative(TensorFunction("probe", "scalar", record, None), a)
    assert calls == [(19, 3, 3)]
    assert np.array_equal(probes[0], a)
    steps = {}
    for probe in probes[1:]:
        moved = probe - a
        (k,), (p,) = np.nonzero(moved)
        steps.setdefault((k, p), []).append(moved[k, p])
    assert sorted(steps) == list(itertools.product(range(3), repeat=2))
    for (k, p), got in steps.items():
        h = 1e-5 * max(1.0, abs(a[k, p]))
        assert sorted(got) == pytest.approx([-h, h], rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------

def test_gato_spot_values():
    a = random_ten2(trial_rng(402, 0))
    assert abs(gato_derivative(CATALOG["I1"], a, E12)) <= 1e-10
    assert gato_derivative(CATALOG["I1"], a, I) == pytest.approx(3.0, abs=1e-9)
    got = gato_derivative(CATALOG["square"], D, E12)
    want = E12 @ D + D @ E12  # entry (0,1) carries d1 + d2 = 3
    assert want[0, 1] == 3.0
    assert maxabs(got - want) <= 1e-9


def test_gato_matches_derivative_contraction():
    for t in range(100):
        rng = trial_rng(403, t)
        a = random_near_identity(rng)
        direction = random_ten2(rng)
        for fn in CATALOG.values():
            got = gato_derivative(fn, a, direction)
            if fn.kind == "scalar":
                want = ddot_cross(fn.deriv(a), direction)
            else:
                want = ddot_seq(fn.deriv(a), transpose2(direction))
            assert relerr(got, want) <= 1e-7, fn.name


# ---------------------------------------------------------------------------
# analytic rules
# ---------------------------------------------------------------------------

def test_d_invariant_values():
    a = random_ten2(trial_rng(404, 0))
    assert np.array_equal(d_invariant(1, a), I)
    assert np.array_equal(d_invariant(2, D), np.diag([5.0, 4.0, 3.0]))
    assert maxabs(d_invariant(3, I) - I) <= 1e-14
    with pytest.raises(ValueError):
        d_invariant(4, a)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_d_invariant_of_a_stack_equals_each_argument(k):
    args = np.stack([random_ten2(trial_rng(427, t)) for t in range(4)])
    got = d_invariant(k, args)
    assert got.shape == (4, 3, 3)
    assert np.array_equal(got, np.stack([d_invariant(k, a) for a in args]))


def test_d_invariant_3_forms_agree():
    for t in range(100):
        a = random_invertible(trial_rng(405, t))
        compact = d_invariant_3_compact(a)
        expanded = d_invariant(3, a)
        assert relerr(compact, expanded) <= 1e-12


def test_d_invariant_3_keeps_digits_near_singularity():
    # singular values (2, 1, 1e-7): det = 2e-7 sits above DET_FLOOR
    q1, _ = np.linalg.qr(random_ten2(trial_rng(426, 0)))
    q2, _ = np.linalg.qr(random_ten2(trial_rng(426, 1)))
    a = q1 @ np.diag([2.0, 1.0, 1e-7]) @ q2.T
    m = [[Fraction(float(v)) for v in row] for row in a]
    exact = np.zeros((3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        r0, r1 = [r for r in range(3) if r != i]
        c0, c1 = [c for c in range(3) if c != j]
        minor = m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
        exact[i, j] = float((-1) ** (i + j) * minor)
    assert relerr(d_invariant(3, a), exact) <= 1e-14


def test_d_invariant_3_total_on_singular_input():
    singular = np.diag([1.0, 1.0, 0.0])
    got = d_invariant(3, singular)
    i1, i2, _ = invariants(singular)
    expanded = transpose2(matpow(singular, 2)) - i1 * transpose2(singular) + i2 * I
    assert np.array_equal(got, expanded)
    assert np.allclose(got, np.diag([0.0, 0.0, 1.0]))


def test_d_trace_power():
    assert np.array_equal(d_trace_power(1, random_ten2(trial_rng(406, 0))), I)
    assert np.array_equal(d_trace_power(2, E12), 2.0 * one_hot2(1, 0))
    assert np.array_equal(d_trace_power(3, D), 3.0 * np.diag([1.0, 4.0, 9.0]))
    with pytest.raises(ValueError):
        d_trace_power(0, I)


def test_constant_derivatives():
    a = random_ten2(trial_rng(407, 0))
    assert np.array_equal(d_power(1, a), C2)
    assert np.array_equal(d_transpose(a), C3)
    assert maxabs(fd_tensor_derivative(CATALOG["id"], a) - C2) <= 1e-9
    assert maxabs(fd_tensor_derivative(CATALOG["transpose"], a) - C3) <= 1e-9


def test_d_square_entries():
    assert np.array_equal(d_power(2, I), 2.0 * C2)
    got = d_power(2, D)
    for i, j, k, p in itertools.product(range(3), repeat=4):
        want = (i == k) * D[p, j] + D[i, k] * (j == p)
        assert got[i, j, k, p] == want
    assert maxabs(fd_tensor_derivative(CATALOG["square"], D) - got) <= 1e-9


def test_d_inverse_entries():
    assert maxabs(d_inverse(2.0 * I) + 0.25 * C2) <= 1e-14
    b = np.diag([1.0, 0.5, 1.0 / 3.0])
    got = d_inverse(D)
    for i, j, k, p in itertools.product(range(3), repeat=4):
        assert got[i, j, k, p] == pytest.approx(-b[i, k] * b[p, j], abs=1e-14)
    a = random_near_identity(trial_rng(408, 0))
    assert maxabs(fd_tensor_derivative(CATALOG["inverse"], a) - d_inverse(a)) <= 1e-8


def test_d_power_matches_cube_fd():
    for t in range(10):
        a = random_ten2(trial_rng(409, t))
        assert relerr(fd_tensor_derivative(CATALOG["cube"], a), d_power(3, a)) <= 1e-8
    with pytest.raises(ValueError):
        d_power(0, I)


# ---------------------------------------------------------------------------
# chain and product rules
# ---------------------------------------------------------------------------

def test_chain_scalar_identity_inner():
    g = random_ten2(trial_rng(410, 0))
    assert maxabs(ddot_cross(g, C2) - g) == 0.0


def test_chain_scalar_trace_of_square():
    got = ddot_cross(d_invariant(1, matpow(D, 2)), d_power(2, D))
    assert np.allclose(got, d_trace_power(2, D))
    assert np.allclose(got, 2.0 * D)


def test_chain_scalar_against_composite_fd():
    composite = TensorFunction(
        "i2-of-transpose", "scalar",
        lambda s: invariants(transpose2(s)).i2, None,
    )
    for t in range(20):
        s = random_ten2(trial_rng(411, t))
        analytic = ddot_cross(d_invariant(2, transpose2(s)), d_transpose(s))
        fd = fd_scalar_derivative(composite, s)
        assert relerr(fd, analytic) <= 1e-9


def test_chain_tensor_identity_inner():
    p = random_ten4(trial_rng(412, 0))
    assert maxabs(ddot_cross(p, C2) - p) == 0.0


def test_chain_tensor_square_of_transpose():
    composite = TensorFunction(
        "square-of-transpose", "tensor",
        lambda s: matpow(transpose2(s), 2), None,
    )
    for t in range(20):
        s = random_ten2(trial_rng(413, t))
        analytic = ddot_cross(d_power(2, transpose2(s)), d_transpose(s))
        fd = fd_tensor_derivative(composite, s)
        assert relerr(fd, analytic) <= 1e-9


def test_chain_tensor_inverse_of_square():
    composite = TensorFunction(
        "inverse-of-square", "tensor",
        lambda s: inverse2(matpow(s, 2)), None,
    )
    for t in range(20):
        s = np.eye(3) + 0.2 * random_ten2(trial_rng(414, t))
        analytic = ddot_cross(d_inverse(matpow(s, 2)), d_power(2, s))
        fd = fd_tensor_derivative(composite, s)
        assert relerr(fd, analytic) <= 1e-7


def test_product_rule_dot_special_cases():
    a = random_ten2(trial_rng(415, 0))
    assert np.array_equal(product_rule_dot(a, C2, a, C2), d_power(2, a))
    la = random_ten4(trial_rng(415, 1))
    assert maxabs(product_rule_dot(a, la, I, np.zeros((3, 3, 3, 3))) - la) == 0.0


def test_product_rule_dot_gives_zero_for_inverse_pair():
    for t in range(25):
        s = random_invertible(trial_rng(416, t))
        z = product_rule_dot(s, C2, inverse2(s), d_inverse(s))
        assert maxabs(z) <= 1e-8


def test_product_rule_scalar_tensor():
    lam = random_ten2(trial_rng(417, 0))
    dlam = random_ten4(trial_rng(417, 1))
    assert np.array_equal(product_rule_scalar_tensor(lam, np.zeros((3, 3)), 1.0, dlam), dlam)

    # constant tensor times the trace: derivative is lam (x) I; the FD probes
    # arrive as one stack, so the evaluator scales lam by each probe's trace
    composite = TensorFunction(
        "trace-times-constant", "tensor",
        lambda s: np.multiply.outer(trace(s), lam), None,
    )
    for t in range(10):
        s = random_ten2(trial_rng(418, t))
        analytic = product_rule_scalar_tensor(lam, d_invariant(1, s), trace(s),
                                              np.zeros((3, 3, 3, 3)))
        assert np.array_equal(analytic, outer(lam, I))
        fd = fd_tensor_derivative(composite, s)
        assert relerr(fd, analytic) <= 1e-9


def test_product_rule_scalar_tensor_with_chain_expansion():
    composite = TensorFunction(
        "i2-times-square", "tensor",
        lambda s: np.asarray(invariants(s).i2)[..., None, None] * matpow(s, 2), None,
    )
    for t in range(10):
        s = random_ten2(trial_rng(419, t)) if t else D
        psi = invariants(s).i2
        analytic = product_rule_scalar_tensor(
            matpow(s, 2),
            ddot_cross(d_invariant(2, s), d_power(1, s)),
            psi,
            ddot_cross(d_power(2, s), d_power(1, s)),
        )
        fd = fd_tensor_derivative(composite, s)
        assert relerr(fd, analytic) <= 1e-8


# ---------------------------------------------------------------------------
# linearization and layout equivalences
# ---------------------------------------------------------------------------

def test_linearization_exact_for_linear_function():
    a, d = random_ten2(trial_rng(420, 0)), random_ten2(trial_rng(420, 1))
    assert linearization_check(CATALOG["id"], a, d) <= 1e-15


@pytest.mark.parametrize("name,base", [("square", None), ("inverse", "near-identity")])
def test_linearization_second_order(name, base):
    rng = trial_rng(421, 0)
    a = random_near_identity(rng) if base else random_ten2(rng)
    d0 = random_ten2(trial_rng(421, 1))
    res = [linearization_check(CATALOG[name], a, (0.01 * 0.5**k) * d0) for k in range(4)]
    for k in range(3):
        assert 3.5 <= res[k] / res[k + 1] <= 4.5


def test_five_contraction_spellings_of_increment_agree():
    for t in range(50):
        rng = trial_rng(422, t)
        g, da = random_ten2(rng), random_ten2(rng)
        tol = 1e-12 * (1.0 + maxabs(g) * maxabs(da))
        values = [
            ddot_cross(g, da),
            ddot_pos(g, da),
            ddot_seq(g, transpose2(da)),
            ddot_seq(transpose2(g), da),
            ddot_cross(transpose2(g), transpose2(da)),
        ]
        assert max(values) - min(values) <= tol


def test_catalog_contents():
    assert set(CATALOG) == {
        "I1", "I2", "I3", "trI_pow_2", "trI_pow_3", "trI_pow_4",
        "id", "transpose", "square", "cube", "inverse",
    }
    assert CATALOG["inverse"].func is inverse2
    with pytest.raises(SingularTensorError):
        CATALOG["inverse"].func(np.zeros((3, 3)))
    assert CATALOG["I3"].func(D) == pytest.approx(6.0)
