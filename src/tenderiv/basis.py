"""Non-orthonormal frames, reciprocal vectors, metrics and component forms.

A basis holds three frame vectors r_1, r_2, r_3 and the reciprocal vectors
r^1, r^2, r^3 with r_i . r^j = d_i^j, plus the two metrics g_lo[i,j] = r_i . r_j
and g_hi[i,j] = r^i . r^j.  Tensors are stored in Cartesian components; the
functions here convert to and from components over a basis in any variance
(per-slot 'hi' = contravariant component, 'lo' = covariant component) and
re-evaluate the product operations from components with explicit metric
factors, which lets every product be checked for basis invariance.

Every conversion is a chain of two-operand einsum steps, each contracting one
slot with the frame, reciprocal or metric matrix; a component product lowers
the paired slots of its right operand one step each, then contracts by its
SUBSCRIPTS row.  The steps share no code with algebra.product, so the
component path stays an independent check of it.  einsum's sums depend on
its operands' memory layout, so the layout of each Basis field is part of
its bits.  All arithmetic in the rest of the package runs on Cartesian
storage; these conversions are inspection and verification utilities.
"""

import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import DET_FLOOR, DIM, maxabs
from .reporting import CheckReport


class DegenerateFrameError(ValueError):
    """Frame vectors are (numerically) linearly dependent."""

    def __init__(self, triple_product):
        super().__init__(
            f"frame vectors are degenerate: triple product = {triple_product:.3e}"
        )
        self.triple_product = float(triple_product)


@dataclass(frozen=True)
class Basis:
    """Frame rows, reciprocal rows and both metrics. Rows index the vectors."""

    frame: np.ndarray
    reciprocal: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray


def _unscaled(x, k):
    """x * 2^k, and inf of x's sign past the float range (as np.ldexp gives)."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def make_basis(v1, v2, v3):
    """Build a basis from three frame vectors.

    The reciprocal vectors are r^i = (r_{i+1} x r_{i+2}) / (r_1 . r_2 x r_3),
    in Python floats on the frame rows each divided by 2^e, 2^e just above
    the row's largest |entry|: exact, and it keeps the products in range.
    An entry past the float range is inf.  These are inverse_det's steps for
    one frame, so the triple product and ``reciprocal``, in its memory layout
    too, are its determinant and transposed inverse, bit for bit; calling
    inverse_det instead cut perfbench basis-invariance throughput by 14.5%
    (median of 10 interleaved pairs).

    Raises ValueError when the arguments are not three finite 3-vectors, and
    DegenerateFrameError when the triple product of the frame is smaller
    than DET_FLOOR in magnitude, the floor below which inverse2 refuses a
    tensor.
    """
    try:
        frame = np.array([v1, v2, v3], dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, past the float range
        frame = None
    if frame is None or frame.shape != (DIM, DIM) or not np.isfinite(frame).all():
        raise ValueError("make_basis: expected three finite 3-vectors")
    rows = frame.tolist()
    e = [math.frexp(max(abs(x), abs(y), abs(z)))[1] for x, y, z in rows]
    r = [[math.ldexp(x, -k) for x in row] for row, k in zip(rows, e)]
    crosses = [_cross(r[1], r[2]), _cross(r[2], r[0]), _cross(r[0], r[1])]
    # the triple product of the scaled rows, from +0.0 as inverse_det sums it
    det = 0.0 + r[0][0] * crosses[0][0] + r[0][1] * crosses[0][1] + r[0][2] * crosses[0][2]
    triple = _unscaled(det, (e[0] + e[1]) + e[2])
    if abs(triple) < DET_FLOOR:
        raise DegenerateFrameError(triple)
    # inverse_det's layout: the transpose of a C-ordered array whose row j
    # holds component j of r^1, r^2, r^3; r^i is unscaled by frame row i's 2^e
    reciprocal = np.array([_unscaled(c / det, -k) for column in zip(*crosses)
                           for c, k in zip(column, e)]).reshape(DIM, DIM).T
    return Basis(
        frame=frame,
        reciprocal=reciprocal,
        g_lo=np.einsum("ik,jk->ij", frame, frame),
        g_hi=np.einsum("ik,jk->ij", reciprocal, reciprocal),
    )


# every valid variance of each supported rank, as a tuple of tags
_VARIANCES = {rank: frozenset(itertools.product(("lo", "hi"), repeat=rank)) for rank in (2, 4)}


def _check_variance(variance, rank):
    if rank not in _VARIANCES:
        raise ValueError(f"unsupported rank {rank}, expected 2 or 4")
    v = tuple(variance)
    try:
        valid = v in _VARIANCES[rank]
    except TypeError:  # an unhashable tag
        valid = False
    if not valid:
        raise ValueError(f"variance {variance!r} invalid for rank-{rank} tensor")
    return v


def _slot_step(rank, axis):
    """The einsum of one slot step: out[.., z, ..] = sum_i w[z, i] t[.., i, ..], i in slot axis."""
    t = string.ascii_lowercase[:rank]
    return f"z{t[axis]},{t}->{t[:axis]}z{t[axis + 1:]}"


_SLOT_STEPS = {(rank, axis): _slot_step(rank, axis) for rank in (2, 4) for axis in range(rank)}


def _contract_slots(t, variance, hi, lo):
    """t with each slot contracted with hi or lo, as its variance tag says; None leaves it."""
    t = np.asarray(t, dtype=float)
    for axis, tag in enumerate(_check_variance(variance, t.ndim)):
        weights = hi if tag == "hi" else lo
        if weights is not None:
            t = np.einsum(_SLOT_STEPS[t.ndim, axis], weights, t)
    return t


def to_components(t, basis, variance):
    """Components of a Cartesian tensor over a basis, in the given variance.

    A slot tagged 'hi' carries a contravariant component index (extracted
    with the reciprocal vector, reassembled over the frame vector); 'lo' is
    the covariant counterpart.
    """
    return _contract_slots(t, variance, basis.reciprocal, basis.frame)


def from_components(comps, basis, variance):
    """Reassemble a Cartesian tensor from components; inverse of to_components."""
    return _contract_slots(comps, variance, basis.frame.T, basis.reciprocal.T)


def raise_all_indices(comps, variance, basis):
    """Convert mixed-variance components to all-contravariant with the metric g_hi."""
    return _contract_slots(comps, variance, None, basis.g_hi)


def _component_form(subscripts):
    """Contravariant-component form of a Cartesian product rule.

    Each slot of the right operand that shares an index with the left one is
    lowered by one factor of the covariant metric g = g_lo; the rule itself
    then contracts the left operand with the lowered right one.  Returns the
    slot steps and the rule.
    """
    x, y = subscripts.split("->")[0].split(",")
    return [_SLOT_STEPS[len(y), axis] for axis, c in enumerate(y) if c in x], subscripts


_COMPONENT_FORMS = {key: _component_form(s) for key, s in algebra.SUBSCRIPTS.items()}


def component_op(op_name, x_comps, y_comps, basis):
    """Evaluate a product from all-contravariant components with metric factors."""
    key = (op_name, (x_comps.ndim, y_comps.ndim))
    if key not in _COMPONENT_FORMS:
        raise ValueError(f"component_op: no component form for {key}")
    steps, form = _COMPONENT_FORMS[key]
    for step in steps:
        y_comps = np.einsum(step, basis.g_lo, y_comps)
    return np.einsum(form, x_comps, y_comps)


def verify_basis_invariance(op_name, operands, basis, variances=None, tol=1e-12):
    """Compare a product computed in Cartesian storage against the component path.

    The component path converts each operand to components in the requested
    variance, raises every index with the metric, applies the explicit
    component formula of the operation and reassembles the result. The
    reported error is normalized by the magnitude of the component-path
    intermediates (component infinity-norms and the metric), so ``tol`` is a
    pure rounding allowance.  A normalization or an error that is not finite
    counts as a non-finite trial, which fails the report.
    """
    x, y = operands
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if variances is None:
        variances = (("hi",) * x.ndim, ("hi",) * y.ndim)
    vx, vy = variances

    cartesian = algebra.product(op_name, x, y)

    xc = raise_all_indices(to_components(x, basis, vx), vx, basis)
    yc = raise_all_indices(to_components(y, basis, vy), vy, basis)
    rc = component_op(op_name, xc, yc, basis)
    err = maxabs(cartesian - (from_components(rc, basis, ("hi",) * rc.ndim) if rc.ndim else rc))
    g_mag = max(maxabs(basis.g_lo), 1.0)  # a NaN metric entry stays NaN
    scale = 1.0 + maxabs(xc) * maxabs(yc) * (g_mag * g_mag)
    # past the float range the normalization would pass any error as 0
    error = err / scale if math.isfinite(scale) else math.nan
    return CheckReport.from_measurement(
        f"basis/{op_name}",
        trials=1,
        errors=error,
        tol=tol,
        seed=0,
    )
