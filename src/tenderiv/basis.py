"""Non-orthonormal frames, reciprocal vectors, metrics and component forms.

A basis holds three frame vectors r_1, r_2, r_3 and the reciprocal vectors
r^1, r^2, r^3 with r_i . r^j = d_i^j, plus the two metrics g_lo[i,j] = r_i . r_j
and g_hi[i,j] = r^i . r^j.  Tensors are stored in Cartesian components; the
functions here convert to and from components over a basis in any variance
(per-slot 'hi' = contravariant component, 'lo' = covariant component) and
re-evaluate the product operations from components with explicit metric
factors, which lets every product be checked for basis invariance.

All arithmetic in the rest of the package runs on Cartesian storage; these
conversions are inspection and verification utilities.
"""

import string
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import DIM, maxabs
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


def make_basis(v1, v2, v3, min_triple=1e-8):
    """Build a basis from three frame vectors.

    The reciprocal vectors are the rows of the inverse-transposed frame
    matrix, which enforces r_i . r^j = d_i^j exactly up to rounding.

    Raises DegenerateFrameError when the triple product of the frame is
    smaller than ``min_triple`` in magnitude.
    """
    frame = np.array([v1, v2, v3], dtype=float)
    if frame.shape != (DIM, DIM) or not np.all(np.isfinite(frame)):
        raise ValueError("make_basis: expected three finite 3-vectors")
    triple = float(np.linalg.det(frame))
    if abs(triple) < min_triple:
        raise DegenerateFrameError(triple)
    reciprocal = np.linalg.inv(frame).T
    return Basis(
        frame=frame,
        reciprocal=reciprocal,
        g_lo=frame @ frame.T,
        g_hi=reciprocal @ reciprocal.T,
    )


def _check_variance(variance, rank):
    v = tuple(variance)
    if len(v) != rank or any(tag not in ("lo", "hi") for tag in v):
        raise ValueError(f"variance {variance!r} invalid for rank-{rank} tensor")
    return v


def to_components(t, basis, variance):
    """Components of a Cartesian tensor over a basis, in the given variance.

    A slot tagged 'hi' carries a contravariant component index (extracted
    with the reciprocal vector, reassembled over the frame vector); 'lo' is
    the covariant counterpart.
    """
    t = np.asarray(t, dtype=float)
    v = _check_variance(variance, t.ndim)
    weights = [basis.reciprocal if tag == "hi" else basis.frame for tag in v]
    if t.ndim == 2:
        return np.einsum("ai,bj,ij->ab", weights[0], weights[1], t)
    if t.ndim == 4:
        return np.einsum("ai,bj,ck,dl,ijkl->abcd", *weights, t)
    raise ValueError(f"to_components: unsupported rank {t.ndim}")


def from_components(comps, basis, variance):
    """Reassemble a Cartesian tensor from components; inverse of to_components."""
    comps = np.asarray(comps, dtype=float)
    v = _check_variance(variance, comps.ndim)
    vectors = [basis.frame if tag == "hi" else basis.reciprocal for tag in v]
    if comps.ndim == 2:
        return np.einsum("ab,ai,bj->ij", comps, vectors[0], vectors[1])
    if comps.ndim == 4:
        return np.einsum("abcd,ai,bj,ck,dl->ijkl", comps, *vectors)
    raise ValueError(f"from_components: unsupported rank {comps.ndim}")


def raise_all_indices(comps, variance, basis):
    """Convert mixed-variance components to all-contravariant with the metric g_hi."""
    comps = np.asarray(comps, dtype=float)
    v = _check_variance(variance, comps.ndim)
    for axis, tag in enumerate(v):
        if tag == "lo":
            comps = np.moveaxis(np.tensordot(basis.g_hi, comps, axes=(1, axis)), 0, axis)
    return comps


def _component_form(subscripts):
    """Contravariant-component form of a Cartesian product rule.

    Each index the two operands share is renamed in the right operand, and
    the pair is joined by one factor of the covariant metric g = g_lo,
    appended as a further operand.  The new names are the last unused
    letters of the alphabet: einsum iterates summed indices in letter order,
    and names that sort first make the positional forms up to twice as slow.
    Returns the form and the number of metric factors.
    """
    inputs, out = subscripts.split("->")
    x, y = inputs.split(",")
    shared = [c for c in x if c in y]
    unused = [c for c in string.ascii_lowercase if c not in subscripts]
    rename = dict(zip(shared, unused[len(unused) - len(shared):]))
    y = "".join(rename.get(c, c) for c in y)
    metrics = [c + rename[c] for c in shared]
    return ",".join([x, y, *metrics]) + "->" + out, len(shared)


_COMPONENT_FORMS = {key: _component_form(s) for key, s in algebra.SUBSCRIPTS.items()}


def component_op(op_name, x_comps, y_comps, basis):
    """Evaluate a product from all-contravariant components with metric factors."""
    key = (op_name, (x_comps.ndim, y_comps.ndim))
    if key not in _COMPONENT_FORMS:
        raise ValueError(f"component_op: no component form for {key}")
    form, n_metrics = _COMPONENT_FORMS[key]
    return np.einsum(form, x_comps, y_comps, *(basis.g_lo,) * n_metrics)


def verify_basis_invariance(op_name, operands, basis, variances=None, tol=1e-12):
    """Compare a product computed in Cartesian storage against the component path.

    The component path converts each operand to components in the requested
    variance, raises every index with the metric, applies the explicit
    component formula of the operation and reassembles the result. The
    reported error is normalized by the magnitude of the component-path
    intermediates (component infinity-norms and the metric), so ``tol`` is a
    pure rounding allowance.
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
    if np.ndim(rc) == 0:
        reassembled = float(rc)
        err = abs(float(cartesian) - reassembled)
    else:
        reassembled = from_components(rc, basis, ("hi",) * rc.ndim)
        err = maxabs(cartesian - reassembled)

    g_mag = max(1.0, maxabs(basis.g_lo))
    scale = 1.0 + maxabs(xc) * maxabs(yc) * g_mag**2
    return CheckReport.from_measurement(
        f"basis/{op_name}",
        trials=1,
        max_abs_err=err / scale,
        tol=tol,
        seed=0,
    )
