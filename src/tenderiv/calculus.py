"""Derivatives of scalar and tensor functions of a second-rank tensor argument.

All nine Cartesian components of the argument are treated as independent (no
symmetry projection).  Derivatives of tensor-valued functions use the trailing
layout throughout: entry (i, j, k, p) is dF[i,j] / dA[k,p]; for scalar
functions entry (i, j) is df / dA[i,j].  The nested layout used by part of
the literature is reached through the bridge module.  The chain rule for a
function of a tensor-valued inner function is the cross double contraction
of the outer derivative with the inner one, ``ddot_cross(dphi_da, da_ds)``.

The finite-difference functions are deliberately independent of the analytic
rules: they probe the evaluator componentwise with central differences and
serve as the oracle of ``deriv --fd-check``.  The step for component (k, p)
is h = FD_STEP * max(1, |A[k,p]|); they take one argument.  The catalog
evaluators and the analytic rules d_invariant, d_power, d_inverse,
product_rule_dot and product_rule_scalar_tensor also take a stack of
arguments along leading axes, one trial per item; d_power(1, .) (the ``id``
entry) and d_transpose return their one (3, 3, 3, 3) constant for a stack,
which broadcasts against it.  The evaluators keep a complex argument
complex, for bridge's complex-step oracle.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    DIM,
    SingularTensorError,
    ident2,
    inverse2,
    invariants,
    matpow,
    pos_dot,
    product,
    trace,
    transpose2,
)
from .isotropic import iso_tensor


# Base step of every central difference in this module.
FD_STEP = 1e-5


class DomainError(ValueError):
    """Function (or one of its finite-difference probes) left its domain."""


@dataclass(frozen=True)
class TensorFunction:
    """Catalog entry: an evaluator paired with its analytic derivative rule.

    ``kind`` is 'scalar' or 'tensor'.  ``deriv`` returns the trailing-layout
    derivative (second rank for scalar functions, fourth rank for tensor
    functions).  ``func`` takes one argument or a stack of arguments along
    leading axes and answers item by item: the finite differences hand it
    the 19 points of one argument's stencil as one stack.  It raises
    SingularTensorError outside its domain.
    """

    name: str
    kind: str
    func: Callable[[np.ndarray], object]
    deriv: Callable[[np.ndarray], np.ndarray]


_STENCIL = 1 + 2 * DIM * DIM

# the stencil points that move flat component c = DIM * k + p of the argument:
# point 1 + 2c by +h, point 2 + 2c by -h
_COMPONENTS = np.arange(DIM * DIM)
_PLUS, _MINUS = 1 + 2 * _COMPONENTS, 2 + 2 * _COMPONENTS


def _stencil_point(j):
    """Point j of an argument's FD stencil: the base point, then (+h, -h) per component."""
    if j == 0:
        return "the base point"
    k, p = divmod((j - 1) // 2, DIM)
    return f"probe ({'+-'[(j - 1) % 2]}h) of component ({k},{p})"


def _central_differences(fn, a, value_shape):
    """Central difference over each component of the argument, written to out[..., k, p].

    The stencil, the base point and then its 18 probes, goes through one
    call of fn.func; a SingularTensorError there is a DomainError naming the
    first singular point in stencil order.  Raises ValueError when a is not
    one (3, 3) argument.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (DIM, DIM):
        raise ValueError(f"{fn.name}: finite differences take one (3, 3) argument, "
                         f"got shape {a.shape}")
    h = FD_STEP * np.maximum(1.0, np.abs(a))
    stencil = np.broadcast_to(a, (_STENCIL, DIM, DIM)).copy()
    points = stencil.reshape((_STENCIL, DIM * DIM))
    points[_PLUS, _COMPONENTS] = a.ravel() + h.ravel()
    points[_MINUS, _COMPONENTS] = a.ravel() - h.ravel()
    try:
        values = fn.func(stencil)
    except SingularTensorError as exc:
        raise DomainError(f"{fn.name}: domain guard fails at "
                          f"{_stencil_point(exc.index)}") from None
    values = np.reshape(values, (_STENCIL,) + value_shape)
    step = 2.0 * h.reshape((DIM * DIM,) + (1,) * len(value_shape))
    out = ((values[_PLUS] - values[_MINUS]) / step).reshape((DIM, DIM) + value_shape)
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def fd_scalar_derivative(fn, a):
    """Central-difference derivative of a scalar-valued catalog entry."""
    if fn.kind != "scalar":
        raise ValueError(f"{fn.name} is not scalar-valued")
    return _central_differences(fn, a, ())


def fd_tensor_derivative(fn, a):
    """Central-difference derivative of a tensor-valued catalog entry (trailing layout)."""
    if fn.kind != "tensor":
        raise ValueError(f"{fn.name} is not tensor-valued")
    return _central_differences(fn, a, (DIM, DIM))


# ---------------------------------------------------------------------------
# Analytic rules
# ---------------------------------------------------------------------------

def d_invariant(k, a):
    """Derivative of the k-th principal invariant, k in {1, 2, 3}.

    k = 1: I.  k = 2: tr(A) I - A^T.  k = 3: the expanded form
    (A^2)^T - tr(A) A^T + i2 I; it is total, and near a singular argument it
    keeps full precision where the compact form loses digits with det(A).
    A stack of arguments gives one derivative per item.
    """
    if k == 1:
        return np.broadcast_to(ident2(), np.shape(a)).copy()
    if k == 2:
        return np.multiply.outer(trace(a), ident2()) - transpose2(a)
    if k == 3:
        i1, i2, _ = invariants(a)
        return (transpose2(matpow(a, 2)) - np.expand_dims(i1, (-2, -1)) * transpose2(a)
                + np.multiply.outer(i2, ident2()))
    raise ValueError(f"d_invariant: k must be 1, 2 or 3, got {k}")


def d_trace_power(n, a):
    """d(tr A^n)/dA = n (A^(n-1))^T for positive integer n."""
    if n < 1 or int(n) != n:
        raise ValueError(f"d_trace_power: n must be a positive integer, got {n}")
    return float(n) * transpose2(matpow(a, int(n) - 1))


def d_transpose(a):
    """d(A^T)/dA: the constant C_III."""
    return iso_tensor("III")


def d_power(n, a):
    """d(A^n)/dA for positive integer n, by the product rule on A . A^(n-1).

    n = 1 gives the constant C_II; n = 2 gives C_II *2 A + A . C_II, entries
    d_ik A[p,j] + A[i,k] d_jp.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"d_power: n must be a positive integer, got {n}")
    n = int(n)
    if n == 1:
        return iso_tensor("II")
    return product_rule_dot(a, iso_tensor("II"), matpow(a, n - 1), d_power(n - 1, a))


def d_inverse(a):
    """d(A^-1)/dA = -(A^-1 . C_II) *2 A^-1; entries -B[i,k] B[p,j] with B = A^-1."""
    b = inverse2(a)
    return -pos_dot(product("dot", b, iso_tensor("II"), (2, 4)), b, 2)


def product_rule_dot(a, da_ds, b, db_ds):
    """Derivative of A(S) . B(S): da_ds *2 B + A . db_ds."""
    return pos_dot(da_ds, b, 2) + product("dot", a, db_ds, (2, 4))


def product_rule_scalar_tensor(lam, dpsi_ds, psi, dlam_ds):
    """Derivative of psi(S) * Lambda(S): Lambda (x) dpsi_ds + psi dlam_ds."""
    psi = np.asarray(psi, dtype=float)[..., None, None, None, None]
    return product("outer", lam, dpsi_ds, (2, 2)) + psi * np.asarray(dlam_ds, dtype=float)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

# All named functions with analytic derivatives, keyed by CLI name.
CATALOG = {fn.name: fn for fn in [
    TensorFunction("I1", "scalar", trace, lambda a: d_invariant(1, a)),
    TensorFunction("I2", "scalar", lambda a: invariants(a).i2,
                   lambda a: d_invariant(2, a)),
    TensorFunction("I3", "scalar", lambda a: invariants(a).i3,
                   lambda a: d_invariant(3, a)),
    TensorFunction("id", "tensor", lambda a: matpow(a, 1), lambda a: d_power(1, a)),
    TensorFunction("transpose", "tensor", transpose2, d_transpose),
    TensorFunction("square", "tensor", lambda a: matpow(a, 2),
                   lambda a: d_power(2, a)),
    TensorFunction("cube", "tensor", lambda a: matpow(a, 3),
                   lambda a: d_power(3, a)),
    TensorFunction("inverse", "tensor", inverse2, d_inverse),
    *(TensorFunction(
        f"trI_pow_{n}",
        "scalar",
        lambda a, n=n: trace(matpow(a, n)),
        lambda a, n=n: d_trace_power(n, a),
    ) for n in (2, 3, 4)),
]}
