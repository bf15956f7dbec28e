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
serve as the oracle the analytic catalog is checked against.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (
    DET_FLOOR,
    DIM,
    ddot_seq,
    dot,
    ident2,
    inverse2,
    invariants,
    matpow,
    maxabs,
    outer,
    pos_dot,
    trace,
    transpose2,
)
from .isotropic import iso_tensor


class DomainError(ValueError):
    """Function (or one of its finite-difference probes) left its domain."""


@dataclass(frozen=True)
class FDConfig:
    """Central-difference step policy: h = h_base * max(1, |A[k,p]|)."""

    h_base: float = 1e-5

    def __post_init__(self):
        if self.h_base <= 0.0:
            raise ValueError("h_base must be positive")

    def step(self, component_value):
        return self.h_base * max(1.0, abs(float(component_value)))


@dataclass(frozen=True)
class TensorFunction:
    """Catalog entry: an evaluator paired with its analytic derivative rule.

    ``kind`` is 'scalar' or 'tensor'.  ``deriv`` returns the trailing-layout
    derivative (second rank for scalar functions, fourth rank for tensor
    functions).  ``guard`` restricts the domain; it must also hold at every
    finite-difference probe point.
    """

    name: str
    kind: str
    func: Callable[[np.ndarray], object]
    deriv: Callable[[np.ndarray], np.ndarray]
    guard: Optional[Callable[[np.ndarray], bool]] = field(default=None)

    def in_domain(self, a):
        return self.guard is None or bool(self.guard(a))


def _require_domain(fn, a, what):
    if not fn.in_domain(a):
        raise DomainError(f"{fn.name}: domain guard fails at {what}")


def _central_differences(fn, a, cfg, value_shape):
    """Central difference over each argument component, written to out[..., k, p]."""
    a = np.asarray(a, dtype=float)
    _require_domain(fn, a, "the base point")
    out = np.zeros(value_shape + (DIM, DIM))
    for k in range(DIM):
        for p in range(DIM):
            h = cfg.step(a[k, p])
            ap, am = a.copy(), a.copy()
            ap[k, p] += h
            am[k, p] -= h
            _require_domain(fn, ap, f"probe (+h) of component ({k},{p})")
            _require_domain(fn, am, f"probe (-h) of component ({k},{p})")
            out[..., k, p] = (fn.func(ap) - fn.func(am)) / (2.0 * h)
    return out


def fd_scalar_derivative(fn, a, cfg=FDConfig()):
    """Central-difference derivative of a scalar-valued catalog entry."""
    if fn.kind != "scalar":
        raise ValueError(f"{fn.name} is not scalar-valued")
    return _central_differences(fn, a, cfg, ())


def fd_tensor_derivative(fn, a, cfg=FDConfig()):
    """Central-difference derivative of a tensor-valued catalog entry (trailing layout)."""
    if fn.kind != "tensor":
        raise ValueError(f"{fn.name} is not tensor-valued")
    return _central_differences(fn, a, cfg, (DIM, DIM))


def gato_derivative(fn, a, direction, cfg=FDConfig()):
    """Directional derivative d/ds fn(a + s * direction) at s = 0.

    For a scalar entry this equals ddot_cross(deriv(a), direction); for a
    tensor entry it equals ddot_seq(deriv(a), direction^T).
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(direction, dtype=float)
    h = cfg.h_base
    ap, am = a + h * d, a - h * d
    _require_domain(fn, a, "the base point")
    _require_domain(fn, ap, "probe (+h) along the direction")
    _require_domain(fn, am, "probe (-h) along the direction")
    return (fn.func(ap) - fn.func(am)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Analytic rules
# ---------------------------------------------------------------------------

def d_invariant_1(a):
    """d(tr A)/dA = I."""
    return ident2()


def d_invariant_2(a):
    """d(i2)/dA = tr(A) I - A^T."""
    return trace(a) * ident2() - transpose2(a)


def d_invariant_3_expanded(a):
    """d(det A)/dA as (A^2)^T - tr(A) A^T + i2 I; defined for every A."""
    i1, i2, _ = invariants(a)
    return transpose2(matpow(a, 2)) - i1 * transpose2(a) + i2 * ident2()


def d_invariant_3_compact(a):
    """d(det A)/dA as det(A) A^-T; requires an invertible argument."""
    _, _, i3 = invariants(a)
    return i3 * transpose2(inverse2(a))


def d_invariant(k, a):
    """Derivative of the k-th principal invariant, k in {1, 2, 3}.

    k = 3 uses the expanded form: it is total, and near a singular argument
    it keeps full precision where the compact form loses digits with det(A).
    """
    if k == 1:
        return d_invariant_1(a)
    if k == 2:
        return d_invariant_2(a)
    if k == 3:
        return d_invariant_3_expanded(a)
    raise ValueError(f"d_invariant: k must be 1, 2 or 3, got {k}")


def d_trace_power(n, a):
    """d(tr A^n)/dA = n (A^(n-1))^T for positive integer n."""
    if n < 1 or int(n) != n:
        raise ValueError(f"d_trace_power: n must be a positive integer, got {n}")
    return float(n) * transpose2(matpow(a, int(n) - 1))


def d_identity(a):
    """d(A)/dA: the constant C_II."""
    return iso_tensor("II")


def d_transpose(a):
    """d(A^T)/dA: the constant C_III."""
    return iso_tensor("III")


def d_square(a):
    """d(A^2)/dA = C_II *2 A + A . C_II; entries d_ik A[p,j] + A[i,k] d_jp."""
    c2 = iso_tensor("II")
    return pos_dot(c2, a, 2) + dot(a, c2)


def d_power(n, a):
    """d(A^n)/dA for positive integer n, by the product rule on A . A^(n-1)."""
    if n < 1 or int(n) != n:
        raise ValueError(f"d_power: n must be a positive integer, got {n}")
    n = int(n)
    if n == 1:
        return iso_tensor("II")
    return product_rule_dot(a, iso_tensor("II"), matpow(a, n - 1), d_power(n - 1, a))


def d_inverse(a):
    """d(A^-1)/dA = -(A^-1 . C_II) *2 A^-1; entries -B[i,k] B[p,j] with B = A^-1."""
    b = inverse2(a)
    return -pos_dot(dot(b, iso_tensor("II")), b, 2)


def product_rule_dot(a, da_ds, b, db_ds):
    """Derivative of A(S) . B(S): da_ds *2 B + A . db_ds."""
    return pos_dot(da_ds, b, 2) + dot(a, db_ds)


def product_rule_scalar_tensor(lam, dpsi_ds, psi, dlam_ds):
    """Derivative of psi(S) * Lambda(S): Lambda (x) dpsi_ds + psi dlam_ds."""
    return outer(lam, dpsi_ds) + float(psi) * np.asarray(dlam_ds, dtype=float)


def linearization_check(fn, a, delta):
    """First-order remainder |F(A + d) - F(A) - deriv : d^T|, max-abs entry.

    For twice-differentiable F the remainder is O(|d|^2): halving |d| divides
    it by about four.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(delta, dtype=float)
    _require_domain(fn, a, "the base point")
    _require_domain(fn, a + d, "the displaced point")
    predicted = ddot_seq(fn.deriv(a), transpose2(d))
    residual = fn.func(a + d) - fn.func(a) - predicted
    return maxabs(residual)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _invertible(a):
    return abs(float(np.linalg.det(np.asarray(a, dtype=float)))) >= DET_FLOOR


def catalog():
    """All named functions with analytic derivatives, keyed by CLI name."""
    entries = [
        TensorFunction("I1", "scalar", trace, d_invariant_1),
        TensorFunction("I2", "scalar", lambda a: invariants(a).i2, d_invariant_2),
        TensorFunction("I3", "scalar", lambda a: invariants(a).i3,
                       lambda a: d_invariant(3, a)),
        TensorFunction("id", "tensor", lambda a: np.asarray(a, dtype=float).copy(),
                       d_identity),
        TensorFunction("transpose", "tensor", transpose2, d_transpose),
        TensorFunction("square", "tensor", lambda a: matpow(a, 2), d_square),
        TensorFunction("cube", "tensor", lambda a: matpow(a, 3),
                       lambda a: d_power(3, a)),
        TensorFunction("inverse", "tensor", inverse2, d_inverse, guard=_invertible),
    ]
    for n in (2, 3, 4):
        entries.append(
            TensorFunction(
                f"trI_pow_{n}",
                "scalar",
                lambda a, n=n: trace(matpow(a, n)),
                lambda a, n=n: d_trace_power(n, a),
            )
        )
    return {fn.name: fn for fn in entries}
