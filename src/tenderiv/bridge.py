"""Conversion and consistency checks between the two derivative layouts.

Derivatives of tensor-valued functions circulate in two index layouts:

* trailing layout (used throughout this package): D[i,j,k,l] = dF[i,j]/dA[k,l];
  the argument pair (k,l) trails the function pair (i,j).
* nested layout: N[i,k,l,j] = dF[i,j]/dA[k,l]; the argument pair is nested
  inside the function pair.  Conventions built on the positional double
  contraction use this layout.

The two are linked by fourth-rank transposes: nested = (trailing^ti)^dr and
trailing = (nested^dr)^ti, a pure slot permutation either way.

Cross-convention consistency means: a contraction with a derivative gives
the same answer under the cross convention on the trailing form and under
the positional one on the nested form.  The rows at the bottom check this
for the chain rules, the product rules and the derivatives of A, A^T, A^2
and A^-1.  The sequential route through C_II and the cross roles of C_II and
C_III are checked by algebra/cross-via-seq-* and iso/role/cross/*, not here.
The catalog's A^2 and A^-1 rules also meet the complex step Im f(A + ihE)/h,
a derivative oracle exact to rounding, held to the run's tolerance.
"""

import numpy as np

from .algebra import ident2, inverse2, maxabs, product, transpose2, transpose4
from .calculus import CATALOG, product_rule_dot, product_rule_scalar_tensor
from .isotropic import iso_tensor
from .rng import near_identity, uniform_tensors

# operand ranks of the batched products below
R22, R24, R42, R44 = (2, 2), (2, 4), (4, 2), (4, 4)


def to_nested_layout(d4):
    """Trailing-layout derivative to nested layout: out[i,j,k,l] = d4[i,l,j,k]."""
    return transpose4(transpose4(d4, "ti"), "dr")


def to_trailing_layout(d4):
    """Nested-layout derivative to trailing layout; inverse of to_nested_layout."""
    return transpose4(transpose4(d4, "dr"), "ti")


# ---------------------------------------------------------------------------
# Cross-convention rows
# ---------------------------------------------------------------------------
# Each row takes a block of n trials: it draws the block's operands in
# trial-major order and returns their legs, (pairs, rank, scale), for the
# report loop to measure.

def _row_chain_scalar(rng, n):
    # with l1 in trailing layout, the positional contraction of a with the
    # nested form and the cross contraction with l1 sum the same products in
    # the same order; algebra/cross-via-seq-2x4 checks the sequential route
    a, l1 = uniform_tensors(rng, n, 2, 4)
    return [([(product("ddot_pos", a, to_nested_layout(l1), R24),
               product("ddot_cross", a, l1, R24))], 2, 1.0 + maxabs(a, 2) * maxabs(l1, 4))]


def _row_chain_tensor(rng, n):
    # the positional contraction of two nested forms is the nested form of the
    # cross contraction of the trailing forms, exactly;
    # algebra/cross-via-seq-4x4 checks the sequential route
    l1a, l1b = uniform_tensors(rng, n, 4, 4)
    p_pos = product("ddot_pos", to_nested_layout(l1a), to_nested_layout(l1b), R44)
    p_cross = product("ddot_cross", l1a, l1b, R44)
    return [([(p_pos, to_nested_layout(p_cross))], 4, 1.0 + maxabs(l1a, 4) * maxabs(l1b, 4))]


def _row_product_dot(rng, n):
    a, b, la, lb = uniform_tensors(rng, n, 2, 2, 4, 4)
    eye = ident2()
    r_pos_form = product_rule_dot(a, la, b, lb)
    r_cross_form = (product("ddot_cross", product("box", a, eye, R22), lb, R44)
                    + product("ddot_cross", product("box", eye, transpose2(b), R22), la, R44))
    r_nested_form = (product("dot", to_nested_layout(la), b, R42)
                     + product("dot", a, to_nested_layout(lb), R24))
    scale = 1.0 + (np.maximum(maxabs(a, 2), maxabs(b, 2))
                   * np.maximum(maxabs(la, 4), maxabs(lb, 4)))
    return [([(r_cross_form, r_pos_form), (r_nested_form, to_nested_layout(r_pos_form))],
             4, scale)]


def _row_unit_and_transposer(rng, n):
    # nested C_II is the positional unit and nested C_III its transposer; the
    # cross roles of C_II and C_III are iso/role/cross/{II,III}/left's
    (a,) = uniform_tensors(rng, n, 2)
    c2, c3 = iso_tensor("II"), iso_tensor("III")
    return [([(product("ddot_pos", a, to_nested_layout(c2), R24), a),
              (product("ddot_pos", a, to_nested_layout(c3), R24), transpose2(a))],
             2, 1.0 + maxabs(a, 2))]


CSTEP = 1e-30  # h of _cstep_leg


def _cstep_leg(f, a, e, analytic):
    """The leg comparing the complex step of f at a along e with the analytic rule.

    One item per item of the stacks a (arguments) and e (directions);
    analytic holds the trailing derivatives of f at a.  Im f(a + ihe)/h
    subtracts nothing (Squire and Trapp, SIAM Rev. 1998), so h = CSTEP can
    be tiny and its O(h^2) truncation vanish: it is the derivative along e to
    rounding, and so must be each convention's contraction of analytic with e.
    """
    step = f(a + 1j * (CSTEP * e)).imag / CSTEP
    return ([(product("ddot_cross", analytic, e, R42), step),
             (product("ddot_pos", to_nested_layout(analytic), e, R42), step),
             (product("ddot_seq", analytic, transpose2(e), R42), step)],
            2, 1.0 + maxabs(analytic, 4) * maxabs(e, 2))


def _rule_legs(name, a, e, interleaved, nested, scale):
    """Entry name's rule against its interleaved and nested forms over scale, and its cstep leg."""
    fn = CATALOG[name]
    analytic = fn.deriv(a)
    return [([(interleaved, analytic), (nested, to_nested_layout(analytic))], 4, scale),
            _cstep_leg(fn.func, a, e, analytic)]


def _row_square(rng, n):
    a, e = uniform_tensors(rng, n, 2, 2)
    eye = ident2()
    c1 = iso_tensor("I")
    interleaved = product("box", a, eye, R22) + product("box", eye, transpose2(a), R22)
    nested = product("dot", c1, a, R42) + product("dot", a, c1, R24)
    return _rule_legs("square", a, e, interleaved, nested, 1.0 + maxabs(a, 2))


def _row_inverse(rng, n):
    u, e = uniform_tensors(rng, n, 2, 2)
    a = near_identity(u)
    b = inverse2(a)
    return _rule_legs("inverse", a, e, -product("box", b, transpose2(b), R22),
                      -product("outer", b, b, R22), 1.0 + maxabs(b, 2) ** 2)


def _row_scalar_times_tensor(rng, n):
    # psi is uniform in [-2, 2]: twice a uniform [-1, 1] draw
    lam, dpsi, u, dlam = uniform_tensors(rng, n, 2, 2, 0, 4)
    psi = 2.0 * u
    analytic = product_rule_scalar_tensor(lam, dpsi, psi, dlam)
    hat = product("boxhat", lam, dpsi, R22)
    nested = hat + psi[:, None, None, None, None] * to_nested_layout(dlam)
    scale = 1.0 + np.maximum(maxabs(lam, 2) * maxabs(dpsi, 2), np.abs(psi) * maxabs(dlam, 4))
    return [([(to_nested_layout(product("outer", lam, dpsi, R22)), hat),
              (transpose4(product("box", lam, dpsi, R22), "dr"), hat),
              (nested, to_nested_layout(analytic))], 4, scale)]


# name -> block evaluator; perfbench/tracer.py names its bridge.row.* spans by key.
CONVENTION_ROWS = {
    "chain_scalar": _row_chain_scalar,
    "chain_tensor": _row_chain_tensor,
    "product_dot": _row_product_dot,
    "unit_and_transposer": _row_unit_and_transposer,
    "square": _row_square,
    "inverse": _row_inverse,
    "scalar_times_tensor": _row_scalar_times_tensor,
}
