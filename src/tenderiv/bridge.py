"""Conversion and consistency checks between the two derivative layouts.

Derivatives of tensor-valued functions circulate in two index layouts:

* trailing layout (used throughout this package): D[i,j,k,l] = dF[i,j]/dA[k,l];
  the argument pair (k,l) trails the function pair (i,j).
* nested layout: N[i,k,l,j] = dF[i,j]/dA[k,l]; the argument pair is nested
  inside the function pair.  Conventions built on the positional double
  contraction use this layout.

The two are linked by fourth-rank transposes: nested = (trailing^ti)^dr and
trailing = (nested^dr)^ti, a pure slot permutation either way.

Cross-convention consistency means: contractions of second- or fourth-rank
tensors with a derivative give the same answer whether written with the
sequential, cross or positional convention, once each operand is expressed
in the layout native to its convention.  The row checks at the bottom verify
this for the chain rules, the product rules and the closed-form derivatives
of A, A^T, A^2 and A^-1.
"""

from .algebra import (
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    dot,
    ident2,
    inverse2,
    maxabs,
    outer,
    transpose2,
    transpose4,
)
from .calculus import (
    FDConfig,
    d_inverse,
    d_square,
    fd_tensor_derivative,
    product_rule_dot,
    product_rule_scalar_tensor,
)
from .calculus import catalog as _calculus_catalog
from .isotropic import iso_tensor
from .reporting import CheckReport
from .rng import random_near_identity, random_ten2, random_ten4, trial_rng


def to_nested_layout(d4):
    """Trailing-layout derivative to nested layout: out[i,j,k,l] = d4[i,l,j,k]."""
    return transpose4(transpose4(d4, "ti"), "dr")


def to_trailing_layout(d4):
    """Nested-layout derivative to trailing layout; inverse of to_nested_layout."""
    return transpose4(transpose4(d4, "dr"), "ti")


def rank2_bridge_error(a, l1):
    """Normalized disagreement of the three ways to contract a with a derivative.

    With the derivative l1 in trailing layout, the positional contraction of a
    with the nested form, the cross contraction with l1 and the sequential
    contraction routed through C_II all name the same second-rank tensor.
    """
    c2 = iso_tensor("II")
    p_pos = ddot_pos(a, to_nested_layout(l1))
    p_cross = ddot_cross(a, l1)
    p_seq = ddot_seq(ddot_seq(a, c2), l1)
    scale = 1.0 + maxabs(a) * maxabs(l1)
    return max(maxabs(p_pos - p_cross), maxabs(p_seq - p_cross)) / scale


def rank4_bridge_error(l1a, l1b):
    """Normalized disagreement for the contraction of two derivatives.

    The positional contraction of the two nested forms equals the nested form
    of the cross contraction of the trailing forms, and the sequential
    contraction routed through C_II equals the cross contraction.
    """
    c2 = iso_tensor("II")
    p_cross = ddot_cross(l1a, l1b)
    p_pos = ddot_pos(to_nested_layout(l1a), to_nested_layout(l1b))
    p_seq = ddot_seq(ddot_seq(l1a, c2), l1b)
    scale = 1.0 + maxabs(l1a) * maxabs(l1b)
    return max(maxabs(p_pos - to_nested_layout(p_cross)), maxabs(p_seq - p_cross)) / scale


def check_seq_transposers(seed=0, trials=100, tol=1e-12):
    """C_II : C_II = C_III under the sequential contraction, and C_III is its unit.

    The second statement is fuzzed: D : C_III = D for random fourth-rank D.
    """
    c2, c3 = iso_tensor("II"), iso_tensor("III")
    err = maxabs(ddot_seq(c2, c2) - c3)
    for t in range(trials):
        d = random_ten4(trial_rng(seed, t))
        err = max(err, maxabs(ddot_seq(d, c3) - d) / (1.0 + maxabs(d)))
    return CheckReport.from_measurement(
        "bridge/seq-transposer-identities", trials, err, tol, seed
    )


# ---------------------------------------------------------------------------
# Cross-convention rows
# ---------------------------------------------------------------------------

def _row_chain_scalar(rng, fd_cfg):
    return rank2_bridge_error(random_ten2(rng), random_ten4(rng))


def _row_chain_tensor(rng, fd_cfg):
    return rank4_bridge_error(random_ten4(rng), random_ten4(rng))


def _row_product_dot(rng, fd_cfg):
    a, b = random_ten2(rng), random_ten2(rng)
    la, lb = random_ten4(rng), random_ten4(rng)
    eye = ident2()
    r_pos_form = product_rule_dot(a, la, b, lb)
    r_cross_form = ddot_cross(box(a, eye), lb) + ddot_cross(box(eye, transpose2(b)), la)
    r_nested_form = dot(to_nested_layout(la), b) + dot(a, to_nested_layout(lb))
    scale = 1.0 + max(maxabs(a), maxabs(b)) * max(maxabs(la), maxabs(lb))
    return max(
        maxabs(r_cross_form - r_pos_form),
        maxabs(r_nested_form - to_nested_layout(r_pos_form)),
    ) / scale


def _row_unit_and_transposer(rng, fd_cfg):
    eye = ident2()
    c1, c2, c3 = iso_tensor("I"), iso_tensor("II"), iso_tensor("III")
    return max(
        maxabs(c2 - box(eye, eye)),
        maxabs(c3 - boxhat(eye, eye)),
        maxabs(to_nested_layout(c2) - c1),
        maxabs(to_nested_layout(c3) - c2),
    )


def _row_square(rng, fd_cfg):
    a = random_ten2(rng)
    eye = ident2()
    c1 = iso_tensor("I")
    analytic = d_square(a)
    interleaved = box(a, eye) + box(eye, transpose2(a))
    nested = dot(c1, a) + dot(a, c1)
    scale = 1.0 + maxabs(a)
    err = max(
        maxabs(interleaved - analytic),
        maxabs(nested - to_nested_layout(analytic)),
    ) / scale
    fd = fd_tensor_derivative(_CATALOG["square"], a, fd_cfg)
    err = max(err, maxabs(fd - analytic) / (1.0 + maxabs(analytic)))
    return err


def _row_inverse(rng, fd_cfg):
    a = random_near_identity(rng)
    b = inverse2(a)
    analytic = d_inverse(a)
    interleaved = -box(b, transpose2(b))
    nested = -outer(b, b)
    scale = 1.0 + maxabs(b) ** 2
    err = max(
        maxabs(interleaved - analytic),
        maxabs(nested - to_nested_layout(analytic)),
    ) / scale
    fd = fd_tensor_derivative(_CATALOG["inverse"], a, fd_cfg)
    err = max(err, maxabs(fd - analytic) / (1.0 + maxabs(analytic)))
    return err


def _row_scalar_times_tensor(rng, fd_cfg):
    lam = random_ten2(rng)
    dpsi = random_ten2(rng)
    psi = float(rng.uniform(-2.0, 2.0))
    dlam = random_ten4(rng)
    analytic = product_rule_scalar_tensor(lam, dpsi, psi, dlam)
    nested = boxhat(lam, dpsi) + psi * to_nested_layout(dlam)
    scale = 1.0 + max(maxabs(lam) * maxabs(dpsi), abs(psi) * maxabs(dlam))
    return max(
        maxabs(to_nested_layout(outer(lam, dpsi)) - boxhat(lam, dpsi)),
        maxabs(transpose4(box(lam, dpsi), "dr") - boxhat(lam, dpsi)),
        maxabs(nested - to_nested_layout(analytic)),
    ) / scale


_CATALOG = _calculus_catalog()

# name -> (trial evaluator, compares against the finite-difference oracle).
# The evaluator stays first: perfbench/tracer.py reads entry[0].
CONVENTION_ROWS = {
    "chain_scalar": (_row_chain_scalar, False),
    "chain_tensor": (_row_chain_tensor, False),
    "product_dot": (_row_product_dot, False),
    "unit_and_transposer": (_row_unit_and_transposer, False),
    "square": (_row_square, True),
    "inverse": (_row_inverse, True),
    "scalar_times_tensor": (_row_scalar_times_tensor, False),
}


def convention_row_check(row, seed=0, trials=200, tol=1e-12, fd_tol=1e-9, fd_cfg=FDConfig()):
    """Fuzz one cross-convention row and report the worst normalized error.

    Rows that compare against the finite-difference oracle are held to
    ``fd_tol``, the purely algebraic rows to ``tol``.
    """
    if row not in CONVENTION_ROWS:
        raise ValueError(
            f"unknown convention row {row!r}; expected one of {sorted(CONVENTION_ROWS)}"
        )
    evaluate, uses_fd = CONVENTION_ROWS[row]
    err = 0.0
    for t in range(trials):
        err = max(err, evaluate(trial_rng(seed, t), fd_cfg))
    return CheckReport.from_measurement(
        f"bridge/rule/{row}", trials, err, fd_tol if uses_fd else tol, seed
    )
