"""The three isotropic fourth-rank tensors and their contraction roles.

In Cartesian components:

    C_I  [i,j,k,l] = d_ij d_kl     (outer(I, I))
    C_II [i,j,k,l] = d_ik d_jl     (box(I, I))
    C_III[i,j,k,l] = d_il d_jk     (boxhat(I, I))

Under each double-contraction convention exactly one of them acts as the
unit, one as the transposer and one as the trace projector on second-rank
tensors, from the left as well as from the right:

    scheme   C_I        C_II       C_III
    cross    tr(A) I    A          A^T
    seq      tr(A) I    A^T        A
    pos      A          A^T        tr(A) I
"""

import numpy as np

from .algebra import (
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    ident2,
    maxabs,
    outer,
    trace,
)

KINDS = ("I", "II", "III")
SCHEMES = {"seq": ddot_seq, "cross": ddot_cross, "pos": ddot_pos}

# role of each kind under each scheme: 'unit', 'transpose' or 'trace'
ROLES = {
    "cross": {"I": "trace", "II": "unit", "III": "transpose"},
    "seq": {"I": "trace", "II": "transpose", "III": "unit"},
    "pos": {"I": "unit", "II": "transpose", "III": "trace"},
}


def iso_tensor(kind):
    """One of the three isotropic fourth-rank tensors, by kind 'I', 'II' or 'III'."""
    eye = ident2()
    if kind == "I":
        return outer(eye, eye)
    if kind == "II":
        return box(eye, eye)
    if kind == "III":
        return boxhat(eye, eye)
    raise ValueError(f"iso_tensor: unknown kind {kind!r}, expected I/II/III")


def contraction_role(scheme, kind, a, side="left"):
    """Double-contract a with the isotropic tensor of the given kind.

    ``side='left'`` evaluates a * C, ``side='right'`` evaluates C * a, under
    the chosen contraction scheme.
    """
    try:
        op = SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}, expected seq/cross/pos") from None
    c = iso_tensor(kind)
    if side == "left":
        return op(a, c)
    if side == "right":
        return op(c, a)
    raise ValueError(f"unknown side {side!r}, expected left/right")


def expected_role(scheme, kind, a):
    """Closed form of contraction_role: a, a^T or tr(a) I."""
    role = ROLES[scheme][kind]
    if role == "unit":
        return np.asarray(a, dtype=float).copy()
    if role == "transpose":
        return np.asarray(a, dtype=float).T.copy()
    return trace(a) * ident2()


def rotate4(c, q):
    """Rotate every slot of a fourth-rank tensor by the second-rank tensor q."""
    return np.einsum("ip,jq,kr,ls,pqrs->ijkl", q, q, q, q, c)


def rotation_error(kind, q):
    """Worst change of an isotropic tensor, and of q I q^T against I, under q.

    q must be orthogonal to 1e-10.
    """
    q = np.asarray(q, dtype=float)
    ortho_defect = maxabs(q.T @ q - np.eye(3))
    if not ortho_defect <= 1e-10:
        raise ValueError(f"q is not orthogonal (defect {ortho_defect:.3e})")
    c = iso_tensor(kind)
    return max(maxabs(rotate4(c, q) - c), maxabs(q @ np.eye(3) @ q.T - np.eye(3)))
