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

The tensors are built once, as read-only constants.  Every function here
also takes a stack of second-rank tensors (or orthogonal maps) along leading
axes and answers item by item.
"""

import numpy as np

from .algebra import box, boxhat, ident2, outer, product, trace, transpose2

KINDS = ("I", "II", "III")
SCHEMES = ("seq", "cross", "pos")

# role of each kind under each scheme: 'unit', 'transpose' or 'trace'
ROLES = {
    "cross": {"I": "trace", "II": "unit", "III": "transpose"},
    "seq": {"I": "trace", "II": "transpose", "III": "unit"},
    "pos": {"I": "unit", "II": "transpose", "III": "trace"},
}


def _read_only(a):
    a.setflags(write=False)
    return a


_EYE = ident2()
_ISO = {
    "I": _read_only(outer(_EYE, _EYE)),
    "II": _read_only(box(_EYE, _EYE)),
    "III": _read_only(boxhat(_EYE, _EYE)),
}


def iso_tensor(kind):
    """One of the three isotropic fourth-rank tensors, by kind 'I', 'II' or 'III'.

    The result is a shared read-only array.
    """
    try:
        return _ISO[kind]
    except KeyError:
        raise ValueError(f"iso_tensor: unknown kind {kind!r}, expected I/II/III") from None


def contraction_role(scheme, kind, a, side="left"):
    """Double-contract a with the isotropic tensor of the given kind.

    ``side='left'`` evaluates a * C, ``side='right'`` evaluates C * a, under
    the chosen contraction scheme.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected seq/cross/pos")
    op, c = f"ddot_{scheme}", iso_tensor(kind)
    if side == "left":
        return product(op, a, c, (2, 4))
    if side == "right":
        return product(op, c, a, (4, 2))
    raise ValueError(f"unknown side {side!r}, expected left/right")


def expected_role(scheme, kind, a):
    """Closed form of contraction_role: a, a^T or tr(a) I.

    The unit and transposer roles may return a view of a.
    """
    role = ROLES[scheme][kind]
    if role == "unit":
        return np.asarray(a, dtype=float)
    if role == "transpose":
        return transpose2(np.asarray(a, dtype=float))
    return np.multiply.outer(trace(a), ident2())


def rotate4(c, q):
    """Rotate every slot of a fourth-rank tensor by the second-rank tensor q, slot by slot."""
    for n in (1, 2, 3, 4):
        c = product(f"pos_dot{n}", c, transpose2(q), (4, 2))
    return c

