"""Dense 3x3 / 3x3x3x3 tensor algebra with three double-contraction conventions.

Second-rank tensors are (3, 3) float arrays, fourth-rank tensors are
(3, 3, 3, 3) float arrays; the axis order matches the left-to-right order of
the basis vectors in dyadic notation.  Storage is zero-based (entry "11" of a
worked example lives at ``[0, 0]``).

The products ``dot``, ``ddot_seq``, ``ddot_cross``, ``ddot_pos``, ``outer``,
``box`` and ``boxhat`` are each one row of ``SUBSCRIPTS`` per rank pair.  The
three double contractions differ only in how they pair the inner basis
vectors of their operands:

* ``ddot_seq``: nested pairing, nearest basis vectors first;
* ``ddot_cross``: parallel pairing of the basis vectors;
* ``ddot_pos``: the right operand is substituted in the middle of the left
  operand's vector group.  On two second-rank operands it coincides with
  ``ddot_cross``.

All functions are pure and never mutate their arguments.
"""

from typing import NamedTuple

import numpy as np

DIM = 3

# Smallest |det| accepted by inverse2; below this the inverse is considered
# numerically meaningless for the identities built on top of it.
DET_FLOOR = 1e-8


class RankError(ValueError):
    """Operand ranks or shapes not supported by the operation."""


class SingularTensorError(ValueError):
    """Second-rank tensor is singular (or nearly so) where an inverse is required."""

    def __init__(self, det):
        super().__init__(f"tensor is numerically singular: det = {det:.3e}")
        self.det = float(det)


def ident2():
    """Second-rank unit tensor."""
    return np.eye(DIM)


def one_hot2(i, j):
    """Second-rank tensor with a single 1 at (i, j), zero-based."""
    e = np.zeros((DIM, DIM))
    e[i, j] = 1.0
    return e


def one_hot4(i, j, k, l):
    """Fourth-rank tensor with a single 1 at (i, j, k, l), zero-based."""
    e = np.zeros((DIM, DIM, DIM, DIM))
    e[i, j, k, l] = 1.0
    return e


# (operation, (rank_x, rank_y)) -> einsum subscripts of the product.  This is
# the only place an index rule is written down; basis derives its
# metric-weighted component forms from it.
SUBSCRIPTS = {
    ("dot", (2, 2)): "im,mj->ij",
    ("dot", (2, 4)): "im,mjkl->ijkl",
    ("dot", (4, 2)): "ijkm,ml->ijkl",
    ("ddot_seq", (2, 2)): "ij,ji->",
    ("ddot_seq", (2, 4)): "ij,jikl->kl",
    ("ddot_seq", (4, 2)): "ijkl,lk->ij",
    ("ddot_seq", (4, 4)): "ijmn,nmkl->ijkl",
    ("ddot_cross", (2, 2)): "ij,ij->",
    ("ddot_cross", (2, 4)): "ij,ijkl->kl",
    ("ddot_cross", (4, 2)): "ijkl,kl->ij",
    ("ddot_cross", (4, 4)): "ijmn,mnkl->ijkl",
    ("ddot_pos", (2, 2)): "ij,ij->",
    ("ddot_pos", (2, 4)): "ij,inkj->nk",
    ("ddot_pos", (4, 2)): "ijkl,jk->il",
    ("ddot_pos", (4, 4)): "ijkl,jnsk->insl",
    ("outer", (2, 2)): "ij,kl->ijkl",
    ("box", (2, 2)): "ik,jl->ijkl",
    ("boxhat", (2, 2)): "il,jk->ijkl",
}


# The same rows keyed by operand shapes, so that one lookup checks both the
# ranks and the axis lengths of the operands.
_BY_SHAPE = {(op, (DIM,) * rx, (DIM,) * ry): s for (op, (rx, ry)), s in SUBSCRIPTS.items()}


def product(op, x, y):
    """Evaluate the product ``op`` by its SUBSCRIPTS row; scalar results are floats.

    Raises RankError when the table has no row for the operand ranks or when
    an operand axis does not have length 3.
    """
    x, y = np.asarray(x), np.asarray(y)
    subscripts = _BY_SHAPE.get((op, x.shape, y.shape))
    if subscripts is None:
        raise RankError(f"{op}: unsupported operand shapes {x.shape} and {y.shape}")
    out = np.einsum(subscripts, x, y)
    return float(out) if out.ndim == 0 else out


def dot(x, y):
    """Single contraction of the adjacent indices of two tensors (ranks 2*2, 2*4, 4*2)."""
    return product("dot", x, y)


def ddot_seq(x, y):
    """Sequential double contraction (nearest basis vectors pair first)."""
    return product("ddot_seq", x, y)


def ddot_cross(x, y):
    """Cross double contraction (parallel pairing of basis vectors)."""
    return product("ddot_cross", x, y)


def ddot_pos(x, y):
    """Positional double contraction (right operand slotted mid-group)."""
    return product("ddot_pos", x, y)


def outer(a, b):
    """Dyadic product: out[i,j,k,l] = a[i,j] b[k,l]."""
    return product("outer", a, b)


def box(a, b):
    """Interleaved product placing a on slots (1,3): out[i,j,k,l] = a[i,k] b[j,l]."""
    return product("box", a, b)


def boxhat(a, b):
    """Interleaved product placing a on slots (1,4): out[i,j,k,l] = a[i,l] b[j,k]."""
    return product("boxhat", a, b)


def transpose2(a):
    """Transpose of a second-rank tensor."""
    return np.asarray(a).T


_T4_AXES = {"ti": (0, 2, 1, 3), "dr": (0, 1, 3, 2), "dl": (1, 0, 2, 3)}


def transpose4(m, kind):
    """Fourth-rank transpose: 'ti' swaps slots 2,3; 'dr' swaps 3,4; 'dl' swaps 1,2.

    Each variant is an involution.
    """
    try:
        axes = _T4_AXES[kind]
    except KeyError:
        raise ValueError(f"transpose4: unknown kind {kind!r}, expected ti/dr/dl") from None
    return np.transpose(m, axes)


_POS_DOT = {
    1: "ijkl,im->mjkl",
    2: "ijkl,jm->imkl",
    3: "ijkl,km->ijml",
    4: "ijkl,lm->ijkm",
}


def pos_dot(h, d, n):
    """Simple positional scalar product: contract slot n of h with d.

    Slot n of h pairs with the first index of d; d's second index takes
    slot n of the result.  For n = 2: out[i,m,k,l] = sum_j h[i,j,k,l] d[j,m].
    """
    if n not in _POS_DOT:
        raise ValueError(f"pos_dot: slot must be 1..4, got {n}")
    return np.einsum(_POS_DOT[n], h, d)


_POS_DDOT_LEFT = {
    1: "ijkl,abji->abkl",
    2: "ijkl,abkj->iabl",
    3: "ijkl,ablk->ijab",
}


def pos_ddot_left(c, m, n):
    """Positional double contraction of c onto the (n, n+1) slot dyad of m.

    The dyad in slots (n, n+1) of m is replaced by its image under the
    sequential double contraction with c.  For n = 2:
    out[i,a,b,l] = sum_jk m[i,j,k,l] c[a,b,k,j].
    """
    if n not in _POS_DDOT_LEFT:
        raise ValueError(f"pos_ddot_left: slot must be 1..3, got {n}")
    return np.einsum(_POS_DDOT_LEFT[n], m, c)


_POS_DDOT_RIGHT = {
    2: "ijkl,jiab->abkl",
    3: "ijkl,kjab->iabl",
    4: "ijkl,lkab->ijab",
}


def pos_ddot_right(m, c, n):
    """Positional double product of the (n-1, n) slot dyad of m with c.

    The dyad in slots (n-1, n) of m is pushed through c by the sequential
    double contraction.  For n = 3:
    out[i,c,d,l] = sum_jk m[i,j,k,l] c[k,j,c,d].
    """
    if n not in _POS_DDOT_RIGHT:
        raise ValueError(f"pos_ddot_right: slot must be 2..4, got {n}")
    return np.einsum(_POS_DDOT_RIGHT[n], m, c)


def maxabs(x):
    """Largest absolute entry of a tensor."""
    return float(np.max(np.abs(x)))


def trace(a):
    """First principal invariant."""
    return float(np.trace(a))


class Invariants(NamedTuple):
    """The three principal invariants of a second-rank tensor."""

    i1: float
    i2: float
    i3: float


def invariants(a):
    """Principal invariants from traces of powers.

    i1 = tr A, i2 = (i1^2 - tr A^2)/2, i3 = (tr A^3 - i1 tr A^2 + i2 i1)/3.
    """
    a = np.asarray(a, dtype=float)
    a2 = a @ a
    t1 = float(np.trace(a))
    t2 = float(np.trace(a2))
    t3 = float(np.trace(a2 @ a))
    i2 = 0.5 * (t1 * t1 - t2)
    i3 = (t3 - t1 * t2 + i2 * t1) / 3.0
    return Invariants(t1, i2, i3)


def inverse2(a, det_floor=DET_FLOOR):
    """Inverse of a second-rank tensor; raises SingularTensorError below det_floor."""
    a = np.asarray(a, dtype=float)
    det = float(np.linalg.det(a))
    if abs(det) < det_floor:
        raise SingularTensorError(det)
    return np.linalg.inv(a)


def matpow(a, n):
    """Non-negative integer power under the single contraction; a**0 is the unit tensor."""
    if n < 0 or int(n) != n:
        raise ValueError(f"matpow: exponent must be a non-negative integer, got {n}")
    return np.linalg.matrix_power(np.asarray(a, dtype=float), int(n))


def hamilton_cayley_residual(a):
    """A^3 - i1 A^2 + i2 A - i3 I; the zero tensor up to rounding."""
    a = np.asarray(a, dtype=float)
    i1, i2, i3 = invariants(a)
    a2 = a @ a
    return a2 @ a - i1 * a2 + i2 * a - i3 * np.eye(DIM)
