"""Dense 3x3 / 3x3x3x3 tensor algebra with three double-contraction conventions.

Second-rank tensors are (3, 3) float arrays, fourth-rank tensors are
(3, 3, 3, 3) float arrays; the axis order matches the left-to-right order of
the basis vectors in dyadic notation.  Storage is zero-based (entry "11" of a
worked example lives at ``[0, 0]``).

The products ``dot``, ``ddot_seq``, ``ddot_cross``, ``ddot_pos``, ``outer``,
``box`` and ``boxhat`` (one row of ``SUBSCRIPTS`` per rank pair) and the
positional product ``pos_dot`` (one row per slot) are all evaluated by
``product``, on single tensors or stacks (leading batch axes, one trial per
item), each as elementwise products summed in a fixed order.  The three
double contractions differ only in how they pair the inner basis vectors of
their operands:

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
    """A second-rank tensor (item ``index`` of a stack) is singular where an inverse is needed."""

    def __init__(self, det, index):
        self.det = float(np.real(det))  # a complex-step argument has a complex det
        self.index = int(index)
        super().__init__(f"tensor is numerically singular: det = {self.det:.3e}")


def ident2():
    """Second-rank unit tensor."""
    return np.eye(DIM)


# (operation, (rank_x, rank_y)) -> index labels of x, y and the product.  This
# is the only place an index rule is written down; product plans from it and
# basis derives its metric-weighted component forms from it.
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
    # the positional product, one row per slot (see pos_dot)
    ("pos_dot1", (4, 2)): "ijkl,im->mjkl",
    ("pos_dot2", (4, 2)): "ijkl,jm->imkl",
    ("pos_dot3", (4, 2)): "ijkl,km->ijml",
    ("pos_dot4", (4, 2)): "ijkl,lm->ijkm",
}


def _plan(subscripts):
    """A row as x * y summed over the contracted labels C, both laid out as C + result.

    Gives, for x and for y, the flat item index of each entry of the layout
    (1 long on the result labels the operand lacks) and the order of the
    operand's axes in it, and |C|.
    """
    operands, out = subscripts.split("->")
    x, y = operands.split(",")
    layout = [c for c in x if c in y] + list(out)
    sides = []
    for a in (x, y):
        axes = tuple(a.index(c) for c in layout if c in a)
        shape = tuple(DIM if c in a else 1 for c in layout)
        index = np.arange(DIM ** len(a)).reshape((DIM,) * len(a)).transpose(axes)
        sides.append((np.ascontiguousarray(index).reshape(shape), axes))
    return (*sides, len(layout) - len(out))


_PLANS = {key: _plan(s) for key, s in SUBSCRIPTS.items()}

# Products whose two operands' terms hold more entries than this are summed
# in parts (see _summed).  A product of two 128-item fourth-rank stacks then
# peaks at 3 times its result's bytes, not 15 (5, not 17, from C-ordered
# copies; tracemalloc).  Without the split, a process running six
# full_identity_suite(7, 1000) peaked at 41.2 MB RSS, not 38.5, and a suite's
# median CPU time was 49.8 ms, not 42.8 (medians of ten processes each).
_SPLIT = 4096


# numpy's ufunc buffer size, in elements, while a large product sums: the
# smallest it takes.  At its default (8192) numpy copies each broadcast
# operand of a leaf product through a 64 kB buffer to lengthen inner loops
# that the batch axis, innermost and contiguous, already makes long.  The
# setting is per thread, and elementwise results do not depend on it.
# Without it a suite's median CPU time, measured as for _SPLIT, was 46.9 ms,
# not 42.8 (9 of 10 processes slower).
_UFUNC_BUFFER = 16

# A 4 MB array, freed at once: that raises glibc's mmap threshold (128 kB at
# start) to 4 MB, so product's temporaries reuse heap pages, not fresh
# mappings that fault in on first touch.  Without it a process's second
# full_identity_suite(7, 1000) took 6,456 minor faults, not 11, and a suite's
# median CPU time, measured as for _SPLIT, was 46.5 ms, not 42.8.
np.empty(1 << 19)


def _terms(a, side, batch):
    """The entries side's index picks from each item of a, ahead of its ``batch`` batch axes.

    Of one tensor, one take.  Of a stack, a view when its last batch axis
    is contiguous (as in rng.uniform_tensors' stacks and product's results),
    else a C-ordered copy.
    """
    index, axes = side
    lead = a.ndim - len(axes)
    # one tensor, in one take: with the stack path below instead, perfbench
    # basis-invariance throughput fell 10% (median of 20 interleaved pairs)
    if not lead:
        return a.take(index).reshape(index.shape + (1,) * batch) if batch else a.take(index)
    # a view with the batch axes last
    a = a.transpose((*[lead + i for i in axes], *range(lead)))
    a = a.reshape(index.shape + (1,) * (batch - lead) + a.shape[len(axes):])
    return a if a.strides[-1] == a.itemsize else a.copy()


def _summed(x, y, n):
    """The sum of x * y over their n leading axes, (t0 + t1) + t2 each, the last outermost.

    Large products split along the last of the n axes and add each later
    part into the first, so no temporary holds more than one part's terms
    (see _SPLIT).
    """
    if n and x.size + y.size > _SPLIT:
        at = (slice(None),) * (n - 1)
        out = _summed(x[at + (0,)], y[at + (0,)], n - 1)
        for i in (1, 2):
            out += _summed(x[at + (i,)], y[at + (i,)], n - 1)
        return out
    terms = x * y
    for _ in range(n):
        terms = terms[0] + terms[1] + terms[2]
    return terms


def product(op, x, y, ranks=None):
    """Evaluate the product ``op`` by its SUBSCRIPTS row.

    With ``ranks = (rank_x, rank_y)`` the trailing rank_x (rank_y) axes of
    x (y) hold one tensor and any leading axes are batch axes, which
    broadcast and are kept in the result.  Ranks are passed, never inferred:
    a (3, 3, 3, 3) array is a fourth-rank tensor and a 3x3 stack of
    second-rank ones alike.  Without ``ranks`` the operands are single
    tensors, ``ranks = (x.ndim, y.ndim)``.  A scalar result is a Python number.
    No BLAS call sums the terms (see _summed): the bits do not depend on the
    CPU, and a batched product equals the stack of single products bit for
    bit, whatever the operands' strides.  Every result is a fresh array,
    never a view of an operand, with its batch axes innermost in memory: it
    enters a later product uncopied, as do rng.uniform_tensors' stacks.

    Raises RankError when the table has no row for the operand ranks or when
    an operand axis does not have length 3.
    """
    x, y = np.asarray(x), np.asarray(y)
    rx, ry = ranks = (x.ndim, y.ndim) if ranks is None else tuple(ranks)
    plan = _PLANS.get((op, ranks))
    # a shorter shape fails too: the slice then holds fewer than rank axes
    if plan is None or x.shape[-rx:] != (DIM,) * rx or y.shape[-ry:] != (DIM,) * ry:
        raise RankError(f"{op}: unsupported operand shapes {x.shape} and {y.shape} "
                        f"for ranks {ranks}")
    x_side, y_side, contracted = plan
    batch = max(x.ndim - rx, y.ndim - ry)
    x, y = _terms(x, x_side, batch), _terms(y, y_side, batch)
    if x.size + y.size <= _SPLIT:
        out = _summed(x, y, contracted)
    else:  # see _UFUNC_BUFFER
        previous = np.setbufsize(_UFUNC_BUFFER)
        try:
            out = _summed(x, y, contracted)
        finally:
            np.setbufsize(previous)
    if batch:  # the batch axes, innermost until now, back in front
        out = out.transpose((*range(out.ndim - batch, out.ndim), *range(out.ndim - batch)))
    return out.item() if out.ndim == 0 else out


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
    """Transpose of a second-rank tensor, or of each one in a stack."""
    return np.asarray(a).swapaxes(-1, -2)


# the pair of slots each fourth-rank transpose swaps, counted from the end
_T4_SLOTS = {"ti": (-3, -2), "dr": (-2, -1), "dl": (-4, -3)}


def transpose4(m, kind):
    """Fourth-rank transpose: 'ti' swaps slots 2,3; 'dr' swaps 3,4; 'dl' swaps 1,2.

    Each variant is an involution.  The slots are the last four axes, so a
    stack of fourth-rank tensors is transposed item by item.
    """
    try:
        slots = _T4_SLOTS[kind]
    except KeyError:
        raise ValueError(f"transpose4: unknown kind {kind!r}, expected ti/dr/dl") from None
    return np.asarray(m).swapaxes(*slots)


def pos_dot(h, d, n):
    """Simple positional scalar product: contract slot n of h with d.

    Slot n of h pairs with the first index of d; d's second index takes
    slot n of the result.  For n = 2: out[i,m,k,l] = sum_j h[i,j,k,l] d[j,m].
    Leading batch axes of h and d broadcast.
    """
    op = f"pos_dot{n}"
    if (op, (4, 2)) not in _PLANS:
        raise ValueError(f"pos_dot: slot must be one of 1, 2, 3, 4, got {n!r}")
    return product(op, h, d, (4, 2))


def _floating(a):
    """a as a float array, or a complex one for a complex step f(A + ihE)."""
    return np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)


def maxabs(x, rank=None):
    """Largest absolute entry of a tensor.

    With ``rank``, x is a stack whose trailing ``rank`` axes hold one tensor,
    and the result is the largest absolute entry of each item (NaN when the
    item holds a NaN).
    """
    if rank is None:
        return float(np.abs(x).max())
    return np.max(np.abs(x), axis=tuple(range(-rank, 0))) if rank else np.abs(x)


def trace(a):
    """First principal invariant, of one tensor (a Python number) or of each one in a stack."""
    t = np.trace(a, axis1=-2, axis2=-1)
    return t.item() if np.ndim(t) == 0 else t


class Invariants(NamedTuple):
    """The three principal invariants of a second-rank tensor."""

    i1: float
    i2: float
    i3: float


def invariants(a):
    """Principal invariants from traces of powers; arrays of them for a stack.

    i1 = tr A, i2 = (i1^2 - tr A^2)/2, i3 = (tr A^3 - i1 tr A^2 + i2 i1)/3.
    """
    a = _floating(a)
    a2 = product("dot", a, a, (2, 2))
    t1 = trace(a)
    t2 = trace(a2)
    t3 = trace(product("dot", a2, a, (2, 2)))
    i2 = 0.5 * (t1 * t1 - t2)
    i3 = (t3 - t1 * t2 + i2 * t1) / 3.0
    return Invariants(t1, i2, i3)


# flat indices of the factors of adj[j, i] = a[i+1,j+1] a[i+2,j+2] - a[i+1,j+2] a[i+2,j+1],
# the adjugate (the transposed cofactors)
_ADJUGATE_TERMS = np.array([[[DIM * ((i + di) % DIM) + (j + dj) % DIM for i in range(DIM)]
                             for j in range(DIM)] for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _ldexp(x, e, out=None):
    """x * 2^e, exactly: into out when x is real, part by part into a new array when complex."""
    if x.dtype.kind != "c":
        return np.ldexp(x, e, out=out)
    z = np.array(np.ldexp(x.real, e), x.dtype)  # imaginary parts 0 until the next line
    np.ldexp(x.imag, e, out=z.imag)
    return z


def inverse_det(a):
    """Inverse and determinant (along row 0) of a second-rank tensor or of each in a stack.

    From the cofactors of a with each row divided by 2^e, 2^e just above the
    row's largest |entry|: exact, and right wherever np.linalg.inv is (a det
    past the float range is inf).  A singular item's inverse is not finite.
    One (3, 3) tensor takes the same path as a stack and gives the bits of
    the one-item stack.  A complex a is scaled part by part (see _ldexp).
    """
    a = _floating(a)
    m = np.abs(a)
    # each row's largest |entry| as the maximum of its three columns: with a
    # reduction over the length-3 axis instead, p50 rose 5.7% (20 pairs)
    e = np.frexp(np.maximum(np.maximum(m[..., 0], m[..., 1]), m[..., 2]))[1][..., None]
    flat = _ldexp(a, -e, m).reshape(a.shape[:-2] + (DIM * DIM,))
    p, q, r, t = _ADJUGATE_TERMS
    with np.errstate(all="ignore"):
        adj = flat[..., p]
        adj *= flat[..., q]
        minor = flat[..., r]
        minor *= flat[..., t]
        adj -= minor
        d = flat[..., :DIM] * adj[..., 0]
        det = 0.0 + d[..., 0] + d[..., 1] + d[..., 2]  # from +0.0, as .sum: -0.0 terms give +0.0
        adj /= det[..., None, None]
        return (_ldexp(adj, -transpose2(e), adj),
                _ldexp(det, (e[..., 0, 0] + e[..., 1, 0]) + e[..., 2, 0]))


def inverse2(a):
    """Inverse of a second-rank tensor, or of each one in a stack, from its cofactors.

    Raises SingularTensorError, carrying the first offending determinant and
    its item index, when any |det| < DET_FLOOR.
    """
    inverse, det = inverse_det(a)
    singular = np.flatnonzero(np.abs(det) < DET_FLOOR)
    if singular.size:
        raise SingularTensorError(det.flat[singular[0]], singular[0])
    return inverse


def matpow(a, n):
    """Non-negative integer power under the single contraction; a**0 is the unit tensor."""
    if n < 0 or int(n) != n:
        raise ValueError(f"matpow: exponent must be a non-negative integer, got {n}")
    a = _floating(a)
    # a copy of a, in its layout, not I . a: 0 * inf would turn an overflowed entry into NaN
    out = a.copy(order="K") if n else np.broadcast_to(np.eye(DIM, dtype=a.dtype), a.shape).copy()
    for _ in range(int(n) - 1):
        out = product("dot", out, a, (2, 2))
    return out
