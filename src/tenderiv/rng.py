"""Seeded random inputs for the fuzzing suites.

Streams come from the Philox counter-based generator (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3").  The 128-bit Philox key is
``(seed << 64) | substream``.  Each report of a suite draws all of its trials
from one generator whose substream is a stable 64-bit hash of the report's
name (``report_rng``), so reports never share operands and results do not
depend on execution order or parallel schedule.

Reports draw a block of trials at a time (``uniform_tensors``,
``orthogonal_tensors``) in trial-major order: trial t's operands follow
trial t-1's in the stream, in argument order, as one ``uniform`` draw per
operand and trial would give them (the one-trial reference samplers in
``tests/oracles.py``).  So the operands of a trial do not depend on the
block size.  ``uniform_tensors``' stacks are views of one transposed copy of
the draw, trial axis innermost, as ``algebra.product`` sums (the copy moves
values, never the draw order); ``orthogonal_tensors`` is C-ordered.
"""

# hashlib.blake2b itself, without the OpenSSL bindings that import hashlib loads
from _blake2 import blake2b

import numpy as np

from .algebra import DIM


def trial_rng(seed, substream=0):
    """Independent generator for one (seed, substream) pair."""
    key = (int(seed) << 64) | int(substream)
    return np.random.Generator(np.random.Philox(key=key))


def report_substream(name):
    """Stable 64-bit substream of a report name: its 8-byte BLAKE2b digest."""
    return int.from_bytes(blake2b(name.encode(), digest_size=8).digest(), "big")


def report_rng(seed, name):
    """The one generator that every trial of the named report draws from."""
    return trial_rng(seed, report_substream(name))


def uniform_tensors(rng, n, *ranks):
    """Operands of n trials, entries uniform in [-1, 1]: one (n, 3, ..., 3) stack per rank.

    One draw of shape (n, k), k the entries of one trial, holds trial t's
    operands in row t, in argument order.  It is copied once, transposed to
    (k, n), and each stack is a view of its rows: the stacks share that
    memory, and consecutive items lie one entry apart, so product reads them
    without a copy.  Callers only read them.  Rank 0 gives an (n,) array of
    scalars.
    """
    sizes = [DIM**r for r in ranks]
    u = rng.uniform(-1.0, 1.0, (n, sum(sizes))).T.copy()
    stacks, start = [], 0
    for rank, size in zip(ranks, sizes):
        stack = u[start:start + size].reshape((DIM,) * rank + (n,))
        # transpose, not np.moveaxis: 3.4 us more a stack, 0.4 ms of a 1000-trial suite
        stacks.append(stack.transpose(rank, *range(rank)))
        start += size
    return stacks


def orthogonal_tensors(rng, n):
    """n orthogonal tensors: the columns of random matrices orthonormalized in order.

    Gram-Schmidt gives the Q of a QR factorization with a positive diagonal
    of R, in elementwise steps whose rounding no LAPACK or BLAS kernel
    decides.  The determinant sign is left as drawn, so both proper and
    improper orthogonal tensors occur.
    """
    q = rng.standard_normal((n, DIM, DIM))
    for j in range(DIM):
        v = q[..., j]
        for i in [*range(j)] * 2:  # twice: orthogonal to rounding (Kahan, Parlett)
            v = v - (q[..., i] * v).sum(axis=-1, keepdims=True) * q[..., i]
        q[..., j] = v / np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return q


def near_identity(u):
    """Unit tensor plus 0.3 u; u uniform in [-1, 1] perturbs by at most 0.3."""
    return np.eye(DIM) + 0.3 * u
