"""Brute-force index oracles, plain-numpy checks and one-trial reference samplers.

The oracles re-derive each operation directly from its index formula with
explicit Python loops and no shared code with the package (the basis
oracles take the reciprocal vectors from np.linalg.inv), so a test
comparing the two paths is a genuine dual-route check.  The checks at the end
(directional derivative, linearization remainder, compact determinant
derivative, characteristic polynomial) are written in plain numpy and take
the package's results only as inputs.  The samplers draw one tensor per call
with plain numpy; the package's block draws must give the same numbers trial
by trial.  ``maxabs`` is the tests' largest absolute entry, written here so
that no test measures an error with ``tenderiv.algebra.maxabs``.  The JSON
objects at the very end are the CLI's input schemas built from nested lists.
"""

import itertools

import numpy as np

R = range(3)


def one_hot2(i, j):
    """Second-rank tensor with a single 1 at (i, j), zero-based."""
    e = np.zeros((3, 3))
    e[i, j] = 1.0
    return e


def one_hot4(i, j, k, l):
    """Fourth-rank tensor with a single 1 at (i, j, k, l), zero-based."""
    e = np.zeros((3, 3, 3, 3))
    e[i, j, k, l] = 1.0
    return e


def maxabs(x):
    """Largest absolute entry of an array, as a float."""
    return float(np.max(np.abs(x)))


def random_ten2(rng):
    """Second-rank tensor with entries uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=(3, 3))


def random_ten4(rng):
    """Fourth-rank tensor with entries uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=(3, 3, 3, 3))


def random_invertible(rng):
    """Well-conditioned random tensor: |det| >= 0.1 and condition number <= 50."""
    while True:
        a = random_ten2(rng)
        if abs(np.linalg.det(a)) >= 0.1 and np.linalg.cond(a) <= 50.0:
            return a


def random_near_identity(rng):
    """Unit tensor plus a perturbation with entries uniform in [-0.3, 0.3]."""
    return np.eye(3) + 0.3 * random_ten2(rng)


def random_orthogonal(rng):
    """Orthogonal tensor from the QR factorization of a random matrix.

    The signs of the factorization are fixed by the diagonal of R; the
    determinant sign is left as drawn.
    """
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def random_frame(rng):
    """Rows of a mildly skewed frame: I + 0.5 U with |triple product| >= 0.2."""
    while True:
        f = np.eye(3) + 0.5 * random_ten2(rng)
        if abs(np.linalg.det(f)) >= 0.2:
            return f


def dot_oracle(x, y):
    if x.ndim == 2 and y.ndim == 2:
        out = np.zeros((3, 3))
        for i, j, m in itertools.product(R, R, R):
            out[i, j] += x[i, m] * y[m, j]
        return out
    if x.ndim == 2 and y.ndim == 4:
        out = np.zeros((3, 3, 3, 3))
        for i, j, k, l, m in itertools.product(R, R, R, R, R):
            out[i, j, k, l] += x[i, m] * y[m, j, k, l]
        return out
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l, m in itertools.product(R, R, R, R, R):
        out[i, j, k, l] += x[i, j, k, m] * y[m, l]
    return out


def ddot_seq_oracle(x, y):
    if x.ndim == 2 and y.ndim == 2:
        return sum(x[i, j] * y[j, i] for i, j in itertools.product(R, R))
    if x.ndim == 2 and y.ndim == 4:
        out = np.zeros((3, 3))
        for k, l, i, j in itertools.product(R, R, R, R):
            out[k, l] += x[i, j] * y[j, i, k, l]
        return out
    if x.ndim == 4 and y.ndim == 2:
        out = np.zeros((3, 3))
        for i, j, k, l in itertools.product(R, R, R, R):
            out[i, j] += x[i, j, k, l] * y[l, k]
        return out
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l, m, n in itertools.product(R, R, R, R, R, R):
        out[i, j, k, l] += x[i, j, m, n] * y[n, m, k, l]
    return out


def ddot_cross_oracle(x, y):
    if x.ndim == 2 and y.ndim == 2:
        return sum(x[i, j] * y[i, j] for i, j in itertools.product(R, R))
    if x.ndim == 2 and y.ndim == 4:
        out = np.zeros((3, 3))
        for k, l, i, j in itertools.product(R, R, R, R):
            out[k, l] += x[i, j] * y[i, j, k, l]
        return out
    if x.ndim == 4 and y.ndim == 2:
        out = np.zeros((3, 3))
        for i, j, k, l in itertools.product(R, R, R, R):
            out[i, j] += x[i, j, k, l] * y[k, l]
        return out
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l, m, n in itertools.product(R, R, R, R, R, R):
        out[i, j, k, l] += x[i, j, m, n] * y[m, n, k, l]
    return out


def ddot_pos_oracle(x, y):
    if x.ndim == 2 and y.ndim == 2:
        return ddot_cross_oracle(x, y)
    if x.ndim == 2 and y.ndim == 4:
        out = np.zeros((3, 3))
        for n, k, i, j in itertools.product(R, R, R, R):
            out[n, k] += x[i, j] * y[i, n, k, j]
        return out
    if x.ndim == 4 and y.ndim == 2:
        out = np.zeros((3, 3))
        for i, l, j, k in itertools.product(R, R, R, R):
            out[i, l] += x[i, j, k, l] * y[j, k]
        return out
    out = np.zeros((3, 3, 3, 3))
    for i, n, s, l, j, k in itertools.product(R, R, R, R, R, R):
        out[i, n, s, l] += x[i, j, k, l] * y[j, n, s, k]
    return out


def outer_oracle(a, b):
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(R, R, R, R):
        out[i, j, k, l] = a[i, j] * b[k, l]
    return out


def box_oracle(a, b):
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(R, R, R, R):
        out[i, j, k, l] = a[i, k] * b[j, l]
    return out


def boxhat_oracle(a, b):
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(R, R, R, R):
        out[i, j, k, l] = a[i, l] * b[j, k]
    return out


def transpose4_oracle(m, kind):
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(R, R, R, R):
        if kind == "ti":
            out[i, j, k, l] = m[i, k, j, l]
        elif kind == "dr":
            out[i, j, k, l] = m[i, j, l, k]
        else:  # dl
            out[i, j, k, l] = m[j, i, k, l]
    return out


def pos_dot_oracle(h, d, n):
    out = np.zeros((3, 3, 3, 3))
    for idx in itertools.product(R, R, R, R):
        for m in R:
            src = list(idx)
            contracted = src[n - 1]
            src[n - 1] = m
            out[idx] += h[tuple(src)] * d[m, contracted]
    return out


def pos_ddot_left_oracle(c, m, n):
    out = np.zeros((3, 3, 3, 3))
    for idx in itertools.product(R, R, R, R):
        a, b = idx[n - 1], idx[n]
        for p, q in itertools.product(R, R):
            src = list(idx)
            src[n - 1], src[n] = p, q
            out[idx] += m[tuple(src)] * c[a, b, q, p]
    return out


def pos_ddot_right_oracle(m, c, n):
    out = np.zeros((3, 3, 3, 3))
    for idx in itertools.product(R, R, R, R):
        a, b = idx[n - 2], idx[n - 1]
        for p, q in itertools.product(R, R):
            src = list(idx)
            src[n - 2], src[n - 1] = p, q
            out[idx] += m[tuple(src)] * c[q, p, a, b]
    return out


def rotate4_oracle(c, q):
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(R, R, R, R):
        acc = 0.0
        for p, r, s, t in itertools.product(R, R, R, R):
            acc += q[i, p] * q[j, r] * q[k, s] * q[l, t] * c[p, r, s, t]
        out[i, j, k, l] = acc
    return out


def _reciprocal(frame):
    """Reciprocal rows r^a of the frame rows r_i (r_i . r^a = d_i^a), from np.linalg.inv."""
    return np.linalg.inv(frame).T


def to_components_oracle(t, frame, variance):
    """comps[a, b, ..] = sum t[i, j, ..] w[a, i] w[b, j] ..; per slot w = r^a ('hi'), r_a ('lo')."""
    reciprocal = _reciprocal(frame)
    out = np.zeros(t.shape)
    for comp in itertools.product(R, repeat=t.ndim):
        for cart in itertools.product(R, repeat=t.ndim):
            w = 1.0
            for a, i, tag in zip(comp, cart, variance):
                w *= reciprocal[a, i] if tag == "hi" else frame[a, i]
            out[comp] += w * t[cart]
    return out


def from_components_oracle(comps, frame, variance):
    """t[i, j, ..] = sum comps[a, b, ..] v[a, i] v[b, j] ..; per slot v = r_a ('hi'), r^a ('lo')."""
    reciprocal = _reciprocal(frame)
    out = np.zeros(comps.shape)
    for cart in itertools.product(R, repeat=comps.ndim):
        for comp in itertools.product(R, repeat=comps.ndim):
            w = 1.0
            for i, a, tag in zip(cart, comp, variance):
                w *= frame[a, i] if tag == "hi" else reciprocal[a, i]
            out[cart] += comps[comp] * w
    return out


def raise_all_indices_oracle(comps, frame, variance):
    """Each 'lo' slot raised by g^ab = r^a . r^b: out[.., a, ..] = sum_b g^ab comps[.., b, ..]."""
    reciprocal = _reciprocal(frame)
    g_hi = [[sum(reciprocal[a, k] * reciprocal[b, k] for k in R) for b in R] for a in R]
    out = np.zeros(comps.shape)
    for idx in itertools.product(R, repeat=comps.ndim):
        for src in itertools.product(R, repeat=comps.ndim):
            w = 1.0
            for a, b, tag in zip(idx, src, variance):
                w *= g_hi[a][b] if tag == "lo" else float(a == b)
            out[idx] += w * comps[src]
    return out


def gato_derivative(fn, a, direction):
    """Directional derivative d/ds fn.func(a + s * direction) at s = 0, step 1e-5.

    For a scalar entry this equals ddot_cross(deriv(a), direction); for a
    tensor entry it equals ddot_seq(deriv(a), direction^T).
    """
    return (fn.func(a + 1e-5 * direction) - fn.func(a - 1e-5 * direction)) / 2e-5


def linearization_check(fn, a, delta):
    """First-order remainder |F(A + d) - F(A) - sum_kp deriv[..., k, p] d[k, p]|, max-abs entry.

    For twice-differentiable F the remainder is O(|d|^2): halving |d| divides
    it by about four.
    """
    predicted = np.tensordot(fn.deriv(a), delta, axes=2)
    return float(np.max(np.abs(fn.func(a + delta) - fn.func(a) - predicted)))


def d_invariant_3_compact(a):
    """d(det A)/dA as det(A) A^-T; requires an invertible argument."""
    return np.linalg.det(a) * np.linalg.inv(a).T


def hamilton_cayley_residual(a, i1, i2, i3):
    """A^3 - i1 A^2 + i2 A - i3 I: zero up to rounding when i1..i3 are A's invariants."""
    a2 = a @ a
    return a2 @ a - i1 * a2 + i2 * a - i3 * np.eye(3)


def matrix_obj(a):
    """The {"matrix": ...} input object of a rank-2 tensor, as nested lists."""
    return {"matrix": np.asarray(a, dtype=float).tolist()}


def tensor4_obj(h):
    """The {"tensor4": ...} input object of a rank-4 tensor, as nested lists."""
    return {"tensor4": np.asarray(h, dtype=float).tolist()}
