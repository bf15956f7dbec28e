#!/usr/bin/env python3
# Components over a non-orthonormal basis: reciprocal vectors, metrics,
# variance patterns, and basis invariance of the products.

import numpy as np

from tenderiv import ident2, make_basis, to_components, from_components, verify_basis_invariance
from tenderiv.rng import trial_rng

np.set_printoptions(precision=4, suppress=True)

b = make_basis([1, 0, 0], [1, 1, 0], [0, 0, 1])
print("Frame rows r_i:\n", b.frame)
print("Reciprocal rows r^i (r_i . r^j = delta):\n", b.reciprocal)
print("Covariant metric g_ij = r_i . r_j:\n", b.g_lo)
print("Contravariant metric g^ij:\n", b.g_hi)
print("g_lo @ g_hi:\n", b.g_lo @ b.g_hi)

rng = np.random.default_rng(5)
A = rng.uniform(-1, 1, (3, 3))
print("\nA in Cartesian storage:\n", A)
for variance in (("hi", "hi"), ("lo", "lo"), ("lo", "hi")):
    comps = to_components(A, b, variance)
    back = from_components(comps, b, variance)
    print(f"\ncomponents {variance}:\n{comps}")
    print("  reassembly error:", np.max(np.abs(back - A)))

print("\nThe mixed components of the unit tensor are the Kronecker delta in")
print("any basis:")
print(to_components(ident2(), b, ("lo", "hi")))

print("\nEvery product can be evaluated from components with metric factors;")
print("the result matches the Cartesian evaluation (basis invariance):")
H = rng.uniform(-1, 1, (3, 3, 3, 3))
for op, operands in [
    ("ddot_seq", (A, H)),
    ("ddot_cross", (A, H)),
    ("ddot_pos", (A, H)),
    ("dot", (A, A)),
    ("box", (A, A)),
]:
    report = verify_basis_invariance(op, operands, b)
    print(f"  {op:11s} normalized discrepancy = {report.max_abs_err:.3e}"
          f"  ({'ok' if report.passed else 'FAIL'})")

print("\nSame story over 5 random mildly skewed frames:")
for t in range(5):
    frame_rng = trial_rng(9, t)
    while True:  # I + 0.5 U, redrawn until |triple product| >= 0.2
        frame = np.eye(3) + 0.5 * frame_rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(frame)) >= 0.2:
            break
    bb = make_basis(*frame)
    report = verify_basis_invariance("ddot_pos", (A, H), bb, (("lo", "hi"), ("hi",) * 4))
    print(f"  frame det {np.linalg.det(frame):+.3f}: discrepancy {report.max_abs_err:.3e}")
