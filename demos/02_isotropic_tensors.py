#!/usr/bin/env python3
# The three isotropic fourth-rank tensors act as unit, transposer or trace
# projector depending on the contraction convention.

import numpy as np

from tenderiv import box, boxhat, contraction_role, expected_role, ident2, iso_tensor, outer
from tenderiv.algebra import maxabs
from tenderiv.isotropic import ROLES, rotate4

np.set_printoptions(precision=4, suppress=True)

I = ident2()
print("The three isotropic tensors come from the three products of I with itself:")
print("  C_I   = outer(I, I)   entries d_ij d_kl")
print("  C_II  = box(I, I)     entries d_ik d_jl")
print("  C_III = boxhat(I, I)  entries d_il d_jk")
assert np.array_equal(iso_tensor("I"), outer(I, I))
assert np.array_equal(iso_tensor("II"), box(I, I))
assert np.array_equal(iso_tensor("III"), boxhat(I, I))

rng = np.random.default_rng(2)
A = rng.uniform(-1, 1, (3, 3))

print("\nRole map (what C does to a random A under each convention):")
header = f"{'scheme':8s}" + "".join(f"{k:>12s}" for k in ("C_I", "C_II", "C_III"))
print(header)
for scheme in ("cross", "seq", "pos"):
    row = [f"{scheme:8s}"]
    for kind in ("I", "II", "III"):
        got = contraction_role(scheme, kind, A, "left")
        row.append(f"{ROLES[scheme][kind]:>12s}")
        assert np.allclose(got, expected_role(scheme, kind, A), atol=1e-12)
    print("".join(row))
print("(every cell also verified numerically, left- and right-multiplied)")

print("\nVerification at one cell: the positional contraction of A with C_I")
print("returns A itself:")
print(contraction_role("pos", "I", A, "left") - A)

print("\nIsotropy: rotating all four slots by a random orthogonal Q changes nothing.")
q, r = np.linalg.qr(rng.standard_normal((3, 3)))
q = q * np.sign(np.diag(r))
for kind in ("I", "II", "III"):
    c = iso_tensor(kind)
    err = maxabs(rotate4(c, q) - c)
    print(f"  C_{kind:<4s} max |Q-rotated - original| = {err:.3e}"
          f"  ({'ok' if err <= 1e-12 else 'FAIL'})")
