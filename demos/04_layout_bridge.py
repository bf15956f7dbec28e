#!/usr/bin/env python3
# Two index layouts for fourth-rank derivatives circulate in the literature;
# this script shows the conversion and the closed forms on both sides.

import numpy as np

from tenderiv import (
    box,
    boxhat,
    d_inverse,
    d_power,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    ident2,
    inverse2,
    iso_tensor,
    outer,
    to_nested_layout,
    to_trailing_layout,
)

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(4)
I = ident2()

print("Trailing layout: D[i,j,k,l] = dF[i,j]/dA[k,l]  (argument pair last).")
print("Nested layout:   N[i,k,l,j] = dF[i,j]/dA[k,l]  (argument pair inside).")
print("Conversion is a pure slot permutation; the roundtrip is exact:")
M = rng.uniform(-1, 1, (3, 3, 3, 3))
print("  max |to_trailing(to_nested(M)) - M| =",
      np.max(np.abs(to_trailing_layout(to_nested_layout(M)) - M)))

print("\nClosed forms of dA/dA on the two sides:")
print("  trailing: C_II   -> nested:", "C_I" if np.array_equal(
    to_nested_layout(iso_tensor("II")), iso_tensor("I")) else "?")
print("  and dA^T/dA: trailing C_III -> nested:", "C_II" if np.array_equal(
    to_nested_layout(iso_tensor("III")), iso_tensor("II")) else "?")

A = rng.uniform(-1, 1, (3, 3))
print("\nd(A^2)/dA in three spellings, one object:")
d2 = d_power(2, A)
print("  operator form vs interleave A box I + I box A^T:",
      np.max(np.abs(d2 - (box(A, I) + box(I, A.T)))))
print("  nested image vs outer I(x)A + A(x)I            :",
      np.max(np.abs(to_nested_layout(d2) - (outer(I, A) + outer(A, I)))))

Ai = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
B = inverse2(Ai)
di = d_inverse(Ai)
print("\nd(A^-1)/dA likewise:")
print("  operator form vs -(A^-1 box A^-T):", np.max(np.abs(di + box(B, B.T))))
print("  nested image vs -(A^-1 (x) A^-1) :",
      np.max(np.abs(to_nested_layout(di) + outer(B, B))))

print("\nContractions agree across conventions once layouts match:")
G = rng.uniform(-1, 1, (3, 3))
L = rng.uniform(-1, 1, (3, 3, 3, 3))
c2 = iso_tensor("II")
p1 = ddot_pos(G, to_nested_layout(L))
p2 = ddot_cross(G, L)
p3 = ddot_seq(ddot_seq(G, c2), L)
print("  positional vs cross      :", np.max(np.abs(p1 - p2)))
print("  sequential-via-C_II vs cross:", np.max(np.abs(p3 - p2)))
