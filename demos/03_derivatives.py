#!/usr/bin/env python3
# Analytic derivatives of scalar and tensor functions of a 3x3 argument,
# checked on the spot against central differences.

import numpy as np

from tenderiv import (
    CATALOG,
    d_inverse,
    d_power,
    ddot_cross,
    fd_scalar_derivative,
    fd_tensor_derivative,
    inverse2,
    matpow,
    product_rule_dot,
    iso_tensor,
)

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(3)
A = rng.uniform(-1, 1, (3, 3))
D = np.diag([1.0, 2.0, 3.0])

print("Scalar functions.  Derivative entries are df/dA[i,j].")
for name in ("I1", "I2", "I3"):
    fn = CATALOG[name]
    analytic = fn.deriv(D)
    fd = fd_scalar_derivative(fn, D)
    print(f"\nd{name}/dA at diag(1,2,3):\n{analytic}")
    print(f"  max |analytic - central difference| = {np.max(np.abs(analytic - fd)):.3e}")

print("\nTensor functions use the trailing layout: entry (i,j,k,p) is")
print("dF[i,j]/dA[k,p].  The derivative of A itself is the constant C_II:")
print("  max |dA/dA - C_II| =",
      np.max(np.abs(CATALOG["id"].deriv(A) - iso_tensor("II"))))

for name in ("square", "cube", "inverse"):
    fn = CATALOG[name]
    at = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3)) if name == "inverse" else A
    analytic = fn.deriv(at)
    fd = fd_tensor_derivative(fn, at)
    print(f"  {name:8s} max |analytic - FD| = {np.max(np.abs(analytic - fd)):.3e}")

print("\nChain rule (the cross double contraction of the outer derivative with")
print("the inner one): d/dS of (S^2)^-1 at a point near the identity.")
S = np.eye(3) + 0.2 * rng.uniform(-1, 1, (3, 3))
composite = ddot_cross(d_inverse(matpow(S, 2)), d_power(2, S))
direct_fn = CATALOG["inverse"]


def composite_eval(s):
    return inverse2(matpow(s, 2))


step = 1e-5
fd = np.zeros((3, 3, 3, 3))
for k in range(3):
    for p in range(3):
        h = step * max(1.0, abs(S[k, p]))
        sp, sm = S.copy(), S.copy()
        sp[k, p] += h
        sm[k, p] -= h
        fd[:, :, k, p] = (composite_eval(sp) - composite_eval(sm)) / (2 * h)
print("  max |chain rule - FD of composite| =", np.max(np.abs(composite - fd)))

print("\nProduct rule sanity: d(S . S^-1)/dS must vanish identically.")
zero = product_rule_dot(S, iso_tensor("II"), inverse2(S), d_inverse(S))
print("  max |entry| =", np.max(np.abs(zero)))
