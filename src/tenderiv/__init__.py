"""tenderiv: fixed-dimension tensor algebra and differentiation toolkit.

A 3x3 / 3x3x3x3 dense tensor calculus built around the three conventions for
the double scalar product, the isotropic fourth-rank unit and transposer
tensors, analytic derivatives of scalar- and tensor-valued functions of a
second-rank tensor argument, and conversion between the two derivative index
layouts in circulation.  Every identity ships with a seeded verification
suite (`tenderiv identities`; derivative rules against the complex step),
backed by finite-difference and brute-force index oracles in the test tree.
"""

from .algebra import (
    DET_FLOOR,
    DIM,
    Invariants,
    RankError,
    SingularTensorError,
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    dot,
    ident2,
    inverse2,
    invariants,
    matpow,
    outer,
    pos_dot,
    trace,
    transpose2,
    transpose4,
)
from .basis import (
    Basis,
    DegenerateFrameError,
    from_components,
    make_basis,
    to_components,
    verify_basis_invariance,
)
from .bridge import to_nested_layout, to_trailing_layout
from .calculus import (
    CATALOG,
    DomainError,
    TensorFunction,
    d_invariant,
    d_inverse,
    d_power,
    d_trace_power,
    d_transpose,
    fd_scalar_derivative,
    fd_tensor_derivative,
    product_rule_dot,
    product_rule_scalar_tensor,
)
from .isotropic import contraction_role, expected_role, iso_tensor
from .reporting import CheckReport, RunSummary
from .suites import full_identity_suite

__version__ = "0.1.0"
