"""tenderiv: fixed-dimension tensor algebra and differentiation toolkit.

A 3x3 / 3x3x3x3 dense tensor calculus built around the three conventions for
the double scalar product, the isotropic fourth-rank unit and transposer
tensors, analytic derivatives of scalar- and tensor-valued functions of a
second-rank tensor argument, and conversion between the two derivative index
layouts in circulation.  Every identity ships with a seeded verification
suite (`tenderiv identities`) backed by finite-difference and brute-force
index oracles in the test tree.
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
    hamilton_cayley_residual,
    ident2,
    inverse2,
    invariants,
    matpow,
    one_hot2,
    one_hot4,
    outer,
    pos_ddot_left,
    pos_ddot_right,
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
from .bridge import (
    check_seq_transposers,
    convention_row_check,
    to_nested_layout,
    to_trailing_layout,
)
from .calculus import (
    DomainError,
    FDConfig,
    TensorFunction,
    catalog,
    d_identity,
    d_invariant,
    d_inverse,
    d_power,
    d_square,
    d_trace_power,
    d_transpose,
    fd_scalar_derivative,
    fd_tensor_derivative,
    gato_derivative,
    linearization_check,
    product_rule_dot,
    product_rule_scalar_tensor,
)
from .isotropic import contraction_role, expected_role, iso_tensor, isotropy_check
from .reporting import CheckReport, RunSummary
from .suites import full_identity_suite

__version__ = "0.1.0"
