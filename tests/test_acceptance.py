"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import subprocess
import sys

import numpy as np

from tenderiv.algebra import ident2, invariants
from tenderiv.bridge import to_nested_layout, to_trailing_layout
from tenderiv.calculus import (
    CATALOG,
    d_invariant,
    d_inverse,
    d_power,
    fd_scalar_derivative,
    fd_tensor_derivative,
)
from tenderiv.basis import make_basis, verify_basis_invariance
from tenderiv.isotropic import KINDS, SCHEMES, contraction_role, expected_role, iso_tensor
from tenderiv.rng import trial_rng
from tenderiv.suites import REPORTS, run_report

from oracles import (
    d_invariant_3_compact,
    hamilton_cayley_residual,
    linearization_check,
    maxabs,
    random_frame,
    random_invertible,
    random_near_identity,
    random_ten2,
    random_ten4,
)

SEED = 42


def record(num, description, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def test_criterion_01_iso_roles_complete():
    worst = 0.0
    for scheme in SCHEMES:
        for kind in KINDS:
            for side in ("left", "right"):
                for t in range(200):
                    a = random_ten2(trial_rng(SEED, t))
                    err = maxabs(
                        contraction_role(scheme, kind, a, side)
                        - expected_role(scheme, kind, a)
                    ) / (1.0 + maxabs(a))
                    worst = max(worst, err)
    record(1, "18 scheme x kind x side roles match closed forms", worst <= 1e-12,
           f"worst normalized err {worst:.3e}, tol 1e-12, 200 trials per cell")


def test_criterion_02_contraction_identity_suite():
    reports = [run_report(name, SEED, 500) for name in REPORTS if name.startswith("algebra/")]
    worst = max(r.max_abs_err for r in reports)
    ok = all(r.passed for r in reports)
    record(2, "double-contraction identity suite on all rank combinations", ok,
           f"{len(reports)} identities x 500 trials, worst normalized err {worst:.3e}")


def test_criterion_03_derivative_oracle_suite():
    detail = []
    ok = True
    for name, fn in sorted(CATALOG.items()):
        inverse_like = name == "inverse"
        tol = 1e-5 if inverse_like else 1e-6
        worst = 0.0
        for t in range(300):
            rng = trial_rng(SEED + 1, t)
            a = random_invertible(rng) if inverse_like else random_ten2(rng)
            analytic = fn.deriv(a)
            if fn.kind == "scalar":
                fd = fd_scalar_derivative(fn, a)
            else:
                fd = fd_tensor_derivative(fn, a)
            rel = maxabs(fd - analytic) / max(1.0, maxabs(analytic))
            worst = max(worst, rel)
        ok = ok and worst <= tol
        detail.append(f"{name}:{worst:.1e}")
    record(3, "analytic vs central-difference at 300 points per function", ok,
           "worst rel err " + " ".join(detail))


def test_criterion_04_exact_spot_values():
    eye = ident2()
    diag = np.diag([1.0, 2.0, 3.0])
    a = random_ten2(trial_rng(SEED + 2, 0))
    checks = {
        "dI1=I": maxabs(d_invariant(1, a) - eye),
        "dI2@diag": maxabs(d_invariant(2, diag) - np.diag([5.0, 4.0, 3.0])),
        "dI3@diag": maxabs(d_invariant(3, diag) - np.diag([6.0, 3.0, 2.0])),
        "dSquare@I": maxabs(d_power(2, eye) - 2.0 * iso_tensor("II")),
        "dInverse@2I": maxabs(d_inverse(2.0 * eye) + 0.25 * iso_tensor("II")),
    }
    worst = max(checks.values())
    record(4, "closed-form spot values", worst <= 1e-9,
           " ".join(f"{k}:{v:.1e}" for k, v in checks.items()))


def test_criterion_05_determinant_derivative_forms():
    worst = 0.0
    for t in range(300):
        a = random_invertible(trial_rng(SEED + 3, t))
        compact = d_invariant_3_compact(a)
        expanded = d_invariant(3, a)
        worst = max(worst, maxabs(compact - expanded) / max(1.0, maxabs(expanded)))
    record(5, "compact and expanded determinant derivatives agree", worst <= 1e-12,
           f"300 invertible points, worst rel err {worst:.3e}")


def test_criterion_06_characteristic_residual():
    worst = 0.0
    for t in range(1000):
        a = random_ten2(trial_rng(SEED + 4, t))
        worst = max(worst,
                    maxabs(hamilton_cayley_residual(a, *invariants(a))) / (1.0 + maxabs(a) ** 3))
    record(6, "characteristic-polynomial residual vanishes", worst <= 1e-12,
           f"1000 random tensors, worst normalized residual {worst:.3e}")


def test_criterion_07_layout_bridge_suite():
    exact = 0.0
    for t in range(50):
        m = random_ten4(trial_rng(SEED + 5, t))
        exact = max(exact, maxabs(to_trailing_layout(to_nested_layout(m)) - m))
    c1, c2, c3 = (iso_tensor(k) for k in KINDS)
    exact = max(exact,
                maxabs(to_nested_layout(c2) - c1),
                maxabs(to_nested_layout(c3) - c2))
    reports = [run_report(name, SEED, 200) for name in REPORTS if name.startswith("bridge/")]
    ok = exact == 0.0 and all(r.passed for r in reports)
    worst = max(r.max_abs_err for r in reports)
    record(7, "layout bridge: roundtrip, constants, contraction bridges, rule rows",
           ok, f"{len(reports)} reports x 200 trials, worst normalized err {worst:.3e}")


def test_criterion_08_basis_invariance():
    combos = [
        ("dot", (2, 2)), ("dot", (2, 4)), ("dot", (4, 2)),
        ("ddot_seq", (2, 2)), ("ddot_seq", (2, 4)), ("ddot_seq", (4, 2)), ("ddot_seq", (4, 4)),
        ("ddot_cross", (2, 2)), ("ddot_cross", (2, 4)), ("ddot_cross", (4, 2)),
        ("ddot_cross", (4, 4)),
        ("ddot_pos", (2, 2)), ("ddot_pos", (2, 4)), ("ddot_pos", (4, 2)), ("ddot_pos", (4, 4)),
        ("outer", (2, 2)), ("box", (2, 2)), ("boxhat", (2, 2)),
    ]
    sample = {2: random_ten2, 4: random_ten4}
    worst = 0.0
    for t in range(100):
        rng = trial_rng(SEED + 6, t)
        b = make_basis(*random_frame(rng))
        op, ranks = combos[t % len(combos)]
        x, y = sample[ranks[0]](rng), sample[ranks[1]](rng)
        vx = tuple(rng.choice(["lo", "hi"]) for _ in range(ranks[0]))
        vy = tuple(rng.choice(["lo", "hi"]) for _ in range(ranks[1]))
        report = verify_basis_invariance(op, (x, y), b, (vx, vy), tol=1e-12)
        worst = max(worst, report.max_abs_err)
    # and every operation on at least 100 bases for the fixed all-contravariant case
    for t in range(100):
        rng = trial_rng(SEED + 7, t)
        b = make_basis(*random_frame(rng))
        for op, ranks in combos:
            x, y = sample[ranks[0]](rng), sample[ranks[1]](rng)
            report = verify_basis_invariance(op, (x, y), b, tol=1e-12)
            worst = max(worst, report.max_abs_err)
    record(8, "component-path evaluation matches Cartesian for every product",
           worst <= 1e-12, f"100 random bases, worst normalized err {worst:.3e}")


def test_criterion_09_linearization_order():
    ok = True
    details = []
    for name in ("square", "inverse"):
        rng = trial_rng(SEED + 8, 0)
        a = random_near_identity(rng) if name == "inverse" else random_ten2(rng)
        d0 = random_ten2(trial_rng(SEED + 8, 1))
        res = [linearization_check(CATALOG[name], a, (0.01 * 0.5**k) * d0)
               for k in range(4)]
        ratios = [res[k] / res[k + 1] for k in range(3)]
        ok = ok and all(3.5 <= r <= 4.5 for r in ratios)
        details.append(f"{name}: " + "/".join(f"{r:.2f}" for r in ratios))
    record(9, "first-order remainder falls fourfold per step halving", ok,
           "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "tenderiv", "identities",
           "--seed", "42", "--trials", "200"]
    outs = []
    codes = []
    for n in range(2):
        proc = subprocess.run(cmd + ["--out", str(tmp_path / f"run{n}.json")],
                              capture_output=True)
        codes.append(proc.returncode)
        outs.append((tmp_path / f"run{n}.json").read_bytes())
    ok = codes == [0, 0] and outs[0] == outs[1] and len(outs[0]) > 0
    record(10, "identities CLI exits 0 with byte-identical JSON", ok,
           f"exit codes {codes}, {len(outs[0])} bytes")
