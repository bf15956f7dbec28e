"""Block evaluation of the fuzzed reports.

fuzz_report hands each report's trial function blocks of up to BLOCK trials.
The references below evaluate the same checks one trial at a time with the
one-trial samplers of the oracles and the unbatched public operations, so a block
boundary, a draw-order slip or a regrouped sum shows up as a bit difference.
"""

import itertools
import platform
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import tenderiv.algebra
import tenderiv.bridge
import tenderiv.calculus
import tenderiv.reporting
import tenderiv.rng
import tenderiv.suites
from tenderiv.algebra import (
    SUBSCRIPTS,
    RankError,
    box,
    boxhat,
    ddot_cross,
    ddot_pos,
    ddot_seq,
    dot,
    ident2,
    inverse2,
    matpow,
    maxabs,
    outer,
    pos_dot,
    product,
    transpose4,
)
from tenderiv.bridge import CSTEP, _cstep_leg, to_nested_layout
from tenderiv.calculus import d_inverse, d_power
from tenderiv.isotropic import iso_tensor, rotate4
from tenderiv.reporting import BLOCK, fuzz_report, trial_error
from tenderiv.rng import near_identity, report_rng, trial_rng, uniform_tensors
from tenderiv.serialize import dumps
from tenderiv.suites import REPORTS, full_identity_suite, run_report

from oracles import (
    box_oracle,
    boxhat_oracle,
    ddot_cross_oracle,
    ddot_pos_oracle,
    ddot_seq_oracle,
    dot_oracle,
    outer_oracle,
    pos_ddot_left_oracle,
    pos_ddot_right_oracle,
    pos_dot_oracle,
    random_ten2,
    random_ten4,
)

SEED = 2024
TOL = 1e-12
I = ident2()
C1, C2 = iso_tensor("I"), iso_tensor("II")
# one trial, and around each size: about half of it; the size less one,
# whole and plus one; and one or two of it then a short rest.  The sizes are
# literal, so that a change of BLOCK adds cases and renames no test; BLOCK
# is one more size.
HALF = BLOCK // 2
TRIAL_COUNTS = sorted({1} | {t for size in (256, 512, BLOCK) for t in (
    size // 2 - 1, size // 2, size // 2 + 1, size - 1, size, size + 1, size + 3, 2 * size + 3)})


@pytest.fixture(scope="module")
def trial_functions():
    """Report name -> the block trial function the suite hands to fuzz_report."""
    return {name: row[0] for name, row in REPORTS.items()}


def block_errors(name, trial_legs, trials):
    """Per-trial errors and block sizes of one report run through fuzz_report."""
    errors, sizes = [], []

    def record(rng, n):
        legs = trial_legs(rng, n)
        errors.append(np.broadcast_to(trial_error(legs), n))
        sizes.append(n)
        return legs

    fuzz_report(name, SEED, trials, TOL, record)
    return np.concatenate(errors), sizes


# ---------------------------------------------------------------------------
# one-trial-at-a-time references
# ---------------------------------------------------------------------------

def ref_ddot_symmetry(rng):
    a, b = random_ten2(rng), random_ten2(rng)
    worst = max(
        max(abs(op(a, b) - op(b, a)), abs(op(a, b) - op(a.T, b.T)))
        for op in (ddot_seq, ddot_cross)
    )
    return worst / (1.0 + maxabs(a) * maxabs(b))


def ref_cross_via_seq_4x2(rng):
    x, y = random_ten4(rng), random_ten2(rng)
    ref = ddot_cross(x, y)
    left = ddot_seq(ddot_seq(x, C2), y)
    right = ddot_seq(x, ddot_seq(C2, y))
    return max(maxabs(left - ref), maxabs(right - ref)) / (1.0 + maxabs(x) * maxabs(y))


def ref_role_seq_i_right(rng):
    a = random_ten2(rng)
    return maxabs(ddot_seq(C1, a) - np.trace(a) * I) / (1.0 + maxabs(a))


def ref_rotation_ii(rng):
    q = rng.standard_normal((3, 3))
    for j in range(3):  # the columns orthonormalized in order, each pass made twice
        for i in [*range(j)] * 2:
            q[:, j] = q[:, j] - np.sum(q[:, i] * q[:, j]) * q[:, i]
        q[:, j] = q[:, j] / np.sqrt(np.sum(q[:, j] * q[:, j]))
    return max(maxabs(rotate4(C2, q) - C2), maxabs(dot(q, q.T) - I))  # q . I is q exactly


def ref_rank4_contraction(rng):
    la, lb = random_ten4(rng), random_ten4(rng)
    cross = ddot_cross(la, lb)
    pos = ddot_pos(to_nested_layout(la), to_nested_layout(lb))
    return maxabs(pos - to_nested_layout(cross)) / (1.0 + maxabs(la) * maxabs(lb))


def ref_product_dot(rng):
    a, b = random_ten2(rng), random_ten2(rng)
    la, lb = random_ten4(rng), random_ten4(rng)
    pos = pos_dot(la, b, 2) + dot(a, lb)
    cross = ddot_cross(box(a, I), lb) + ddot_cross(box(I, b.T), la)
    nested = dot(to_nested_layout(la), b) + dot(a, to_nested_layout(lb))
    scale = 1.0 + max(maxabs(a), maxabs(b)) * max(maxabs(la), maxabs(lb))
    return max(maxabs(cross - pos), maxabs(nested - to_nested_layout(pos))) / scale


def ref_inverse(rng):
    a = I + 0.3 * random_ten2(rng)
    e = random_ten2(rng)
    b = inverse2(a)
    analytic = d_inverse(a)
    err = max(
        maxabs(-box(b, b.T) - analytic),
        maxabs(-outer(b, b) - to_nested_layout(analytic)),
    ) / (1.0 + maxabs(b) ** 2)
    step = inverse2(a + 1j * (CSTEP * e)).imag / CSTEP
    cstep = max(maxabs(ddot_cross(analytic, e) - step),
                maxabs(ddot_pos(to_nested_layout(analytic), e) - step),
                maxabs(ddot_seq(analytic, e.T) - step)) / (1.0 + maxabs(analytic) * maxabs(e))
    return max(err, cstep)


def ref_scalar_times_tensor(rng):
    lam, dpsi = random_ten2(rng), random_ten2(rng)
    psi = float(rng.uniform(-2.0, 2.0))
    dlam = random_ten4(rng)
    analytic = outer(lam, dpsi) + psi * dlam
    hat = boxhat(lam, dpsi)
    nested = hat + psi * to_nested_layout(dlam)
    scale = 1.0 + max(maxabs(lam) * maxabs(dpsi), abs(psi) * maxabs(dlam))
    return max(
        maxabs(to_nested_layout(outer(lam, dpsi)) - hat),
        maxabs(transpose4(box(lam, dpsi), "dr") - hat),
        maxabs(nested - to_nested_layout(analytic)),
    ) / scale


REFERENCES = {
    "algebra/ddot-symmetry": ref_ddot_symmetry,
    "algebra/cross-via-seq-4x2": ref_cross_via_seq_4x2,
    "iso/role/seq/I/right": ref_role_seq_i_right,
    "iso/rotation-invariance/II": ref_rotation_ii,
    "bridge/rank4-contraction": ref_rank4_contraction,
    "bridge/rule/product_dot": ref_product_dot,
    "bridge/rule/inverse": ref_inverse,
    "bridge/rule/scalar_times_tensor": ref_scalar_times_tensor,
}


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_blocks_match_one_trial_at_a_time(trial_functions, name, trials):
    got, sizes = block_errors(name, trial_functions[name], trials)
    rng = report_rng(SEED, name)
    want = np.array([REFERENCES[name](rng) for _ in range(trials)])
    assert sizes == [BLOCK] * (trials // BLOCK) + ([trials % BLOCK] if trials % BLOCK else [])
    assert got.shape == (trials,)
    assert np.array_equal(got, want), np.flatnonzero(got != want)


def test_suite_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # 1,100 trials cross block boundaries at every block size here
    for trials in (600, 1100):
        texts = []
        for block in (128, BLOCK, 97, 256):
            monkeypatch.setattr(tenderiv.reporting, "BLOCK", block)
            texts.append(dumps(full_identity_suite(7, trials).to_obj()))
        for text in texts[1:]:
            assert text == texts[0]


def test_suite_bytes_do_not_depend_on_the_operand_layout(monkeypatch):
    # Over 3 entries np.sum and np.trace give the same bits whether the trial
    # axis is innermost or outermost, but a 9-entry np.sum does not (numpy sums
    # a contiguous run pairwise), so no suite path may reduce more than 3
    # entries with numpy's reductions.  The operands come here as C-ordered
    # copies and as trial-major views of one draw.
    real = tenderiv.rng.uniform_tensors

    def c_ordered(rng, n, *ranks):
        return [np.ascontiguousarray(stack) for stack in real(rng, n, *ranks)]

    def trial_major(rng, n, *ranks):
        u = np.concatenate([stack.reshape(n, -1) for stack in real(rng, n, *ranks)], axis=1)
        stacks, start = [], 0
        for rank in ranks:
            stacks.append(u[:, start:start + 3**rank].reshape((n,) + (3,) * rank))
            start += 3**rank
        return stacks

    for seed, trials in ((7, 1100), (42, 600)):
        want = dumps(full_identity_suite(seed, trials).to_obj())
        for layout in (c_ordered, trial_major):
            for module in (tenderiv.suites, tenderiv.bridge):
                monkeypatch.setattr(module, "uniform_tensors", layout)
            assert dumps(full_identity_suite(seed, trials).to_obj()) == want, layout.__name__
            monkeypatch.undo()


def test_no_trial_function_writes_into_its_operands(monkeypatch):
    # uniform_tensors hands out views of one copy of its draw, on the
    # condition that its callers only read them
    want = dumps(full_identity_suite(7, BLOCK + 3).to_obj())
    real = tenderiv.rng.uniform_tensors

    def read_only(rng, n, *ranks):
        stacks = real(rng, n, *ranks)
        for stack in stacks:
            stack.flags.writeable = False
        return stacks

    for module in (tenderiv.suites, tenderiv.bridge):
        monkeypatch.setattr(module, "uniform_tensors", read_only)
    assert dumps(full_identity_suite(7, BLOCK + 3).to_obj()) == want


def d_power_transposed(n, a):
    return transpose4(d_power(n, a), "ti")


def d_inverse_transposed(a):
    return transpose4(d_inverse(a), "ti")


def d_power_scaled(n, a):
    return d_power(n, a) * (1.0 + 1e-10)


def d_inverse_scaled(a):
    return d_inverse(a) * (1.0 + 1e-10)


@pytest.mark.parametrize("rule, mutant", [
    ("d_power", d_power_transposed), ("d_power", d_power_scaled),
    ("d_inverse", d_inverse_transposed), ("d_inverse", d_inverse_scaled),
])
def test_a_wrong_derivative_rule_fails_its_row(monkeypatch, rule, mutant):
    # the row reads its rule from the catalog entry, so the mutant replaces it there
    entry = "square" if rule == "d_power" else "inverse"
    name = "bridge/rule/" + entry
    assert run_report(name, 7, 50).passed
    deriv = partial(mutant, 2) if rule == "d_power" else mutant
    catalog = tenderiv.calculus.CATALOG
    monkeypatch.setitem(catalog, entry, replace(catalog[entry], deriv=deriv))
    report = run_report(name, 7, 50)
    assert not report.passed and report.nonfinite == 0
    if mutant in (d_power_scaled, d_inverse_scaled):
        # a relative slip of 1e-10 passed these rows while they were held to
        # the finite-difference oracle's 1e-9
        assert report.max_abs_err < 1e-9


@pytest.mark.parametrize("name", ["square", "inverse"])
def test_complex_step_error_is_at_rounding_level(name):
    f, rule = {"square": (lambda z: matpow(z, 2), partial(d_power, 2)),
               "inverse": (inverse2, d_inverse)}[name]
    rng = trial_rng(906, 0)
    worst = 0.0
    for _ in range(10):  # 10,000 near-identity arguments in ten stacks
        u, e = uniform_tensors(rng, 1000, 2, 2)
        a = near_identity(u)
        errors = trial_error([_cstep_leg(f, a, e, rule(a))])
        assert errors.shape == (1000,) and np.all(np.isfinite(errors))
        worst = max(worst, float(errors.max()))
        # the oracle tells a slot-swapped derivative from the rule
        wrong = trial_error([_cstep_leg(f, a, e, transpose4(rule(a), "ti"))])
        assert wrong.min() > 1e-6
    assert 0.0 < worst <= 1e-14


# Reports whose error is exactly 0.0 on every trial: permutations, products
# with 0/1 entries, or the same sums in the same order on both sides.  A
# regrouped sum or a reordered kernel step shows here first, as a last-bit
# error far below any tolerance.
EXACT_REPORTS = [
    "algebra/pos-equals-cross-rank2",
    "bridge/layout-roundtrip",
    "bridge/layout-constants",
    "bridge/rank2-contraction",
    "bridge/rank4-contraction",
    "bridge/rule/chain_scalar",
    "bridge/rule/chain_tensor",
    "bridge/rule/product_dot",
    "bridge/rule/unit_and_transposer",
    "bridge/rule/scalar_times_tensor",
    "bridge/seq-transposer-identities",
]


@pytest.mark.parametrize("seed", [42, 7])
def test_exact_reports_stay_exactly_zero(seed):
    reports = full_identity_suite(seed, 1000).reports
    exact = [r.name for r in reports if r.max_abs_err == 0.0 and r.nonfinite == 0]
    iso_roles = [r.name for r in reports if r.name.startswith("iso/role/")]
    assert len(iso_roles) == 18
    assert sorted(exact) == sorted(EXACT_REPORTS + iso_roles)


FAULTS = """
import resource
from tenderiv.suites import full_identity_suite
full_identity_suite(7, 1000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
full_identity_suite(7, 1000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults")
def test_a_second_suite_reuses_its_pages():
    # algebra raises glibc's mmap threshold at import; without that, each
    # suite maps fresh pages for its temporaries and takes about 6,500 faults
    out = subprocess.run([sys.executable, "-c", FAULTS], capture_output=True, text=True,
                         check=True, timeout=120)
    assert int(out.stdout) < 500


@pytest.mark.parametrize("trials", [0, -1])
def test_fuzz_report_rejects_no_trials(trials):
    def must_not_run(rng, n):
        raise AssertionError("a trial ran")

    with pytest.raises(ValueError):
        fuzz_report("x", SEED, trials, TOL, must_not_run)


# Reports whose operands come from uniform_tensors.
POISONABLE = [
    "algebra/cross-as-seq-transpose",
    "algebra/ddot-symmetry",
    "algebra/dot-ddot-associativity",
    "algebra/pos-equals-cross-rank2",
    "algebra/cross-via-seq-2x2",
    "algebra/cross-via-seq-4x2",
    "algebra/cross-via-seq-4x4",
    "iso/role/cross/III/left",
    "iso/role/pos/I/right",
    "bridge/layout-roundtrip",
    "bridge/rank2-contraction",
    "bridge/rule/chain_tensor",
    "bridge/rule/product_dot",
    "bridge/rule/unit_and_transposer",
    "bridge/rule/square",
    "bridge/rule/inverse",
    "bridge/rule/scalar_times_tensor",
]


@pytest.mark.parametrize("poisoned", [BLOCK + 5, 2 * BLOCK + 1], ids=["middle", "last"])
@pytest.mark.parametrize("name", POISONABLE)
def test_one_nan_operand_fails_its_report(trial_functions, monkeypatch, name, poisoned):
    # a NaN in the first operand of one trial, in a middle or the last partial block
    real = tenderiv.rng.uniform_tensors
    seen = [0]

    def poisoning(rng, n, *ranks):
        stacks = real(rng, n, *ranks)
        if seen[0] <= poisoned < seen[0] + n:
            stacks[0][poisoned - seen[0]].flat[0] = np.nan
        seen[0] += n
        return stacks

    for module in (tenderiv.suites, tenderiv.bridge):
        monkeypatch.setattr(module, "uniform_tensors", poisoning)
    with np.errstate(invalid="ignore"):
        report = fuzz_report(name, SEED, 2 * BLOCK + 3, TOL, trial_functions[name])
    assert seen[0] == 2 * BLOCK + 3
    assert report.nonfinite == 1
    assert not report.passed
    assert np.isfinite(report.max_abs_err)


# ---------------------------------------------------------------------------
# batched products
# ---------------------------------------------------------------------------

# slot orders in which the values of a stack are stored before being viewed
# back in slot order: each view is non-contiguous with permuted strides
STORED_ORDERS = {
    2: [(1, 0)],
    4: [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0), (1, 2, 3, 0)],
}


def views(a, rank):
    """The stack a as an array and as strided, slot-permuted and trial-innermost views of it."""
    found = [a]
    spread = np.zeros((2 * len(a),) + a.shape[1:])
    spread[::2] = a  # every other item of a longer stack
    found.append(spread[::2])
    wide = np.zeros((len(a),) + (6,) * rank)
    every_other = (slice(None),) + (slice(None, None, 2),) * rank
    wide[every_other] = a  # every other entry along each slot
    found.append(wide[every_other])
    for order in STORED_ORDERS[rank]:
        stored = np.ascontiguousarray(a.transpose(0, *(1 + i for i in order)))
        found.append(stored.transpose(0, *(1 + i for i in np.argsort(order))))
    # stored trial-innermost, as uniform_tensors lays out its stacks, with the
    # slots in order and permuted: product reads these without a copy
    for slots in (range(rank), STORED_ORDERS[rank][0]):
        stored = np.ascontiguousarray(a.transpose(*(1 + i for i in slots), 0))
        found.append(stored.transpose(rank, *np.argsort(slots)))
        assert found[-1].strides[0] == a.itemsize or len(a) == 1
    for view in found:
        assert np.array_equal(view, a)
    return found


# product evaluates any row through algebra._plan, and the letter-swap test
# below relies on that for rows outside the table.  So the kernel tests also
# run six rows that are not in SUBSCRIPTS: positional double contractions, which
# put the second operand's free slots inside the result.  Each test installs
# its row in _PLANS for its own run only.
EXTRA_ROWS = {
    ("pos_ddot_left1", (4, 4)): "ijkl,abji->abkl",
    ("pos_ddot_left2", (4, 4)): "ijkl,abkj->iabl",
    ("pos_ddot_left3", (4, 4)): "ijkl,ablk->ijab",
    ("pos_ddot_right2", (4, 4)): "ijkl,jiab->abkl",
    ("pos_ddot_right3", (4, 4)): "ijkl,kjab->iabl",
    ("pos_ddot_right4", (4, 4)): "ijkl,lkab->ijab",
}
# the extra rows last, so that a table row's case keeps its id
KERNEL_ROWS = sorted(SUBSCRIPTS) + sorted(EXTRA_ROWS)


def install(monkeypatch, key):
    """Make product evaluate ``key``, a table row or one of EXTRA_ROWS."""
    if key in EXTRA_ROWS:
        monkeypatch.setitem(tenderiv.algebra._PLANS, key, tenderiv.algebra._plan(EXTRA_ROWS[key]))


# a few items; 128, 256 and 512 items and one more of each; and half a block
# and a block, and one more of each (the sizes are literal: see TRIAL_COUNTS)
@pytest.mark.parametrize("n", sorted({1, 2, 5, 7, 128, 129, 256, 257, 512, 513,
                                      HALF, HALF + 1, BLOCK, BLOCK + 1}))
@pytest.mark.parametrize("key", KERNEL_ROWS)
def test_batched_product_equals_stacked_single_products(monkeypatch, key, n):
    install(monkeypatch, key)
    op, ranks = key
    rng = trial_rng(900, n)
    x = rng.uniform(-1.0, 1.0, (n,) + (3,) * ranks[0])
    y = rng.uniform(-1.0, 1.0, (n,) + (3,) * ranks[1])
    got = product(op, x, y, ranks)
    singles = [np.asarray(product(op, x[t], y[t])) for t in range(n)]
    want = np.stack(singles)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # each single product equals its one-item batch
    for t, single in enumerate(singles):
        assert np.array_equal(product(op, x[t:t + 1], y[t:t + 1], ranks)[0], single)
    # no batch axes at all: the same value as the unbatched product
    assert np.array_equal(product(op, x[0], y[0], ranks), want[0])
    # the strides of the operands change no bit, batched or item by item
    x_views, y_views = views(x, ranks[0]), views(y, ranks[1])
    inputs = ([(v, y) for v in x_views[1:]] + [(x, v) for v in y_views[1:]]
              + list(zip(x_views[1:], y_views[1:])))
    for xv, yv in inputs:
        assert np.array_equal(product(op, xv, yv, ranks), want)
        assert np.array_equal(np.stack([product(op, xv[t], yv[t]) for t in range(n)]), want)


LOOP_ORACLES = {
    "dot": dot_oracle, "ddot_seq": ddot_seq_oracle, "ddot_cross": ddot_cross_oracle,
    "ddot_pos": ddot_pos_oracle, "outer": outer_oracle, "box": box_oracle,
    "boxhat": boxhat_oracle,
}


def oracle_of(op):
    """The loop oracle of a KERNEL_ROWS operation, as a function of (x, y)."""
    for prefix, oracle in [("pos_dot", pos_dot_oracle), ("pos_ddot_right", pos_ddot_right_oracle)]:
        if op.startswith(prefix):
            return lambda x, y: oracle(x, y, int(op[len(prefix):]))
    if op.startswith("pos_ddot_left"):
        return lambda x, y: pos_ddot_left_oracle(y, x, int(op[len("pos_ddot_left"):]))
    return LOOP_ORACLES[op]


@pytest.mark.parametrize("batched", ["both", "x", "y", "neither"])
@pytest.mark.parametrize("key", KERNEL_ROWS)
def test_product_matches_loop_oracle_with_and_without_batch_axes(monkeypatch, key, batched):
    install(monkeypatch, key)
    op, ranks = key
    n = 3
    rng = trial_rng(902, 0)
    xs = rng.uniform(-2.0, 2.0, (n,) + (3,) * ranks[0])
    ys = rng.uniform(-2.0, 2.0, (n,) + (3,) * ranks[1])
    x = xs if batched in ("both", "x") else xs[0]
    y = ys if batched in ("both", "y") else ys[0]
    got = product(op, x, y, ranks)
    items = [got] if batched == "neither" else list(got)
    for t, item in enumerate(items):
        xt = xs[t] if batched in ("both", "x") else xs[0]
        yt = ys[t] if batched in ("both", "y") else ys[0]
        want = oracle_of(op)(xt, yt)
        assert np.shape(item) == np.shape(want)
        assert np.max(np.abs(item - want)) / (1.0 + maxabs(xt) * maxabs(yt)) <= 1e-14


@pytest.mark.parametrize("key", KERNEL_ROWS)
def test_nonfinite_item_stays_in_its_item_and_fails_its_report(monkeypatch, key):
    install(monkeypatch, key)
    op, ranks = key
    n, poisoned = BLOCK + 1, 70
    rng = trial_rng(903, 0)
    x = rng.uniform(-1.0, 1.0, (n,) + (3,) * ranks[0])
    y = rng.uniform(-1.0, 1.0, (n,) + (3,) * ranks[1])
    clean = product(op, x, y, ranks)
    x[poisoned].flat[0] = np.nan
    y[poisoned].flat[-1] = np.inf
    out_rank = np.ndim(clean) - 1
    done = [0]

    def trial_legs(rng, size):
        block = slice(done[0], done[0] + size)
        done[0] += size
        return [([(product(op, x[block], y[block], ranks), clean[block])], out_rank, None)]

    with np.errstate(invalid="ignore"):
        got = product(op, x, y, ranks)
        report = fuzz_report(f"kernel/{op}", SEED, n, TOL, trial_legs)
    finite = np.isfinite(got).reshape(n, -1).all(axis=1)
    assert not finite[poisoned]
    assert finite.sum() == n - 1
    assert np.array_equal(np.delete(got, poisoned, axis=0), np.delete(clean, poisoned, axis=0))
    assert done[0] == n
    assert report.nonfinite == 1 and not report.passed and report.max_abs_err == 0.0


class RecordingPlans(dict):
    """The plan table, noting each key looked up."""

    def __init__(self, plans):
        super().__init__(plans)
        self.seen = set()

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("seed", [3, 42])
def test_the_suite_reaches_every_table_row(monkeypatch, seed):
    plans = RecordingPlans(tenderiv.algebra._PLANS)
    monkeypatch.setattr(tenderiv.algebra, "_PLANS", plans)
    assert full_identity_suite(seed, 1).all_pass
    assert sorted(set(SUBSCRIPTS) - plans.seen) == []


def letter_swaps(subscripts):
    """The row with two letters of one operand swapped, for each such pair.

    No operand of the table repeats a letter.
    """
    operands, out = subscripts.split("->")
    sides = operands.split(",")
    for side, labels in enumerate(sides):
        for a, b in itertools.combinations(labels, 2):
            mutated = list(sides)
            mutated[side] = labels.translate(str.maketrans(a + b, b + a))
            yield ",".join(mutated) + "->" + out


@pytest.mark.parametrize("key", sorted(SUBSCRIPTS),
                         ids=lambda key: "{}-{}x{}".format(key[0], *key[1]))
def test_every_letter_swap_in_a_table_row_fails_the_suite(monkeypatch, key):
    # no swap is equivalent to its row today; one that is must be listed here
    # with its reason, not skipped
    survivors = []
    for mutated in letter_swaps(SUBSCRIPTS[key]):
        monkeypatch.setitem(tenderiv.algebra._PLANS, key, tenderiv.algebra._plan(mutated))
        if full_identity_suite(42, 50).all_pass:
            survivors.append(mutated)
    assert survivors == []


def test_batched_product_takes_ranks_from_the_caller():
    # a (3,3,3,3) array is one fourth-rank tensor or a 3x3 stack of second-rank ones
    rng = trial_rng(901, 0)
    m, a = random_ten4(rng), random_ten2(rng)
    as_stack = product("ddot_cross", m, a, (2, 2))
    assert as_stack.shape == (3, 3)
    assert as_stack[1, 2] == ddot_cross(m[1, 2], a)
    assert np.array_equal(product("ddot_cross", m, a, (4, 2)), ddot_cross(m, a))


def test_batched_product_rejects_bad_ranks():
    x2, x4 = np.zeros((5, 3, 3)), np.zeros((5, 3, 3, 3, 3))
    with pytest.raises(RankError):
        product("ddot_seq", x2, np.zeros((5, 2, 2)), (2, 2))
    with pytest.raises(RankError):
        product("outer", x4, x4, (4, 4))
    with pytest.raises(RankError):
        product("dot", x2, x2, (4, 2))
    with pytest.raises(RankError):
        product("ddot_seq", np.zeros((2, 2)), np.zeros((2, 2)))


def test_maxabs_per_item_propagates_nan():
    stack = np.zeros((4, 3, 3))
    stack[1, 2, 0] = -5.0
    stack[2, 0, 1] = np.nan
    got = maxabs(stack, 2)
    assert got[0] == 0.0 and got[1] == 5.0 and np.isnan(got[2]) and got[3] == 0.0
    assert np.array_equal(maxabs(np.array([-1.0, 2.0]), 0), [1.0, 2.0])
