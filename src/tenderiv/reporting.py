"""Check reports produced by the verification suites, and the trial loop behind them."""

from dataclasses import dataclass, field

import numpy as np

from .algebra import maxabs
from .rng import report_rng

# Trials evaluated together by fuzz_report.  Each block costs a report about
# 90 us of Python calls and short numpy loops whatever its size, so larger
# blocks run faster; memory sets the limit.  At 512 the suite ran 1.15-1.2x
# as many trials per second as at 256 for 3% more peak memory.  At 1024 a
# process running full_identity_suite(7, 4096) six times peaked at 40.9-41.3
# MB RSS, not 37.8-38.1, and was no faster: a suite's median CPU time was
# 225-274 ms, against 208-276 at 512 (five processes each).
BLOCK = 512


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named identity check.

    ``max_abs_err`` is the worst finite trial error and ``nonfinite`` counts
    the trials whose error was NaN or infinite; ``passed`` is true exactly
    when ``nonfinite == 0`` and ``max_abs_err <= tol``.  A check's rows
    return their legs and trial_error measures them, each side's difference
    over its leg's scale, so ``tol`` is the base tolerance of the identity.
    """

    name: str
    trials: int
    max_abs_err: float
    tol: float
    passed: bool
    seed: int
    nonfinite: int = 0

    @classmethod
    def from_measurement(cls, name, trials, errors, tol, seed):
        """Report from one error or a sequence of trial errors."""
        errors = np.asarray(errors, dtype=float).ravel()
        finite = errors[np.isfinite(errors)]
        nonfinite = errors.size - finite.size
        err, tol = float(finite.max()) if finite.size else 0.0, float(tol)
        return cls(name, int(trials), err, tol, nonfinite == 0 and err <= tol, int(seed),
                   nonfinite)

    def to_obj(self):
        return {
            "name": self.name,
            "trials": self.trials,
            "max_abs_err": self.max_abs_err,
            "nonfinite": self.nonfinite,
            "tol": self.tol,
            "pass": self.passed,
            "seed": self.seed,
        }


def trial_error(legs):
    """Each trial's error over a row's legs: the largest |lhs - rhs| entry, over its leg's scale.

    A leg ``(pairs, rank, scale)`` holds pairs of the two sides of an
    identity as stacks of rank-``rank`` tensors, one item per trial, or as
    single tensors; a NaN in any pair makes that item's error NaN.  Each
    pair's largest entry is divided by its leg's ``scale`` and the result is
    their elementwise maximum.  Division rounds monotonically, so this has
    the bits of dividing each leg's maximum.  ``scale`` is 1 plus the size of
    the terms compared, so the tolerance is a rounding allowance: the product
    of the operands' max-norms, or a rule row's own (max|A^-1|^2 for the
    inverse, max|D| max|E| for a complex step).  The layout, rotation and
    C_II : C_II legs, of permuted entries or 0/1 constants, have scale None.
    """
    err = None
    for pairs, rank, scale in legs:
        for lhs, rhs in pairs:
            e = maxabs(lhs - rhs, rank)
            e = e if scale is None else e / scale
            err = e if err is None else np.maximum(err, e)
    return err


def fuzz_report(name, seed, trials, tol, trial_legs):
    """Evaluate ``trials`` trials of a check in blocks on the report's own generator.

    ``trial_legs(rng, n)`` draws the operands of the next n trials from rng,
    in trial-major order, and returns the legs of those n trials (see
    trial_error); a leg of single tensors holds for all n.  Blocks hold BLOCK
    trials, the last one the remainder, so a trial's operands and error do not
    depend on where the block boundaries fall.

    Raises ValueError when ``trials < 1``: a report that ran no trial has
    checked nothing and must not pass.
    """
    if trials < 1:
        raise ValueError(f"{name}: trials must be at least 1, got {trials}")
    rng = report_rng(seed, name)
    sizes = [min(BLOCK, trials - done) for done in range(0, trials, BLOCK)]
    errors = [np.broadcast_to(trial_error(trial_legs(rng, n)), n) for n in sizes]
    return CheckReport.from_measurement(name, trials, np.concatenate(errors), tol, seed)


@dataclass
class RunSummary:
    """Aggregate of a suite run.

    ``wall_time_ms`` is kept for operator logs only; the serialized report
    contains reports and the overall verdict, so identical inputs produce
    identical bytes.
    """

    reports: list = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def all_pass(self):
        return all(r.passed for r in self.reports)

    def to_obj(self):
        return {
            "reports": [r.to_obj() for r in self.reports],
            "all_pass": self.all_pass,
        }
