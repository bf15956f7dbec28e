"""Run one benchmark workload in this (fresh) interpreter and print its result.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Started by run.py with the environment it pins.  Every workload is a closed
loop with one client: the next operation starts when the previous one has
returned and its output has been checked.  Only the call into tenderiv is
timed; checks run between operations, outside the timed interval.  The last
stdout line is a JSON object with ``attempted``, ``failed`` and ``metrics``.
"""

import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import tenderiv
from tenderiv import basis, cli, serialize, suites

from tracer import BRIDGE_ROWS, CATALOG, FUNCTIONS, Tracer, read_spans, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED_REPORTS = json.loads((HERE / "expected_reports.json").read_text())
CHILD_TIMEOUT_S = 60

# Bound before any tracer is installed, so the benchmark's own checks are
# never traced and cost tenderiv's layers nothing.
_dumps = serialize.dumps


def _timed(fn, *args, **kwargs):
    """(seconds, result, error) of one call; error is None when it returned."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # an exception is a failed operation, not a crash
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


def identity_seed(workload_seed, k):
    """Suite seed of operation k; every fourth operation repeats the seed of op k-3."""
    if k % 4 == 3:
        k -= 3
    return random.Random(f"{workload_seed}/{k}").getrandbits(32)


def check_reports(names, all_pass, failing):
    if names != EXPECTED_REPORTS:
        missing = sorted(set(EXPECTED_REPORTS) - set(names))
        extra = sorted(set(names) - set(EXPECTED_REPORTS))
        return f"report names differ (missing {missing}, extra {extra}, or reordered)"
    if not all_pass:
        return f"all_pass is false; failing: {failing}"
    return None


# Every workload's step() runs one operation and returns
# (label, seconds, error, check): `check()` inspects the output outside the
# timed interval and returns (verified work units, problem or None).

class _Identities:
    """Shared by both identities workloads: seeds and the byte-identity check."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.k = 0
        self.seen = {}

    def restart(self):
        self.k = 0

    def next_seed(self):
        s = identity_seed(self.seed, self.k)
        self.k += 1
        return s

    def verdict(self, seed, reports, all_pass, data):
        """(trials, problem) for one suite run given as report dicts and its bytes."""
        problem = check_reports([r["name"] for r in reports], all_pass is True,
                                [r["name"] for r in reports if r["pass"] is not True])
        if problem is None and self.seen.setdefault(seed, data) != data:
            problem = "output bytes differ from an earlier run with the same seed"
        return sum(r["trials"] for r in reports), problem


class IdentitiesCli(_Identities):
    """`python -m tenderiv identities --trials 200` as a fresh process per operation."""

    trials = 200
    warm_ops = 1
    trace_ops = 3
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.trace_totals = None   # set to {} to run children under the tracer
        self.bytes_out = 0

    def step(self):
        seed = self.next_seed()
        out = self.workdir / "identities.json"
        spans = self.workdir / "spans.tsv"
        args = ["identities", "--seed", str(seed), "--trials", str(self.trials), "--out", str(out)]
        if self.trace_totals is None:
            argv = [sys.executable, "-m", "tenderiv", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_runner.py"), str(spans), *args]
        out.unlink(missing_ok=True)
        dt, proc, err = _timed(subprocess.run, argv, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)

        def check():
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
                return 0, f"exit code {proc.returncode}: {tail}"
            if self.trace_totals is not None:
                self._add_spans(read_spans(spans))
            data = out.read_bytes()
            report = json.loads(data)
            return self.verdict(seed, report["reports"], report["all_pass"], data)

        return "python -m tenderiv " + " ".join(args[:5]), dt, err, check

    def _add_spans(self, child):
        self.bytes_out += child.bytes_out
        for key, acc in totals(child).items():
            mine = self.trace_totals.setdefault(key, [0, 0, 0])
            for i in range(3):
                mine[i] += acc[i]


class IdentitiesBulk(_Identities):
    """One in-process `full_identity_suite(seed, trials=1000)` per operation."""

    trials = 1000
    warm_ops = 1
    trace_ops = 1
    rss_of = resource.RUSAGE_SELF

    def step(self):
        seed = self.next_seed()
        dt, summary, err = _timed(suites.full_identity_suite, seed, self.trials)

        def check():
            obj = summary.to_obj()
            return self.verdict(seed, obj["reports"], obj["all_pass"], _dumps(obj))

        return f"full_identity_suite(seed={seed}, trials={self.trials})", dt, err, check


class DerivCli:
    """In-process `tenderiv.cli.main` requests: `deriv --fd-check`, then `convert` both ways.

    Request k differentiates catalog entry k mod 11 at argument matrix k mod 10,
    so 110 requests cover every pair.  One of the ten matrices is exactly
    singular (a repeated row); the others have O(1) entries, |det| >= 0.1 and
    condition number <= 10.
    """

    warm_ops = 220
    trace_ops = 220
    rss_of = resource.RUSAGE_SELF
    n_matrices = 10

    def __init__(self, seed, workdir):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        singular = int(rng.integers(self.n_matrices))
        self.matrices = []
        for i in range(self.n_matrices):
            while True:
                a = rng.uniform(-1.0, 1.0, (3, 3))
                if i == singular:
                    a[2] = a[0]
                    break
                if abs(np.linalg.det(a)) >= 0.1 and np.linalg.cond(a) <= 10.0:
                    break
            path = workdir / f"at{i}.json"
            path.write_text(json.dumps({"matrix": a.tolist()}))
            self.matrices.append((path, i == singular))
        self.digests = {}
        self.restart()

    def restart(self):
        self.k = 0
        self.pending = []

    def step(self):
        if self.pending:
            return self.pending.pop(0)()
        k = self.k
        self.k += 1
        fn = CATALOG[k % len(CATALOG)]
        at, singular = self.matrices[k % self.n_matrices]
        out = self.workdir / "deriv.json"
        out.unlink(missing_ok=True)
        dt, rc, err = _timed(cli.main, ["deriv", "--fn", fn, "--at", str(at), "--fd-check",
                                        "--out", str(out)])

        def check():
            data = out.read_bytes()
            payload = json.loads(data)
            if fn == "inverse" and singular:
                if rc != 1 or payload["error"]["type"] != "domain-error":
                    return 0, f"expected exit 1 with a domain-error payload, got exit {rc}"
            else:
                if rc != 0:
                    return 0, f"exit code {rc}"
                key = "matrix" if payload["kind"] == "scalar" else "tensor4"
                analytic = np.array(payload["derivative"][key])
                fd_err = float(np.max(np.abs(np.array(payload["fd"][key]) - analytic)))
                tol = 1e-5 if fn == "inverse" else 1e-6
                if not fd_err <= tol:
                    return 0, f"max |fd - derivative| = {fd_err:.3e} > {tol:g}"
                if key == "tensor4":
                    self._queue_converts(analytic)
            digest = hashlib.sha256(data).digest()
            if self.digests.setdefault((fn, at), digest) != digest:
                return 0, "output bytes differ from an earlier identical request"
            return 1, None

        return f"deriv --fn {fn} --at {at.name} --fd-check", dt, err, check

    def _queue_converts(self, trailing):
        src = self.workdir / "trailing.json"
        nested = self.workdir / "nested.json"
        back = self.workdir / "back.json"
        src.write_text(_dumps({"tensor4": trailing.tolist()}))
        # README rule: N[i,k,l,j] = D[i,j,k,l]
        oracle = np.transpose(trailing, (0, 2, 3, 1))

        def nested_matches():
            return np.array_equal(np.array(json.loads(nested.read_bytes())["tensor4"]), oracle)

        self.pending = [
            lambda: self._convert("to-group2", src, nested, nested_matches,
                                  "output differs from the transpose oracle"),
            lambda: self._convert("to-group3", nested, back,
                                  lambda: back.read_bytes() == src.read_bytes(),
                                  "did not give back the to-group2 input bytes"),
        ]

    def _convert(self, direction, src, dst, ok, complaint):
        dst.unlink(missing_ok=True)
        dt, rc, err = _timed(cli.main, ["convert", "--direction", direction,
                                        "--tensor", str(src), "--out", str(dst)])

        def check():
            if rc != 0:
                return 0, f"exit code {rc}"
            return (1, None) if ok() else (0, complaint)

        return f"convert --direction {direction}", dt, err, check


BASIS_COMBOS = (
    [("dot", 2, 2), ("dot", 2, 4), ("dot", 4, 2)]
    + [(op, rx, ry) for op in ("ddot_seq", "ddot_cross", "ddot_pos")
       for rx, ry in ((2, 2), (2, 4), (4, 2), (4, 4))]
    + [("outer", 2, 2), ("box", 2, 2), ("boxhat", 2, 2)]
)


class BasisInvariance:
    """One `make_basis` plus `verify_basis_invariance` per operation.

    Inputs cycle through 8 generated cases for each of the 18 (operation,
    rank pair) combinations: a skewed frame I + 0.5 U with |det| >= 0.2,
    operands with entries in [-1, 1], and a random hi/lo tag per slot.
    """

    warm_ops = 144
    trace_ops = 144
    rss_of = resource.RUSAGE_SELF

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in range(8 * len(BASIS_COMBOS)):
            op, rx, ry = BASIS_COMBOS[n % len(BASIS_COMBOS)]
            while True:
                frame = np.eye(3) + 0.5 * rng.uniform(-1.0, 1.0, (3, 3))
                if abs(np.linalg.det(frame)) >= 0.2:
                    break
            x = rng.uniform(-1.0, 1.0, (3,) * rx)
            y = rng.uniform(-1.0, 1.0, (3,) * ry)
            tags = tuple(("hi", "lo")[t] for t in rng.integers(2, size=rx + ry))
            self.cases.append((op, frame, x, y, (tags[:rx], tags[rx:])))
        self.restart()

    def restart(self):
        self.k = 0

    @staticmethod
    def _verify(op, frame, x, y, variances):
        b = basis.make_basis(frame[0], frame[1], frame[2])
        return basis.verify_basis_invariance(op, (x, y), b, variances, 1e-12)

    def step(self):
        case = self.cases[self.k % len(self.cases)]
        self.k += 1
        op, _, x, y, variances = case
        dt, rep, err = _timed(self._verify, *case)

        def check():
            if rep.name != f"basis/{op}" or rep.tol != 1e-12 or not rep.passed:
                return 0, f"report {rep} does not pass at 1e-12"
            return 1, None

        return f"verify_basis_invariance({op}, ranks {x.ndim}x{y.ndim}, {variances})", dt, err, check


WORKLOADS = {
    "identities-cli": IdentitiesCli,
    "identities-bulk": IdentitiesBulk,
    "deriv-cli": DerivCli,
    "basis-invariance": BasisInvariance,
}


class Phase:
    """Latencies, verified work units and failures of one closed-loop phase."""

    def __init__(self):
        self.latencies = array("d")
        self.units = 0
        self.failures = []


def run_ops(wl, seconds, batch=None, tracer=None):
    """Run operations until `seconds` have passed.

    With `batch`, the operation sequence restarts every `batch` operations and
    the phase ends only at a batch boundary (at least one batch), so a traced
    phase covers exactly the same operations every time.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    wl.restart()
    while True:
        if tracer is not None:
            tracer.op = len(phase.latencies)
        label, dt, problem, check = wl.step()
        phase.latencies.append(dt)
        units = 0
        if problem is None:
            try:
                units, problem = check()
            except (LookupError, TypeError, ValueError, OSError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"
        if problem:
            phase.failures.append(f"op {len(phase.latencies) - 1} {label}: {problem}")
        else:
            phase.units += units
        if batch is None or len(phase.latencies) % batch == 0:
            if perf_counter() >= deadline:
                return phase
            if batch is not None:
                wl.restart()


def end_to_end(wl, phase):
    lat_ms = [dt * 1e3 for dt in phase.latencies]
    return {
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                           if len(lat_ms) > 1 else lat_ms[0]),
        "throughput_per_s": phase.units / sum(phase.latencies),
        "peak_rss_mb": resource.getrusage(wl.rss_of).ru_maxrss / 1024.0,
    }


def per_layer(span_totals, bytes_out, phase, ref):
    """Per-operation layer metrics from the traced phase's span totals."""
    n_ops = len(phase.latencies)
    wall_ns = sum(phase.latencies) * 1e9
    by_name = {}
    by_entry = {}
    for (name, entry), (calls, self_ns, incl_ns) in span_totals.items():
        acc = by_name.setdefault(name, [0, 0, 0])
        acc[0] += calls
        acc[1] += self_ns
        acc[2] += incl_ns
        if entry:
            by_entry[entry] = by_entry.get(entry, 0) + incl_ns
    metrics = {}
    for layer, funcs in FUNCTIONS.items():
        for func in funcs:
            calls, self_ns, _ = by_name.get(f"{layer}.{func}", (0, 0, 0))
            metrics[f"{layer}.{func}.calls"] = calls / n_ops
            metrics[f"{layer}.{func}.self_ms"] = self_ns / 1e6 / n_ops
    for row in BRIDGE_ROWS:
        metrics[f"bridge.row.{row}.ms"] = by_name.get(f"bridge.row.{row}", (0, 0, 0))[2] / 1e6 / n_ops
    for entry in CATALOG:
        metrics[f"calculus.fd.{entry}.ms"] = by_entry.get(entry, 0) / 1e6 / n_ops
    for layer in FUNCTIONS:
        self_ns = sum(acc[1] for name, acc in by_name.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = self_ns / wall_ns
    metrics["serialize.bytes_out"] = bytes_out / n_ops
    metrics["trace.overhead_ratio"] = (statistics.median(phase.latencies)
                                       / statistics.median(ref.latencies))
    return metrics


def describe(name, phase):
    lat = sorted(phase.latencies)
    print(f"{name}: {len(lat)} ops, {len(phase.failures)} failed, "
          f"error_ratio={len(phase.failures) / len(lat):.6g}, {phase.units} units verified, "
          f"p50 {statistics.median(lat) * 1e3:.3f} ms, max {lat[-1] * 1e3:.3f} ms")
    for line in phase.failures[:20]:
        print(f"  FAIL {line}")
    if len(phase.failures) > 20:
        print(f"  ... and {len(phase.failures) - 20} more failures")


def print_span_table(span_totals, n_ops):
    print(f"{'span':<46}{'calls/op':>12}{'incl ms/op':>12}{'self ms/op':>12}")
    rows = sorted(span_totals.items(), key=lambda kv: -kv[1][2])
    for (name, entry), (calls, self_ns, incl_ns) in rows:
        label = f"{name}[{entry}]" if entry else name
        print(f"{label:<46}{calls / n_ops:>12.6g}{incl_ns / 1e6 / n_ops:>12.4f}"
              f"{self_ns / 1e6 / n_ops:>12.4f}")


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    origin = Path(tenderiv.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"tenderiv was imported from {origin}, not from {ROOT / 'src'}")
    workdir = WORK / f"{name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, workdir)
        run_ops(wl, 0, batch=wl.warm_ops)
        if not trace:
            phase = run_ops(wl, seconds)
            describe(name, phase)
            phases = [phase]
            metrics = end_to_end(wl, phase)
        else:
            ref = run_ops(wl, seconds / 2, batch=wl.trace_ops)
            describe(f"{name} untraced", ref)
            if isinstance(wl, IdentitiesCli):
                wl.trace_totals = {}
                phase = run_ops(wl, 0, batch=wl.trace_ops)
                span_totals, bytes_out = wl.trace_totals, wl.bytes_out
            else:
                tracer = Tracer()
                tracer.install()
                phase = run_ops(wl, 0, batch=wl.trace_ops, tracer=tracer)
                spans = WORK / f"spans-{name}-seed{seed}.tsv"
                tracer.write(spans)
                span_totals, bytes_out = totals(tracer), tracer.bytes_out
                print(f"{len(tracer.name_ids)} spans written to {spans.relative_to(ROOT)}")
            describe(f"{name} traced", phase)
            print_span_table(span_totals, len(phase.latencies))
            phases = [ref, phase]
            metrics = per_layer(span_totals, bytes_out, phase, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
