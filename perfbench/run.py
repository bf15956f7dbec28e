"""tenderiv benchmark: run workloads in fresh worker processes and print metrics.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The untraced run (--trace 0) prints the end-to-end metrics listed in
BENCHMARK.json; the traced run (--trace 1) prints the per-layer metrics.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUN_TIMEOUT_S = 175
SETUP_PROBES = 9
IMPORT_PROBES = 5


def worker_env():
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "TENDERIV_SEED"):
        env.pop(var, None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        # bytecode for tenderiv and numpy goes here, never under src/
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _python(args, env, check=True):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=60,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=check)


def setup_seconds(env):
    """Median wall time of fresh interpreters that import tenderiv (warm bytecode cache)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        _python(["-c", "import tenderiv"], env)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_ms(env):
    """Median cumulative `-X importtime` of tenderiv and of numpy, in ms."""
    samples = {"tenderiv": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        err = _python(["-X", "importtime", "-c", "import tenderiv"], env).stderr
        seen = set()
        for line in err.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            name = parts[-1].strip()
            if len(parts) == 3 and name in samples and name not in seen:
                seen.add(name)
                samples[name].append(int(parts[1]) / 1e3)
    return {f"import.{name}_ms": statistics.median(vals) for name, vals in samples.items()}


def environment(env):
    """Warm the bytecode cache untimed, check which tenderiv is imported, record versions."""
    # its verdict is the workloads' business, so a failing exit code is fine here
    _python(["-m", "tenderiv", "identities", "--trials", "1", "--out", str(WORK / "warm.json")],
            env, check=False)
    probe = _python(["-c", "import numpy, tenderiv; print(numpy.__version__); print(tenderiv.__file__)"], env)
    numpy_version, origin = probe.stdout.split()
    if ROOT / "src" not in Path(origin).resolve().parents:
        raise RuntimeError(f"tenderiv resolves to {origin}, not to {ROOT / 'src'}")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: env[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "PYTHONPYCACHEPREFIX")},
    }


def run_workload(name, seed, seconds, trace, env, declared, deadline):
    """Run one workload in a fresh worker; returns (attempted, failed, metrics)."""
    extra = import_ms(env) if trace else {"setup_s": setup_seconds(env)}
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds), str(trace)]
    # own session, so a timeout also stops the worker's child processes
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = out.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    values = {**result["metrics"], **extra}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"worker for {name} did not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return result["attempted"], result["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tenderiv" / "__init__.py").is_file():
        print(f"error: no tenderiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = perf_counter()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = worker_env()
    WORK.mkdir(exist_ok=True)
    print("environment: " + json.dumps(environment(env)))

    attempted = failed = 0
    combined = {}
    for name in chosen:
        deadline = start + RUN_TIMEOUT_S * (chosen.index(name) + 1)
        a, f, metrics = run_workload(name, args.seed, seconds, args.trace, env, declared, deadline)
        attempted += a
        failed += f
        for metric, value in metrics.items():
            combined[metric if len(chosen) == 1 else f"{name}/{metric}"] = value
        if not args.trace:
            for metric, m in metrics.items():
                print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
