"""Hand mutants of the package, each run through `tenderiv identities`.

Run from the repository root:

    python tests/mutants.py

Each mutant replaces one line's text in one file under src/tenderiv.  For
each, the script copies src/ into a temporary directory, applies the
mutant there and runs `python -m tenderiv identities --seed 42 --trials 50`
on the copy, two processes at a time; the working tree is never edited.  It
prints each mutant's exit code and failing rows.

A mutant marked "killed" must make identities exit 1.  The others survive
today; each names the ROADMAP item whose rows are to kill it, and the script
says so when one starts to fail.  The script exits 1 when a "killed"
mutant exits 0, when the unmutated copy does not pass, or when a mutant's
old text does not occur exactly once in its file.  Not part of tier-1:
pytest collects test_*.py files only.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["identities", "--seed", "42", "--trials", "50"]
TIMEOUT_S = 300
WORKERS = 2

# (file under src/tenderiv, old text, new text, expected outcome)
MUTANTS = [
    # a wrong output slot of the positional product; swapped letters inside
    # one operand of a SUBSCRIPTS row are tier-1's
    # test_blocks.py::test_every_letter_swap_in_a_table_row_fails_the_suite
    ("algebra.py", '("pos_dot3", (4, 2)): "ijkl,km->ijml"',
     '("pos_dot3", (4, 2)): "ijkl,km->ijlm"', "killed"),
    # the layout bridge with the wrong fourth-rank transpose
    ("bridge.py", 'return transpose4(transpose4(d4, "ti"), "dr")',
     'return transpose4(transpose4(d4, "dl"), "dr")', "killed"),
    ("bridge.py", 'return transpose4(transpose4(d4, "dr"), "ti")',
     'return transpose4(transpose4(d4, "dr"), "dl")', "killed"),
    # wrong derivative rules
    ("calculus.py", "- np.expand_dims(i1, (-2, -1)) * transpose2(a)",
     "+ np.expand_dims(i1, (-2, -1)) * transpose2(a)", "survives: ROADMAP item 1"),
    ("calculus.py", 'return iso_tensor("III")', 'return iso_tensor("II")',
     "survives: ROADMAP item 1"),
    ("calculus.py", "return np.multiply.outer(trace(a), ident2()) - transpose2(a)",
     "return np.multiply.outer(trace(a), ident2()) - a", "survives: ROADMAP item 1"),
    ("calculus.py", "return float(n) * transpose2(matpow(a, int(n) - 1))",
     "return float(n) * matpow(a, int(n) - 1)", "survives: ROADMAP item 1"),
    ("calculus.py", "lambda a: d_power(3, a)", "lambda a: d_power(2, a)",
     "survives: ROADMAP item 1"),
    ("calculus.py", "lambda a: d_power(2, a)", "lambda a: d_power(3, a)", "killed"),
    ("calculus.py", 'TensorFunction("inverse", "tensor", inverse2, d_inverse)',
     'TensorFunction("inverse", "tensor", inverse2, lambda a: d_inverse(a).swapaxes(-2, -1))',
     "killed"),
    # isotropic constants off by rounding
    ("isotropic.py", '"II": _read_only(box(_EYE, _EYE)),',
     '"II": _read_only(box(_EYE, _EYE) * (1 + 1e-14)),', "survives: ROADMAP item 1"),
    ("isotropic.py", '"I": _read_only(outer(_EYE, _EYE)),',
     '"I": _read_only(outer(_EYE, _EYE) * (1 + 2.0**-52)),', "survives: ROADMAP item 1"),
]


def check_table():
    """Problems with the table: an old text that does not occur exactly once."""
    problems = []
    for path, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "tenderiv" / path).read_text().count(old)
        if count != 1:
            problems.append(f"{path}: {old!r} occurs {count} times, not once")
    return problems


def run(mutant):
    """Exit code and failing report names of identities on a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="tenderiv-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path, old, new, _ = mutant
            target = src / "tenderiv" / path
            target.write_text(target.read_text().replace(old, new))
        out = Path(tmp) / "report.json"
        try:
            proc = subprocess.run([sys.executable, "-m", "tenderiv", *ARGS, "--out", str(out)],
                                  cwd=tmp, env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, [f"timed out after {TIMEOUT_S} s"]
        if not out.is_file() or not out.read_text():
            return proc.returncode, proc.stderr.strip().splitlines()[-1:] or ["no report"]
        reports = json.loads(out.read_text())["reports"]
        return proc.returncode, [r["name"] for r in reports if not r["pass"]]


def main():
    problems = check_table()
    if problems:
        print("\n".join(problems))
        return 1
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(run, [None] + MUTANTS))
    code, failing = results[0]
    bad = [] if code == 0 else [f"the unmutated copy exits {code}: {failing}"]
    for (path, old, new, expect), (code, failing) in zip(MUTANTS, results[1:]):
        print(f"{path}: {old} -> {new}\n  expected {expect}; exit {code}; "
              f"failing: {', '.join(failing) or 'none'}")
        if expect == "killed" and code != 1:
            bad.append(f"{path}: {old} -> {new} is not killed")
        elif expect != "killed" and code != 0:
            print("  now killed: mark it killed")
    print("\n".join(bad) or f"{len(MUTANTS)} mutants, every one marked killed is killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
