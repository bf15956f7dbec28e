"""Source checks: no BLAS or LAPACK call and no allocator tuning anywhere in the package.

Every sum in tenderiv runs in an order the code fixes (algebra.product's
kernel, the cofactor inverse, Gram-Schmidt, two-operand einsum steps), so
its bits do not depend on the CPU or the BLAS build.  A matrix product
operator, np.linalg or a numpy product function that may dispatch to BLAS
would undo that silently; this walks the syntax tree of every module and
names each such use.  The one-trial references of test_blocks.py compare
bits with the package, so they are walked too; the np.linalg oracles of
oracles.py compare within a tolerance and are exempt.

The batched kernel's temporaries reuse heap pages because algebra frees one
large array at import; glibc settings (mallopt through ctypes, MALLOC_*
variables) would hide a regression there, so no file under src/ may name
them.

basis.make_basis builds its reciprocal frame from cross products in Python
floats, the steps of inverse_det written out for one frame, and
test_basis.py holds the two to the same bits.  That test would compare
inverse_det with itself if basis.py called it, so basis.py may not name
inverse_det or inverse2, nor star-import.

A report row returns its legs, the two sides of each identity it checks with
their rank and normalizer, and reporting.trial_error, the one place a trial's
error is defined, measures them: no other module may name trial_error,
bridge and isotropic import nothing from reporting, and suites, bridge and
isotropic may not take maxabs or abs of a subtraction themselves.

A deletion should take its leftovers with it: no module but __init__.py
(which re-exports) may import a name it never uses or define a module-level
private name that it never reads.
"""

import ast
from pathlib import Path

import tenderiv

BLAS_CALLS = {"tensordot", "matmul", "inner", "vdot"}
ALLOCATOR_TUNING = (b"mallopt", b"ctypes", b"MALLOC_")
SRC = Path(tenderiv.__file__).resolve().parents[1]
BIT_EXACT_REFERENCES = Path(__file__).resolve().with_name("test_blocks.py")


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in ("linalg", "dot") \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in BLAS_CALLS:
                yield node.lineno, f"{name}()"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(n.split(".")[-1] in BLAS_CALLS | {"linalg"} for n in names):
                yield node.lineno, "import of " + ", ".join(names)


def _blas_uses(paths):
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {what}" for line, what in _uses(tree)]
    return found


def test_package_makes_no_blas_or_linalg_call():
    found = _blas_uses(sorted(Path(tenderiv.__file__).parent.glob("*.py")))
    assert not found, "\n".join(found)


def test_bit_exact_references_make_no_blas_or_linalg_call():
    found = _blas_uses([BIT_EXACT_REFERENCES])
    assert not found, "\n".join(found)


def test_the_walk_finds_each_kind_of_use():
    source = """
c = a @ b
c @= b
np.linalg.inv(a)
np.dot(a, b)
np.tensordot(a, b, axes=2)
x.matmul(y)
np.inner(a, b)
numpy.vdot(a, b)
from numpy.linalg import inv
"""
    lines = sorted(line for line, _ in _uses(ast.parse(source)))
    assert lines == list(range(2, 11))


def test_source_does_not_tune_the_allocator():
    found = []
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            for n, line in enumerate(path.read_bytes().splitlines(), 1):
                found += [f"{path.relative_to(SRC)}:{n}: {word.decode()}"
                          for word in ALLOCATOR_TUNING if word in line]
    assert not found, "\n".join(found)


def test_basis_takes_no_inverse_from_algebra():
    path = Path(tenderiv.__file__).with_name("basis.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # a star import would bring both names in unseen
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Name):
            found.append(node.id)
    assert not {"inverse_det", "inverse2", "*"} & set(found)


def _leftovers(tree):
    """Imported names the module never uses, and module-level private names it never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    defined = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            defined += [(node.lineno, "import", (alias.asname or alias.name).split(".")[0])
                        for alias in node.names if alias.name != "*"]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        defined += [(node.lineno, "private", name) for name in names
                    if name.startswith("_") and not name.startswith("__")]
    return [f"{line}: {kind} {name}" for line, kind, name in defined if name not in read]


def test_no_module_keeps_an_unused_import_or_private_name():
    found = []
    for path in sorted(Path(tenderiv.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{what}" for what in _leftovers(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_the_leftover_walk_finds_each_kind():
    source = """
import math
import os.path
from .algebra import DIM, maxabs as _maxabs
_TABLE = {}
_A, _b = 1, 2
def _helper():
    return _b
class _Unused:
    pass
print(_helper, __doc__)
"""
    assert _leftovers(ast.parse(source)) == [
        "2: import math", "3: import os", "4: import DIM", "4: import _maxabs",
        "5: private _TABLE", "6: private _A", "9: private _Unused",
    ]


def _own_error_rules(tree):
    """Lines that measure |lhs - rhs| themselves: maxabs, abs or np.abs of a subtraction."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.BinOp) \
                and isinstance(node.args[0].op, ast.Sub):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in (
                    "maxabs", "abs", "absolute"):
                yield node.lineno


def test_report_rows_measure_their_errors_through_trial_error():
    found = []
    for name in ("suites.py", "bridge.py", "isotropic.py"):
        path = Path(tenderiv.__file__).with_name(name)
        found += [f"{name}:{line}" for line in _own_error_rules(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_the_error_rule_walk_finds_each_kind():
    source = """
maxabs(a - b, 2)
np.abs(a - b) / scale
abs(x - y)
np.absolute(a - b)
maxabs(a, 2) - maxabs(b, 2)
trial_error([([(a, b)], 2, None)])
"""
    assert sorted(_own_error_rules(ast.parse(source))) == [2, 3, 4, 5]


def _error_rule_uses(tree):
    """Lines that name trial_error, and lines that import from the reporting module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "trial_error" \
                or isinstance(node, ast.Attribute) and node.attr == "trial_error" \
                or isinstance(node, ast.FunctionDef) and node.name == "trial_error":
            yield node.lineno, "trial_error"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if "trial_error" in names:
                yield node.lineno, "trial_error"
            modules = [getattr(node, "module", None) or ""] + names
            if any(n.split(".")[-1] == "reporting" for n in modules):
                yield node.lineno, "reporting"


def test_only_reporting_measures_trial_errors():
    found = []
    for path in sorted(Path(tenderiv.__file__).parent.glob("*.py")):
        for line, what in _error_rule_uses(ast.parse(path.read_text())):
            if what == "trial_error" and path.name != "reporting.py" \
                    or what == "reporting" and path.name in ("bridge.py", "isotropic.py"):
                found.append(f"{path.name}:{line}: {what}")
    assert not found, "\n".join(found)


def test_the_trial_error_walk_finds_each_kind():
    source = """
trial_error(legs)
reporting.trial_error(legs)
from .reporting import trial_error
from .reporting import fuzz_report
from tenderiv.reporting import BLOCK
from . import reporting
import tenderiv.reporting
def trial_error(legs):
    pass
err = maxabs(a - b, 2)
from .algebra import maxabs
"""
    assert sorted(_error_rule_uses(ast.parse(source))) == [
        (2, "trial_error"), (3, "trial_error"), (4, "reporting"), (4, "trial_error"),
        (5, "reporting"), (6, "reporting"), (7, "reporting"), (8, "reporting"),
        (9, "trial_error"),
    ]
