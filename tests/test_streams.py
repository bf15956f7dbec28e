import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import tenderiv.bridge
import tenderiv.suites
from tenderiv.rng import orthogonal_tensors, report_rng, report_substream, trial_rng
from tenderiv.suites import run_report

EXPECTED_REPORTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected_reports.json"


def test_report_substreams_are_distinct():
    names = json.loads(EXPECTED_REPORTS.read_text())
    assert len(names) == 41
    for a, b in combinations(names, 2):
        assert report_substream(a) != report_substream(b), (a, b)


def test_report_substream_is_the_blake2b_digest():
    for name in ("bridge/rule/chain_tensor", "bridge/rule/inverse", "algebra/cross-via-seq-4x4"):
        digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
        assert report_substream(name) == int.from_bytes(digest, "big"), name


def test_import_does_not_load_openssl(tmp_path):
    # hashlib would load OpenSSL's libcrypto (_hashlib) for one blake2b call.
    # numpy.random still loads it (secrets -> hmac -> _hashlib) at its first
    # import, which numpy makes lazily at the first draw: identities pays it,
    # while deriv and convert requests draw nothing and load neither module
    src = Path(tenderiv.suites.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    at, tensor, out = tmp_path / "at.json", tmp_path / "t.json", tmp_path / "out.json"
    at.write_text(json.dumps({"matrix": [[1.3, -0.4, 0.25], [0.7, 2.1, -0.6], [-0.2, 0.9, 1.7]]}))
    tensor.write_text(json.dumps({"tensor4": np.arange(81.0).reshape(3, 3, 3, 3).tolist()}))
    code = f"""
import sys
import numpy
if "numpy.random" in sys.modules:
    print("numpy.random loaded by import numpy")
    raise SystemExit
loaded = lambda: [name for name in ("numpy.random", "_hashlib") if name in sys.modules]
import tenderiv, tenderiv.cli
print(loaded())
assert tenderiv.cli.main(["deriv", "--fn", "inverse", "--at", {str(at)!r}, "--fd-check",
                          "--out", {str(out)!r}]) == 0
assert tenderiv.cli.main(["convert", "--direction", "to-group2", "--tensor", {str(tensor)!r},
                          "--out", {str(out)!r}]) == 0
print(loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "numpy.random loaded by import numpy\n":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert proc.stdout == "[]\n[]\n"


def test_report_rng_is_keyed_by_seed_and_name():
    name = "bridge/rule/chain_tensor"
    key = report_substream(name)
    assert 0 <= key < 2**64
    assert np.array_equal(report_rng(5, name).uniform(size=4), trial_rng(5, key).uniform(size=4))
    assert not np.array_equal(report_rng(5, name).uniform(size=4),
                              report_rng(6, name).uniform(size=4))


def test_reports_draw_different_operands(monkeypatch):
    first_draws = []
    real = tenderiv.bridge.uniform_tensors

    def recording(rng, n, *ranks):
        stacks = real(rng, n, *ranks)
        first_draws.append(stacks[0][0])
        return stacks

    for module in (tenderiv.suites, tenderiv.bridge):
        monkeypatch.setattr(module, "uniform_tensors", recording)
    run_report("bridge/rule/chain_tensor", 5, 1)
    row_draw = first_draws[0]
    first_draws.clear()
    run_report("bridge/seq-transposer-identities", 5, 1)
    assert row_draw.shape == first_draws[0].shape == (3, 3, 3, 3)
    assert not np.array_equal(row_draw, first_draws[0])


def test_orthogonal_tensors_are_the_q_of_a_positive_diagonal_qr():
    q = orthogonal_tensors(trial_rng(31, 0), 1000)
    a = trial_rng(31, 0).standard_normal((1000, 3, 3))
    want, r = np.linalg.qr(a)
    want = want * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    # the same tensors up to the rounding of an ill-conditioned draw
    assert np.max(np.abs(q - want)) <= 1e-12
    assert np.max(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(3))) <= 1e-15
