import json

import numpy as np
import pytest

from tenderiv.cli import main
from tenderiv.isotropic import iso_tensor
from tenderiv.serialize import dumps, matrix_obj, parse_tensor4, tensor4_obj


def write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture()
def diag_path(tmp_path):
    return write(tmp_path / "diag.json", matrix_obj(np.diag([1.0, 2.0, 3.0])))


def test_identities_deterministic_and_green(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["identities", "--seed", "42", "--trials", "25", "--out", str(out1)]) == 0
    assert main(["identities", "--seed", "42", "--trials", "25", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["all_pass"] is True
    assert all(r["pass"] for r in payload["reports"])
    assert all(r["seed"] == 42 for r in payload["reports"])


def test_identities_seed_changes_errors_not_verdict(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["identities", "--seed", "1", "--trials", "25", "--out", str(out1)]) == 0
    assert main(["identities", "--seed", "2", "--trials", "25", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_identities_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("TENDERIV_SEED", "7")
    out = tmp_path / "env.json"
    assert main(["identities", "--trials", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["seed"] == 7
    monkeypatch.setenv("TENDERIV_SEED", "not-a-number")
    assert main(["identities", "--trials", "10"]) == 2
    for raw in ("-1", "18446744073709551616"):
        monkeypatch.setenv("TENDERIV_SEED", raw)
        assert main(["identities", "--trials", "10"]) == 2
    monkeypatch.setenv("TENDERIV_SEED", "0xffffffffffffffff")
    assert main(["identities", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["seed"] == 2**64 - 1


def test_identities_usage_errors():
    assert main(["identities", "--trials", "0"]) == 2
    assert main(["identities", "--tol", "0"]) == 2
    assert main(["identities", "--trials", "x"]) == 2
    assert main(["identities", "--seed", "-1"]) == 2
    assert main(["identities", "--seed", "18446744073709551616"]) == 2


def test_deriv_scalar(tmp_path, capsys, diag_path):
    assert main(["deriv", "--fn", "I2", "--at", diag_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derivative"]["matrix"] == [[5, 0, 0], [0, 4, 0], [0, 0, 3]]


def test_deriv_identity_everywhere(tmp_path, capsys):
    rng = np.random.default_rng(3)
    at = write(tmp_path / "a.json", matrix_obj(rng.uniform(-1, 1, (3, 3))))
    assert main(["deriv", "--fn", "I1", "--at", at]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derivative"]["matrix"] == np.eye(3).tolist()


def test_deriv_tensor_with_fd_check(capsys, diag_path):
    assert main(["deriv", "--fn", "square", "--at", diag_path, "--fd-check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "tensor"
    assert np.asarray(payload["derivative"]["tensor4"]).shape == (3, 3, 3, 3)
    assert payload["fd_max_abs_err"] < 1e-9


def test_deriv_domain_guard(tmp_path, capsys):
    singular = write(tmp_path / "s.json", matrix_obj(np.diag([1.0, 1.0, 0.0])))
    assert main(["deriv", "--fn", "inverse", "--at", singular]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "domain-error"


def test_deriv_usage_errors(tmp_path, diag_path):
    assert main(["deriv", "--fn", "nope", "--at", diag_path]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["deriv", "--fn", "I1", "--at", missing]) == 2
    truncated = tmp_path / "t.json"
    truncated.write_text('{"matrix": [[1, 2')
    assert main(["deriv", "--fn", "I1", "--at", str(truncated)]) == 2
    wrong_shape = write(tmp_path / "w.json", {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
    assert main(["deriv", "--fn", "I1", "--at", wrong_shape]) == 2


def test_convert_layouts(tmp_path):
    c2 = write(tmp_path / "c2.json", tensor4_obj(iso_tensor("II")))
    out = tmp_path / "out.json"
    assert main(["convert", "--direction", "to-group2", "--tensor", c2, "--out", str(out)]) == 0
    assert np.array_equal(parse_tensor4(json.loads(out.read_text())), iso_tensor("I"))

    back = tmp_path / "back.json"
    assert main(["convert", "--direction", "to-group3", "--tensor", str(out),
                 "--out", str(back)]) == 0
    assert back.read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_convert_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tensor4": [[1, 2], [3')
    assert main(["convert", "--direction", "to-group2", "--tensor", str(bad)]) == 2
    flat = write(tmp_path / "flat.json", {"tensor4": [0.0] * 81})
    assert main(["convert", "--direction", "to-group2", "--tensor", flat]) == 2
    assert main(["convert", "--direction", "sideways", "--tensor", flat]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2
