import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import tenderiv.calculus
import tenderiv.cli
from tenderiv.cli import main
from tenderiv.isotropic import iso_tensor
from tenderiv.serialize import dumps, parse_tensor4
from tenderiv.suites import full_identity_suite, run_report

from oracles import matrix_obj, tensor4_obj

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(tenderiv.cli.__file__).resolve().parents[1]

# a non-symmetric, invertible argument (det 6.0335) and a singular one
PINNED_AT = [[1.3, -0.4, 0.25], [0.7, 2.1, -0.6], [-0.2, 0.9, 1.7]]
PINNED_SINGULAR = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
CATALOG_NAMES = ["I1", "I2", "I3", "trI_pow_2", "trI_pow_3", "trI_pow_4",
                 "id", "transpose", "square", "cube", "inverse"]


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


def test_identities_usage_errors(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the suite ran despite a usage error")

    monkeypatch.setattr(tenderiv.cli, "full_identity_suite", must_not_run)
    assert main(["identities", "--trials", "0"]) == 2
    for tol in ("0", "inf", "nan", "-1e-12"):
        assert main(["identities", "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
    assert main(["identities", "--trials", "x"]) == 2
    assert main(["identities", "--seed", "-1"]) == 2
    assert main(["identities", "--seed", "18446744073709551616"]) == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, diag_path):
    out = str(tmp_path / "missing-dir" / "out.json")
    assert main(["deriv", "--fn", "I1", "--at", diag_path, "--out", out]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    c2 = write(tmp_path / "c2.json", tensor4_obj(iso_tensor("II")))
    assert main(["convert", "--direction", "to-group2", "--tensor", c2, "--out", out]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_unwritable_identities_out_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the suite ran although --out cannot be written")

    monkeypatch.setattr(tenderiv.cli, "full_identity_suite", must_not_run)
    out = str(tmp_path / "missing-dir" / "x.json")
    assert main(["identities", "--trials", "2000", "--out", out]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_identities_output_is_pinned(tmp_path):
    # bytes recorded from the products summed elementwise in a fixed order and
    # the cofactor inverses; only the last bits of some max_abs_err values
    # moved from the kernels before them (deliberate re-pins, listed in
    # CHANGES.md).  Powers and invariants multiply through the same products
    # and nothing sums through BLAS, so OpenBLAS's AVX-512, AVX2 and pre-FMA
    # kernels all give these same bytes.
    out = tmp_path / "r.json"
    assert main(["identities", "--seed", "42", "--trials", "200", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "identities_seed42_trials200.json").read_bytes()


def test_identities_multi_block_output_is_pinned(tmp_path):
    # 1100 trials run three blocks per report (512, 512 and 76 trials), so
    # both block boundaries fall inside the pinned run
    out = tmp_path / "r.json"
    assert main(["identities", "--seed", "7", "--trials", "1100", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "identities_seed7_trials1100.json").read_bytes()


def test_identities_bytes_do_not_depend_on_python_threads():
    # suites at once, one per thread (more threads than cores, switched often),
    # each with its own ufunc buffer setting
    seeds = (42, 7, 42, 7)
    serial = {seed: dumps(full_identity_suite(seed, 200).to_obj()) for seed in set(seeds)}
    assert serial[42] == (DATA / "identities_seed42_trials200.json").read_text()
    start, threaded = threading.Barrier(len(seeds)), [None] * len(seeds)

    def run(k):
        start.wait(timeout=60)
        threaded[k] = dumps(full_identity_suite(seeds[k], 200).to_obj())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == [serial[seed] for seed in seeds]


@pytest.mark.parametrize("trials", [1, 150])
def test_identities_trial_counts(tmp_path, trials):
    # every report runs the requested count except the fixed and capped ones;
    # at 200 trials, as in the pinned run, a cap of 100 and a fixed 100 agree
    out = tmp_path / "r.json"
    assert main(["identities", "--seed", "3", "--trials", str(trials), "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 41
    for r in reports:
        if r["name"].startswith("iso/rotation-invariance/"):
            want = 50
        elif r["name"] == "bridge/layout-constants":
            want = 1
        elif r["name"] == "bridge/seq-transposer-identities":
            want = min(trials, 100)
        else:
            want = trials
        assert r["trials"] == want, r["name"]


def test_deriv_output_is_pinned(tmp_path, capsys):
    # bytes recorded from separate `python -m tenderiv` processes; the inputs
    # are written with the standard library, not with the writer under test
    pinned = DATA / "deriv_pinned"
    at, singular = tmp_path / "at.json", tmp_path / "singular.json"
    at.write_text(json.dumps({"matrix": PINNED_AT}))
    singular.write_text(json.dumps({"matrix": PINNED_SINGULAR}))
    for fn in CATALOG_NAMES:
        assert main(["deriv", "--fn", fn, "--at", str(at), "--fd-check"]) == 0
        assert capsys.readouterr().out == (pinned / f"deriv_{fn}.json").read_text(), fn
    assert main(["deriv", "--fn", "inverse", "--at", str(singular), "--fd-check"]) == 1
    assert capsys.readouterr().out == (pinned / "deriv_inverse_singular.json").read_text()

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(json.loads((pinned / "deriv_cube.json").read_text())["derivative"]))
    for direction in ("to-group2", "to-group3"):
        assert main(["convert", "--direction", direction, "--tensor", str(cube)]) == 0
        assert capsys.readouterr().out == (pinned / f"convert_{direction}.json").read_text()


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "tenderiv", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # argparse wraps its usage text to the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TENDERIV_SEED", raising=False)
    build_parser = tenderiv.cli.build_parser
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(tenderiv.cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(tenderiv.cli, "_parsers", None)

    at = tmp_path / "at.json"
    at.write_text(json.dumps({"matrix": PINNED_AT}))
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(tensor4_obj(iso_tensor("II"))))
    requests = [
        (["deriv", "--fn", "nope", "--at", str(at)], True),
        (["deriv", "--fn", "I1"], True),  # argparse: --at is required
        (["deriv", "--fn", "inverse", "--at", str(at), "--fd-check"], True),
        (["convert", "--direction", "to-group2", "--tensor", str(tensor)], True),
        # stderr carries the suite's wall time
        (["identities", "--trials", "1"], False),
    ]
    for argv, same_stderr in requests:
        rc = main(argv)
        got = capsys.readouterr()
        want_rc, want_out, want_err = _fresh_process(argv)
        assert (rc, got.out) == (want_rc, want_out), argv
        if same_stderr:
            assert got.err == want_err, argv
    assert len(built) == 1

    for seed in (7, 9):
        monkeypatch.setenv("TENDERIV_SEED", str(seed))
        assert main(["identities", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["seed"] == seed
    assert len(built) == 1


def test_routed_parse_matches_the_full_parser(tmp_path, monkeypatch, capsys):
    # main hands argv[1:] to the named command's parser; with an empty command
    # table every argv goes through the full parser, as it did before
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TENDERIV_SEED", raising=False)
    at = tmp_path / "at.json"
    at.write_text(json.dumps({"matrix": PINNED_AT}))
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(tensor4_obj(iso_tensor("II"))))
    at, tensor = str(at), str(tensor)
    corpus = [
        [], ["-h"], ["deriv", "-h"], ["bogus"], ["bogus", "--fn", "I1"], ["--", "deriv"],
        ["deriv", "--fn", "I1"],  # --at is missing
        ["deriv", "--fn", "I1", "--at", at, "extra"],
        ["deriv", "--fn", "I1", "--at", at, "--bogus", "x"],
        ["deriv", "--fn=I1", "--at", at],
        ["deriv", "--f", "I1", "--at", at],  # ambiguous: --fn or --fd-check
        ["deriv", "--fn", "I1", "--", "--at", at],
        ["deriv", "--fn", "I1", "--at", at, "--"],
        ["deriv", "--fn", "inverse", "--at", at, "--fd-check"],
        ["identities", "--seed", "0x10", "--trials", "1"],
        ["identities", "--seed", "zz"],
        ["convert", "--direction", "sideways", "--tensor", at],
        ["convert", "--direction", "to-group2", "--tensor", tensor, "a", "b"],
        ["convert", "--direction", "to-group3", "--tensor", tensor],
    ]

    def run_corpus():
        results = []
        for argv in corpus:
            rc = main(argv)
            got = capsys.readouterr()
            # the identities summary line carries the suite's wall time
            results.append((rc, got.out, re.sub(r", \d+ ms\n", ", <t> ms\n", got.err)))
        return results

    parser, commands = tenderiv.cli.build_parser()
    full_parses = []

    def recording_parse_args(argv):
        full_parses.append(argv)
        return argparse.ArgumentParser.parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", recording_parse_args)
    monkeypatch.setattr(tenderiv.cli, "_parsers", (parser, commands))
    routed = run_corpus()
    assert full_parses == [argv for argv in corpus if not argv or argv[0] not in commands]
    monkeypatch.setattr(tenderiv.cli, "_parsers", (parser, {}))
    full = run_corpus()
    for argv, got, want in zip(corpus, routed, full):
        assert got == want, argv
    assert [rc for rc, _, _ in routed].count(2) == 13
    assert "tenderiv: error: unrecognized arguments: --bogus x\n" in routed[8][2]
    seed_err = routed[corpus.index(["identities", "--seed", "zz"])][2]
    assert seed_err.endswith("error: argument --seed: invalid integer value: 'zz'\n")


@pytest.mark.parametrize("command", [["deriv", "--fn", "I1", "--at"],
                                     ["convert", "--direction", "to-group2", "--tensor"]])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, command):
    key = "matrix" if command[0] == "deriv" else "tensor4"
    deep = tmp_path / "deep.json"
    deep.write_text(f'{{"{key}": ' + "[" * 5000 + "]" * 5000 + "}")
    assert main([*command, str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe")
    assert main(["deriv", "--fn", "I1", "--at", str(raw)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["convert", "--direction", "to-group2", "--tensor", str(raw)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


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


def test_deriv_and_the_verdict_read_one_catalog(tmp_path, monkeypatch, capsys):
    # a rule scaled by 1 + 1e-10 in calculus.CATALOG reaches both deriv's
    # output and the verdict's bridge/rule/square row
    entry = tenderiv.calculus.CATALOG["square"]
    scaled = dataclasses.replace(entry, deriv=lambda a: entry.deriv(a) * (1.0 + 1e-10))
    monkeypatch.setitem(tenderiv.calculus.CATALOG, "square", scaled)
    at = write(tmp_path / "at.json", {"matrix": PINNED_AT})
    assert main(["deriv", "--fn", "square", "--at", at]) == 0
    got = parse_tensor4(json.loads(capsys.readouterr().out)["derivative"])
    want = entry.deriv(np.array(PINNED_AT)) * (1.0 + 1e-10)
    assert np.array_equal(got, want)
    assert not run_report("bridge/rule/square", 7, 50).passed


def test_deriv_domain_guard(tmp_path, capsys):
    singular = write(tmp_path / "s.json", matrix_obj(np.diag([1.0, 1.0, 0.0])))
    assert main(["deriv", "--fn", "inverse", "--at", singular]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "domain-error"


def test_deriv_usage_errors(tmp_path, capsys, diag_path):
    assert main(["deriv", "--fn", "nope", "--at", diag_path]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["deriv", "--fn", "I1", "--at", missing]) == 2
    truncated = tmp_path / "t.json"
    truncated.write_text('{"matrix": [[1, 2')
    assert main(["deriv", "--fn", "I1", "--at", str(truncated)]) == 2
    wrong_shape = write(tmp_path / "w.json", {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
    assert main(["deriv", "--fn", "I1", "--at", wrong_shape]) == 2
    # a JSON integer too large for a float
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"matrix": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert main(["deriv", "--fn", "I1", "--at", str(huge)]) == 2
    assert "error:" in capsys.readouterr().err
    # strings and booleans are not numbers, though numpy would read them as 9.0 and 1.0
    for entry in ("9", True):
        typed = write(tmp_path / "typed.json", {"matrix": [[entry, 0, 0], [0, 1, 0], [0, 0, 1]]})
        assert main(["deriv", "--fn", "I1", "--at", typed]) == 2
        assert "error:" in capsys.readouterr().err
    # an integer past int64 is still a JSON number
    big = write(tmp_path / "big.json", {"matrix": [[2**70, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["deriv", "--fn", "I1", "--at", big]) == 0


def test_convert_layouts(tmp_path):
    c2 = write(tmp_path / "c2.json", tensor4_obj(iso_tensor("II")))
    out = tmp_path / "out.json"
    assert main(["convert", "--direction", "to-group2", "--tensor", c2, "--out", str(out)]) == 0
    assert np.array_equal(parse_tensor4(json.loads(out.read_text())), iso_tensor("I"))

    back = tmp_path / "back.json"
    assert main(["convert", "--direction", "to-group3", "--tensor", str(out),
                 "--out", str(back)]) == 0
    assert back.read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_convert_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tensor4": [[1, 2], [3')
    assert main(["convert", "--direction", "to-group2", "--tensor", str(bad)]) == 2
    flat = write(tmp_path / "flat.json", {"tensor4": [0.0] * 81})
    assert main(["convert", "--direction", "to-group2", "--tensor", flat]) == 2
    assert main(["convert", "--direction", "sideways", "--tensor", flat]) == 2
    entries = np.zeros((3, 3, 3, 3), dtype=int).tolist()
    entries[0][0][0][0] = 10**400  # a JSON integer too large for a float
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"tensor4": entries}))
    assert main(["convert", "--direction", "to-group2", "--tensor", str(huge)]) == 2
    assert "error:" in capsys.readouterr().err
    for entry in ("9", False):
        entries[0][0][0][0] = entry
        typed = write(tmp_path / "typed.json", {"tensor4": entries})
        assert main(["convert", "--direction", "to-group2", "--tensor", typed]) == 2
        assert "error:" in capsys.readouterr().err


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_deriv_of_the_inverse_at_huge_entries(tmp_path, capsys):
    # det about 8e330, past the float range; then rows 1e200 apart in size:
    # the inverse must stay right
    for d in (np.array([1e110, 2e110, 4e110]), np.array([1e200, 1.0, 1.0])):
        at = write(tmp_path / "huge.json", matrix_obj(np.diag(d)))
        assert main(["deriv", "--fn", "inverse", "--at", at, "--fd-check"]) == 0
        out = json.loads(capsys.readouterr().out)
        b = np.diag(1.0 / d)
        want = -np.einsum("ik,pj->ijkp", b, b)  # d(A^-1)_ij / dA_kp
        assert (np.max(np.abs(parse_tensor4(out["derivative"]) - want))
                <= 1e-14 * np.max(np.abs(want)))
        assert out["fd_max_abs_err"] <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("fn", ["cube", "I3", "square"])
def test_deriv_overflow_is_a_domain_error(tmp_path, capsys, fn):
    huge = write(tmp_path / "huge.json", matrix_obj(np.diag([1e200] * 3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["deriv", "--fn", fn, "--at", huge, "--fd-check"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["type"] == "domain-error"
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
