import json

import numpy as np
import pytest

from tenderiv.reporting import BLOCK, CheckReport, RunSummary, fuzz_report, trial_error
from tenderiv.serialize import (
    SerializeError,
    dumps,
    format_float,
    load_json,
    parse_matrix,
    parse_tensor4,
)

from oracles import matrix_obj, tensor4_obj


def test_check_report_pass_iff_within_tol():
    ok = CheckReport.from_measurement("x", 10, 1e-13, 1e-12, seed=1)
    bad = CheckReport.from_measurement("x", 10, 2e-12, 1e-12, seed=1)
    edge = CheckReport.from_measurement("x", 10, 1e-12, 1e-12, seed=1)
    assert ok.passed and not bad.passed and edge.passed


def test_run_summary_all_pass():
    r1 = CheckReport.from_measurement("a", 1, 0.0, 1e-12, 0)
    r2 = CheckReport.from_measurement("b", 1, 1.0, 1e-12, 0)
    assert RunSummary(reports=[r1]).all_pass
    assert not RunSummary(reports=[r1, r2]).all_pass
    obj = RunSummary(reports=[r1], wall_time_ms=55).to_obj()
    assert set(obj) == {"reports", "all_pass"}
    assert obj["reports"][0]["pass"] is True


def test_format_float_is_lossless():
    values = [0.0, -0.0, 1.0, np.pi, 1e-300, -2.2250738585072014e-308,
              0.1 + 0.2, 6.0, 9.99e99]
    for v in values:
        assert float(format_float(v)) == v
    with pytest.raises(SerializeError):
        format_float(float("nan"))


def test_dumps_parses_back_and_is_deterministic():
    obj = {"name": "t", "values": [1.5, -2.0, 0.0], "n": 3, "ok": True,
           "nested": {"matrix": [[1.0, 2.0], [3.0, 4.0]]}, "none": None}
    text = dumps(obj)
    assert text == dumps(obj)
    assert json.loads(text) == obj


@pytest.mark.parametrize("obj, text", [
    # regular all-float lists: rows on one line, 17 significant digits
    ([[-0.0, 1e-300], [5e-324, 2.2250738585072009e-308]],
     "[\n  [-0, 1e-300],\n  [4.9406564584124654e-324, 2.2250738585072009e-308]\n]\n"),
    ({"m": [[0.1, 1.0]]}, '{\n  "m": [\n    [0.10000000000000001, 1]\n  ]\n}\n'),
    (((0.5, -2.0),), "[\n  [0.5, -2]\n]\n"),
    ([np.float64(1 / 3)], "[0.33333333333333331]\n"),
    ([], "[]\n"),
    ([[], []], "[\n  [],\n  []\n]\n"),
    # ragged: the outer list is walked, each all-float row stays on one line
    ([[1.0, 2.0], [3.0]], "[\n  [1, 2],\n  [3]\n]\n"),
    ([[], [1.0]], "[\n  [],\n  [1]\n]\n"),
    ([1.0, [2.0]], "[\n  1,\n  [2]\n]\n"),
    # other scalars keep their own text: ints in full, booleans and null as JSON
    ([1.5, 10**20], "[1.5, 100000000000000000000]\n"),
    ([True, 1.0, None], "[true, 1, null]\n"),
    ([[1.0, 2.0], [3.0, 4]], "[\n  [1, 2],\n  [3, 4]\n]\n"),
    ([["a", 1], [False, 0.5]], '[\n  ["a", 1],\n  [false, 0.5]\n]\n'),
    # the report list
    ({"reports": [{"name": "a", "max_abs_err": 0.25, "pass": True}], "all_pass": True},
     '{\n  "reports": [\n    {\n      "name": "a",\n      "max_abs_err": 0.25,\n'
     '      "pass": true\n    }\n  ],\n  "all_pass": true\n}\n'),
], ids=["signed-zero-and-subnormals", "nested-in-dict", "tuples", "numpy-float64", "empty",
        "empty-rows", "ragged", "ragged-empty-row", "float-then-list", "big-int",
        "bool-float-none", "int-in-last-row", "strings-and-bools", "report-list"])
def test_dumps_text(obj, text):
    assert dumps(obj) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dumps_rejects_nonfinite_array_entries(bad):
    h = np.zeros((3, 3, 3, 3))
    h[2, 1, 0, 2] = bad
    with pytest.raises(SerializeError, match="non-finite"):
        dumps({"derivative": tensor4_obj(h)})
    with pytest.raises(SerializeError, match="non-finite"):
        dumps(matrix_obj(h[2, 1]))


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, 6.0]


@pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3), (3, 3, 3, 3)])
def test_dumps_writes_float_arrays_as_their_lists(shape):
    arr = np.resize(np.array(EDGE_FLOATS), shape)
    # C-ordered, read-only, transposed and reversed-stride arrays
    frozen = arr.copy()
    frozen.flags.writeable = False
    for a in (arr, frozen, arr.T, arr[..., ::-1]):
        for obj, listed in ((a, a.tolist()), ({"x": a, "n": 1}, {"x": a.tolist(), "n": 1}),
                            ({"d": {"x": a}}, {"d": {"x": a.tolist()}})):
            assert dumps(obj) == dumps(listed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dumps_rejects_nonfinite_arrays_as_their_lists(bad):
    h = np.full((3, 3, 3, 3), 0.5)
    h[1, 2, 0, 2] = bad
    h[2, 0, 1, 0] = -bad  # later in row-major order, earlier in h.T
    for a in (h, h.T, h[1, 2]):
        with pytest.raises(SerializeError) as listed:
            dumps({"derivative": a.tolist()})
        with pytest.raises(SerializeError) as direct:
            dumps({"derivative": a})
        assert str(direct.value) == str(listed.value)
        assert str(direct.value).startswith("non-finite number cannot be serialized")


@pytest.mark.parametrize("arr", [np.arange(3), np.ones((3, 3), dtype=bool), np.array(0.5),
                                 np.zeros((0, 3)), [np.ones(3)]],
                         ids=["int", "bool", "0-d", "empty", "in-a-list"])
def test_dumps_other_arrays_take_the_scalar_path(arr):
    with pytest.raises(SerializeError, match="cannot serialize object of type ndarray"):
        dumps({"x": arr})


def test_dumps_rejects_objects_nested_too_deeply():
    deep_list, deep_dict = [], {}
    for _ in range(3000):
        deep_list, deep_dict = [deep_list], {"a": deep_dict}
    for obj in (deep_list, deep_dict):
        with pytest.raises(SerializeError, match="nested too deeply"):
            dumps(obj)


def test_matrix_roundtrip():
    a = np.arange(9, dtype=float).reshape(3, 3) / 7.0
    assert np.array_equal(parse_matrix(json.loads(dumps(matrix_obj(a)))), a)


def test_tensor4_roundtrip():
    h = np.arange(81, dtype=float).reshape(3, 3, 3, 3) / 13.0
    assert np.array_equal(parse_tensor4(json.loads(dumps(tensor4_obj(h)))), h)


def test_parse_rejects_bad_shapes():
    with pytest.raises(SerializeError):
        parse_matrix({"matrix": [[1.0, 2.0], [3.0, 4.0]]})
    with pytest.raises(SerializeError):
        parse_matrix({"rows": []})
    with pytest.raises(SerializeError):
        parse_tensor4({"tensor4": [0.0] * 81})
    with pytest.raises(SerializeError):
        parse_matrix({"matrix": [["a"] * 3] * 3})


def test_load_json_missing_file(tmp_path):
    with pytest.raises(SerializeError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[1,')
    with pytest.raises(SerializeError):
        load_json(bad)


def leg(lhs, rhs, rank=0, scale=None):
    return [(lhs, rhs)], rank, scale


def test_nonfinite_trial_error_fails_and_serializes():
    errors = np.array([0.0, float("nan"), 1e-20])
    report = fuzz_report("x", 3, 3, 1e-12, lambda rng, n: [leg(errors[:n], np.zeros(n))])
    assert not report.passed
    assert report.nonfinite == 1
    assert report.max_abs_err == 1e-20
    summary = RunSummary(reports=[report])
    assert not summary.all_pass
    obj = json.loads(dumps(summary.to_obj()))
    assert obj["reports"][0]["nonfinite"] == 1
    assert obj["reports"][0]["pass"] is False


def test_trial_error_keeps_a_nan_to_its_item():
    lhs, rhs = np.zeros((3, 3, 3)), np.ones((3, 3, 3))
    bad = lhs.copy()
    bad[1, 2, 0] = np.nan
    for pairs in ([(bad, rhs), (lhs, rhs)], [(lhs, rhs), (bad, rhs)]):
        err = trial_error([(pairs, 2, None)])
        assert np.isnan(err[1]) and err[0] == err[2] == 1.0


def test_trial_error_is_the_worst_pair_over_scale():
    rng = np.random.default_rng(5)
    lhs, rhs1, rhs2 = rng.uniform(-1.0, 1.0, (3, 4, 3, 3, 3, 3))
    scale = 1.0 + rng.uniform(size=4)
    worst = np.array([max(np.abs(lhs[k] - rhs1[k]).max(), np.abs(lhs[k] - rhs2[k]).max())
                      for k in range(4)])
    pairs = [(lhs, rhs1), (lhs, rhs2)]
    assert np.array_equal(trial_error([(pairs, 4, None)]), worst)
    assert np.array_equal(trial_error([(pairs, 4, scale)]), worst / scale)


def test_trial_error_takes_scalar_results_and_single_tensors():
    got = trial_error([leg(np.array([1.0, -2.0]), np.array([0.5, 1.0]), 0, 2.0)])
    assert np.array_equal(got, [0.25, 1.5])
    b = np.eye(3)
    b[0, 1] = -0.5
    err = trial_error([leg(np.eye(3), b, 2)])
    assert np.ndim(err) == 0 and err == 0.5


def test_a_0d_leg_broadcasts_to_every_trial_of_its_block():
    b = np.eye(3)
    b[2, 1] = 0.25
    report = fuzz_report("x", 3, 5, 1e-12, lambda rng, n: [leg(np.eye(3), b, 2)])
    assert report.max_abs_err == 0.25 and report.nonfinite == 0 and not report.passed
    # one NaN measurement counts once for each trial, over two blocks
    report = fuzz_report("x", 3, BLOCK + 3, 1e-12, lambda rng, n: [leg(np.nan, 0.0)])
    assert report.nonfinite == BLOCK + 3 and report.max_abs_err == 0.0
    with pytest.raises(ValueError):  # a stack of the wrong length does not broadcast
        fuzz_report("x", 3, 5, 1e-12, lambda rng, n: [leg(np.zeros(n + 1), np.zeros(n + 1))])


def test_legs_of_different_rank_and_scale_give_the_elementwise_maximum():
    rng = np.random.default_rng(6)
    n = 6
    a, b = rng.uniform(-1.0, 1.0, (2, n, 3, 3, 3, 3))
    x, y = rng.uniform(-1.0, 1.0, (2, n))
    m, p = rng.uniform(-1.0, 1.0, (2, n, 3, 3))
    w = 1.0 + 99.0 * np.eye(3)[np.arange(n) % 3]  # leg t % 3 is the worst on trial t
    scale = 1.0 + rng.uniform(size=n)
    wa, wx, wm = (w[:, i].reshape((n,) + (1,) * r) for i, r in enumerate((4, 0, 2)))
    legs = [leg(wa * a, b, 4, scale), leg(wx * x, y), leg(wm * m, p, 2, 3.0)]
    parts = np.array([trial_error([one]) for one in legs])
    assert np.array_equal(np.argmax(parts, axis=0), np.arange(n) % 3)
    want = np.array([max(np.abs(wa[k] * a[k] - b[k]).max() / scale[k], abs(wx[k] * x[k] - y[k]),
                         np.abs(wm[k] * m[k] - p[k]).max() / 3.0) for k in range(n)])
    assert np.array_equal(trial_error(legs), want)


def test_a_nan_in_the_second_leg_stays_in_its_trial():
    n, poisoned = 4, 2
    x = np.zeros((n, 3, 3))
    x[poisoned, 1, 1] = np.nan
    legs = [leg(np.full(n, 1e-13), np.zeros(n)), leg(x, np.zeros((n, 3, 3)), 2, 2.0)]
    err = trial_error(legs)
    assert np.isnan(err[poisoned])
    assert np.array_equal(np.delete(err, poisoned), np.full(n - 1, 1e-13))
    with np.errstate(invalid="ignore"):
        report = fuzz_report("x", 3, n, 1e-12, lambda rng, size: legs)
    assert report.nonfinite == 1 and not report.passed and report.max_abs_err == 1e-13


def test_dividing_each_pair_gives_the_bits_of_dividing_the_maximum():
    # division by a positive scale rounds monotonically, so the order of the
    # maximum and the division changes no bit, at inf and NaN scales too
    rng = np.random.default_rng(7)
    n = 4096
    magnitude = 10.0 ** rng.integers(-300, 300, n)[:, None, None]
    lhs, rhs1, rhs2 = rng.uniform(-1.0, 1.0, (3, n, 3, 3)) * magnitude
    scale = 1.0 + rng.uniform(0.0, 1e3, n) ** rng.uniform(0.0, 4.0, n)
    scale[:16] = np.inf
    scale[16:32] = np.nan
    rng.shuffle(scale)
    got = trial_error([([(lhs, rhs1), (lhs, rhs2)], 2, scale)])
    worst = np.maximum(np.abs(lhs - rhs1).max(axis=(1, 2)), np.abs(lhs - rhs2).max(axis=(1, 2)))
    assert np.array_equal(got, worst / scale, equal_nan=True)
    assert np.isnan(got).sum() == 16 and np.sum(got == 0.0) >= 16
