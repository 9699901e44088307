"""The one-pass report renderer against json.dumps.

`cli._render(x)` must write exactly the bytes that
`json.dumps(to_jsonable(x), sort_keys=True, indent=2)` writes: on edge
values, on lists and dicts shared between two depths of one report, on
generated nested values, and on the full `main` report of one request of
every class of the benchmark corpora. `--out FILE` must write the bytes
stdout gets, and the largest envelope report must keep its traced peak.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffalg import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def old(obj) -> str:
    return json.dumps(cli.to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def new(obj) -> str:
    return cli._render(obj) + "\n"


def same(got: str, want: str):
    """Equality of two report texts, naming the first difference (pytest's
    own diff of megabyte strings takes minutes)."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 40:at + 40]!r} "
                    f"!= {want[at - 40:at + 40]!r}")


def check(obj):
    same(new(obj), old(obj))


EDGE = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1.5e-7, 0.1,
    2 ** 100, -(2 ** 70), 0, True, False, None,
    np.float64(-0.0), np.float64(math.nan), np.float32(0.1), np.int64(-7),
    np.int32(3), np.bool_(True), np.bool_(False), np.complex128(1 - 2j),
    1.5 + 0j, complex(-0.0, math.inf),
    np.array(2.5), np.array(3), np.array([1.0, -0.0, math.nan]),
    np.array([[1 + 2j, 0j], [-1j, 3]]), np.arange(6).reshape(2, 3),
    np.zeros((2, 0)), (1, 2.5, "x"), (),
    [[], {}, [[]], [{}], {"a": []}], {"k": {"j": {"i": []}}},
    "", "plain", "été ∂²", "\x00\x1f\n\t\"\\", "\ud83d",
    {3: "int key", "2": 1, 1.5: None, None: 0, True: 1}, {1: "a", "1": "b"},
    {"z": [0.1, -0.0, math.inf], "a": [[1.0], [math.nan]], "m": [[1.0], 2.0]},
    [[0.5, 0.25], [0.125]], [[1.0], []], [[1.0], (2.0,)], [(1.0, 2.0)],
    [np.float64(1.0), 2.0], [1.0, np.float64(2.0), np.float32(3.0)],
    [1.0, 2, True], [[np.float64(0.5)], [1.0]],
]


@pytest.mark.parametrize("obj", EDGE, ids=[repr(e)[:40] for e in EDGE])
def test_edge_values_match_json(obj):
    for wrapped in (obj, [obj], {"k": {"j": obj}}):
        check(wrapped)


def test_unserializable_leaf_is_refused_as_before():
    with pytest.raises(TypeError, match="cannot serialize object"):
        new({"a": [object()]})
    with pytest.raises(TypeError, match="cannot serialize object"):
        old({"a": [object()]})


def _shared(long: bool):
    n = 200 if long else 2
    return [{"condition": "separation", "witness": [[0.5 * i], [-0.0]],
             "detail": "x\ny"} for i in range(n)]


@pytest.mark.parametrize("long", [False, True])
def test_shared_list_at_two_depths(long):
    s = _shared(long)
    deeper_first = {"a": {"results": {"reasons": s}}, "b": s}
    shallower_first = {"a": s, "b": {"x": [s, {"y": s}]}, "c": s}
    report = {"results": {"reasons": s, "status": "FAIL"}, "violations": s}
    for obj in (deeper_first, shallower_first, report, [s, [s, [s]], s]):
        check(obj)


def test_shared_dict_and_row_lists():
    row = [0.1 * i for i in range(300)]
    d = {"row": row, "rows": [row, row]}
    obj = {"a": [d, {"b": d}], "c": row, "d": [[row]], "e": d}
    check(obj)


_leaves = (st.none() | st.booleans() | st.integers(-(2 ** 80), 2 ** 80)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=8) | st.complex_numbers(allow_nan=True))
_values = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=5) | st.tuples(kids, kids)
                  | st.lists(st.floats(allow_nan=True), min_size=1, max_size=4)
                  | st.lists(st.lists(st.floats(), min_size=1, max_size=3), max_size=3)
                  | st.dictionaries(st.text(max_size=5) | st.integers(-5, 5), kids,
                                    max_size=5)),
    max_leaves=30)


@given(_values)
def test_generated_values_match_json(obj):
    check(obj)


@given(_values, _values)
def test_generated_values_shared_match_json(v, w):
    for obj in ({"a": v, "b": [w, v], "c": {"d": [v]}}, [[v, w], v, {"z": [[v]]}]):
        check(obj)


# --- whole reports of the benchmark corpora ---------------------------------


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads().WORKLOADS
CLASSES = [(workload, name, make) for workload, classes in sorted(WORKLOADS.items())
           for name, make, _ in classes]


@pytest.mark.parametrize("workload, name, make", CLASSES,
                         ids=[f"{w}-{n}" for w, n, _ in CLASSES])
def test_main_report_matches_json_dumps(workload, name, make, tmp_path, capsys,
                                        monkeypatch):
    argv, doc, _ = make(np.random.default_rng(5))
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a is None else a for a in argv]
    code = cli.main(argv + ["--seed", "5"])
    rendered = capsys.readouterr().out
    monkeypatch.setattr(cli, "_render", lambda obj: json.dumps(
        cli.to_jsonable(obj), sort_keys=True, indent=2))
    assert cli.main(argv + ["--seed", "5"]) == code
    same(rendered, capsys.readouterr().out)
    assert rendered.endswith("}\n")


def _request(workload, name, tmp_path, seed=5):
    make = next(m for w, n, m in CLASSES if (w, n) == (workload, name))
    argv, doc, _ = make(np.random.default_rng(seed))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return [str(path) if a is None else a for a in argv] + ["--seed", str(seed)]


@pytest.mark.parametrize("name", ["env-square-cube", "env-flat-bump"])
def test_out_file_has_the_stdout_bytes(name, tmp_path, capsys):
    argv = _request("envelope-grid", name, tmp_path)
    assert cli.main(argv) == 3
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()
    assert json.loads(printed)["results"]["status"] == "FAIL"


# Traced peak of the request below, in bytes, when the depth-1 reasons were
# narrowed from the depth-2 text and each container text was concatenated
# around its joined body (14.85 MiB; 7.63 MiB once each is one join).
FOLD_PEAK_BEFORE = 15_566_041
# The same request once --out files are written in slices: 5,432,952 bytes,
# the rendering peak (the pieces and the joined text). Encoding the whole
# 3.75 MB text at once peaked at 7,998,084.
FOLD_PEAK_SLICED = 6_000_000


def test_plane_fold_report_peak(tmp_path):
    """cli.main on the seed-5 env-plane-fold request writes a 3.75 MB FAIL
    report (about 7,400 witnesses, twice); its traced peak stays below
    what it was when each report text was copied at every depth, and
    below what it was when the whole text was encoded in one write."""
    argv = _request("envelope-grid", "env-plane-fold", tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 3  # warm the caches
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--out", str(out)]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == 3_750_967
    assert peak <= FOLD_PEAK_BEFORE
    assert peak <= FOLD_PEAK_SLICED


# --- the one list of pieces ---------------------------------------------------


def _fold_reasons(grid: int):
    from diffalg import envelope_verdict, parse_expr
    gens = [parse_expr("(pow (var 0) 2)", 2), parse_expr("(var 1)", 2)]
    verdict = envelope_verdict(gens, [[-1.0, 1.0], [0.5, -0.0]], grid,
                               {"jet_order": 1, "jet_points": [[0.0, 0.25]]})
    assert verdict.status == "FAIL"
    return verdict._reasons


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_nested_reasons_in_one_list_match_json(depth):
    """A verdict's Reasons nested `depth` containers deep, beside complex
    rows, float rows and its own list of dicts, written as one list of
    pieces: the joined pieces are json.dumps' text, and no piece holds a
    container's text, so the report is joined once."""
    reasons = _fold_reasons(41)
    obj = reasons
    for level in range(depth):
        obj = ({"reasons": obj, "jet": [1 + 2j, -0.0 - 1e-300j], "rows": [[0.5, -0.0]]}
               if level % 2 else [obj, reasons.to_list()[:3], {"z": obj}])
    out = []
    cli._write(obj, 0, out)
    same("".join(out), json.dumps(cli.to_jsonable(obj), sort_keys=True, indent=2))
    assert cli._render(obj) == "".join(out)
    assert max(map(len, out)) < 200
    # the same text when the Reasons stands for its list of dicts
    same(cli._render(reasons, depth), cli._render(reasons.to_list(), depth))


def _complex_items(rng, n):
    parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
    parts[:, ::7] = -0.0
    return [complex(re, im) for re, im in parts.T]


@pytest.mark.parametrize("seed", range(4))
def test_complex_rows_match_json(seed):
    rng = np.random.default_rng(seed)
    items = _complex_items(rng, 56)
    for obj in (items, {"jet": items, "rows": [items, items[:3]]},
                [np.complex128(z) for z in items], items[:1]):
        check(obj)
    for level in range(3):
        pieces = cli._complex_rows(items, level)
        assert "".join(pieces) == cli._render([[z.real, z.imag] for z in items], level)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, math.nan)])
def test_complex_rows_that_are_not_finite_fall_back(bad):
    items = _complex_items(np.random.default_rng(9), 12)
    items[5] = bad
    assert cli._complex_rows(items, 0) is None
    check(items)
    check({"a": [items]})
    assert cli._complex_rows(items[:5] + [1.0], 0) is None
