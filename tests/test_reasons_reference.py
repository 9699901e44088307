"""The template-rendered envelope reasons against the reason dicts they
replace.

The reference below is the earlier `envelope_verdict` construction, kept
as the equality gate: separation pairs as `sorted(set(...))` of coordinate
tuples (found by a window on a single generator, independent of the
check's own projection), tangent points as `sorted(...)` of coordinate
tuples, one dict per witness, then the jet entries, all written by the
generic `cli._render`.
The verdict's Reasons must give the same list of dicts (compared by repr,
so the sign of a zero coordinate counts) and the same report text, on
every envelope class of the benchmark corpus, on generated boxes with
lo > hi, -0.0 and subnormal bounds, with jet and inconclusive entries
among the witnesses, and with reasons texts from a few lines to well
over a kilobyte. A Reasons built directly must also be written right
at every depth, in either order within one report, with its coordinate
texts made once, and the verdict must not gather the coordinates of its
witnesses, which the public checks' lists are made from.
"""
from __future__ import annotations

import importlib.util
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from diffalg import DomainError, envelope_verdict, jet_surjectivity_check, parse_expr
from diffalg import cli, envelope

from test_sample_axes import reference_grid_points

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_separation(sample, points, tol):
    """Every pair within tol in each generator, of the grid points
    `points` (one row of coordinates each). Candidates are the pairs
    within tol in one generator alone, which holds every such pair since
    |f_j(p) - f_j(q)| <= max_j |f_j(p) - f_j(q)|; of the generators, the one
    with the fewest candidates is taken."""
    values = sample.values
    npts = values.shape[0]

    def window(f):
        order = np.argsort(f, kind="stable")
        f = f[order]
        # a difference that rounds to at most tol is at most tol (1 + eps)
        ends = np.searchsorted(f, f + tol * (1.0 + 4.0 * np.finfo(float).eps), "right")
        return order, ends

    order, ends = min((window(f) for f in values.T),
                      key=lambda w: int((w[1] - np.arange(1, npts + 1)).sum()))
    later = [np.arange(i + 1, end) for i, end in enumerate(ends.tolist())]
    a = order[np.repeat(np.arange(npts), [len(x) for x in later])]
    b = order[np.concatenate(later)]
    keep = np.abs(values[a] - values[b]).max(axis=1) <= tol
    # in (a, b) index order, so of pairs equal in coordinates the set keeps
    # the first
    codes = np.sort(np.minimum(a, b)[keep] * npts + np.maximum(a, b)[keep])
    a, b = codes // npts, codes % npts
    pairs = [tuple(sorted((tuple(pa), tuple(pb))))
             for pa, pb in zip(points[a].tolist(), points[b].tolist())]
    return sorted(set(pairs))


def reference_tangent(sample, points, tol_rank):
    top, bottom = envelope._extreme_singular_values(
        envelope._gather(sample.columns, sample.shape))
    degenerate = bottom <= tol_rank * np.maximum(top, 1.0)
    return sorted(map(tuple, points[degenerate].tolist()))


def reference_verdict(gens, box, grid, options=None):
    """(status, reasons, meta) as envelope_verdict built them, one dict per
    witness."""
    options = dict(options or {})
    jet_order = options.get("jet_order")
    if jet_order is not None and any(g.degree() is None for g in gens):
        raise DomainError("jet surjectivity requires polynomial generators")
    sample = envelope._sample(gens, box, grid)
    points = np.stack(reference_grid_points(box, grid), axis=1)
    reasons = []
    for pa, pb in reference_separation(sample, points, float(options.get("tol_sep", 1e-9))):
        reasons.append({"condition": "separation", "witness": [list(pa), list(pb)],
                        "detail": "generator value tuples coincide"})
    for pt in reference_tangent(sample, points, float(options.get("tol_rank", 1e-8))):
        reasons.append({"condition": "tangent", "witness": list(pt),
                        "detail": "Jacobian rank below the variable count"})
    inconclusive = []
    if jet_order is not None:
        jet_points = options.get("jet_points")
        if jet_points is None:
            jet_points = [tuple((lo + hi) / 2.0 for lo, hi in box)]
        for pt in jet_points:
            res = jet_surjectivity_check(gens, pt, int(jet_order), options.get("jet_wordlen"))
            if res.ok:
                continue
            entry = {"condition": "jet", "witness": list(pt),
                     "detail": f"jet span {res.achieved} of {res.expected}, "
                               f"growth {res.by_length}"}
            (reasons if res.stalled else inconclusive).append(entry)
    meta = {"box": [[float(lo), float(hi)] for lo, hi in box], "grid": int(grid),
            "note": "PASS = conditions verified on sample"}
    if reasons:
        return "FAIL", reasons + inconclusive, meta
    return ("INCONCLUSIVE" if inconclusive else "PASS"), inconclusive, meta


def report_text(status, reasons, meta) -> str:
    """The envelope report's results and violations, as cmd_envelope
    places the reasons object."""
    return cli._render({"results": {"meta": meta, "reasons": reasons, "status": status},
                        "violations": reasons, "seed": 0})


def same(got: str, want: str):
    """Equality of two texts, naming the first difference (pytest's own
    diff of long strings takes minutes)."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 60:at + 60]!r} "
                    f"!= {want[at - 60:at + 60]!r}")


def check(gens, box, grid, options=None):
    status, want, meta = reference_verdict(gens, box, grid, options)
    v = envelope_verdict(gens, box, grid, options)
    assert (v.status, v.meta) == (status, meta)
    text = report_text(v.status, v.witnesses, v.meta)
    same(text, report_text(status, want, meta))
    same(repr(v.reasons), repr(want))
    assert v.to_dict()["reasons"] is v.reasons
    same(text, report_text(v.status, v.reasons, v.meta))
    return v, text


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENVELOPE = _workloads().WORKLOADS["envelope-grid"]


@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("name, make", [(n, m) for n, m, _ in ENVELOPE],
                         ids=[n for n, _, _ in ENVELOPE])
def test_corpus_class_matches_reference(name, make, seed):
    _, doc, _ = make(np.random.default_rng(seed))
    gens = [parse_expr(t, doc["m"]) for t in doc["generators"]]
    check(gens, doc["box"], doc["grid"], doc.get("options"))


TAU = 6.283185307179586
BOUNDS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-160, 1.0, -1.0, 0.75,
          -2.5, 3.0]


def _generators(m):
    per_axis = [f"(var {i})" for i in range(m)] + [
        f"(pow (var {i}) 2)" for i in range(m)] + [
        f"(flatbump (var {i}))" for i in range(m)] + [
        f"(sin (* (const {TAU}) (var {i})))" for i in range(m)] + [
        f"(* (var 0) (var {m - 1}))", "(const 1.5)", "(pow (var 0) 3)"]
    return st.lists(st.sampled_from(per_axis), min_size=1, max_size=m + 1)


@st.composite
def requests(draw):
    m = draw(st.integers(1, 3))
    bound = st.sampled_from(BOUNDS) | st.floats(-4.0, 4.0)
    box = [[draw(bound), draw(bound)] for _ in range(m)]
    grid = draw(st.integers(2, {1: 40, 2: 9, 3: 5}[m]))
    texts = draw(_generators(m))
    options = draw(st.sampled_from([None, {"jet_order": 2},
                                    {"jet_order": 2, "jet_wordlen": 1},
                                    {"tol_sep": 1e-3, "tol_rank": 1e-2}]))
    return [parse_expr(t, m) for t in texts], box, grid, options


@given(requests())
def test_generated_boxes_match_reference(request):
    gens, box, grid, options = request
    try:
        check(gens, box, grid, options)
    except DomainError:
        # non-finite samples are refused on both paths
        with pytest.raises(DomainError):
            reference_verdict(gens, box, grid, options)
        assume(False)


def test_degenerate_axes_keep_the_sign_of_zero():
    # linspace(-0.0, -0.0, 3) is [0.0, 0.0, -0.0]: every pair coincides in
    # value, and the pairs equal in coordinates collapse as in a set
    x = parse_expr("(var 0)", 2)
    for box in ([[-0.0, -0.0], [1.0, -1.0]], [[0.0, -0.0], [-0.0, 5e-324]],
                [[5e-324, -5e-324], [-0.0, 0.0]]):
        v, text = check([x], box, 3)
        assert "-0.0" in text
    # the pairs of a degenerate axis tie in value and in coordinates: which
    # of them stays must not depend on the order the check finds them in
    for grid in (3, 40):
        check([parse_expr("(var 1)", 2)], [[-0.0, -0.0], [1.0, -1.0]], grid)
    # two points equal in value keep their index order within the pair
    v, _ = check([parse_expr("(var 0)", 1)], [[0.0, -0.0]], 2)
    assert repr(v.reasons[0]["witness"]) == "[[0.0], [-0.0]]"


@pytest.mark.parametrize("gens, options, conditions", [
    # separation and tangent witnesses, then a stalled jet (FAIL entry)
    ([parse_expr("(pow (var 0) 2)", 1)],
     {"jet_order": 2, "jet_wordlen": 2, "jet_points": [[0.0], [0.5]]},
     ["separation", "tangent", "jet"]),
    # a tangent witness, then a jet span still growing (inconclusive entry)
    ([parse_expr("(pow (var 0) 2)", 1), parse_expr("(pow (var 0) 3)", 1)],
     {"jet_order": 3, "jet_wordlen": 1, "jet_points": [[0.0], [0.25]]},
     ["tangent", "jet"]),
])
def test_mixed_entries_match_reference(gens, options, conditions):
    v, _ = check(gens, [[-1.0, 1.0]], 5, options)
    assert list(dict.fromkeys(r["condition"] for r in v.reasons)) == conditions


def test_reasons_with_only_jet_entries():
    # a FAIL from a stalled jet alone: no witness arrays to template
    gens = [parse_expr("(var 0)", 1), parse_expr("(const 2)", 1)]
    options = {"jet_order": 2, "jet_wordlen": 1}
    v, _ = check(gens, [[-1.0, 1.0]], 5, options)
    assert v.status == "INCONCLUSIVE"
    v, _ = check([parse_expr("(pow (var 0) 3)", 1)], [[0.5, 1.0]], 5,
                 {"jet_order": 3, "jet_wordlen": 2, "jet_points": [[0.0]]})
    assert v.status == "FAIL" and len(v.witnesses) == 1


@pytest.mark.parametrize("grid, long", [(3, False), (5, False), (41, True), (201, True)])
def test_shared_reuse_on_both_sides_of_the_threshold(grid, long):
    """`long` marks the grids whose reasons text runs past a kilobyte;
    short and long texts must both match the reference."""
    gens = [parse_expr("(pow (var 0) 2)", 1)]
    v, _ = check(gens, [[-1.0, 1.0]], grid)


def test_report_text_is_json_of_the_list():
    gens = [parse_expr("(pow (var 0) 2)", 2), parse_expr("(var 1)", 2)]
    v = envelope_verdict(gens, [[1.0, -1.0], [-0.5, 0.5]], 7)
    same(cli._render({"k": v.witnesses}), json.dumps({"k": v.reasons}, sort_keys=True,
                                                     indent=2))
    for level in range(4):
        same(cli._render(v.witnesses, level), cli._render(v.reasons, level))


# --- the Reasons writer at every depth ----------------------------------------


KINDS = [("pairs",), ("points",), ("jets",), ("pairs", "points", "jets")]


def made_reasons(m: int, kinds, seed: int) -> envelope.Reasons:
    """A Reasons over m axes with -0.0, 0.0 and subnormal coordinates and
    the witness kinds asked for, built directly from flat index arrays."""
    rng = np.random.default_rng(seed)
    axes = [rng.permutation([-0.0, 0.0, 0.1, -1.25, 5e-324, 1e300, 3.0 + axis])
            for axis in range(m)]
    # every coordinate of every axis is named, in a seeded order
    pairs = np.ravel_multi_index(tuple(np.array([[rng.permutation(7) for _ in range(m)]
                                                 for _ in range(2)]).swapaxes(0, 1)), (7,) * m)
    points = np.ravel_multi_index(tuple(rng.permutation(7) for _ in range(m)), (7,) * m)
    if "pairs" not in kinds:
        pairs = pairs[:, :0]
    if "points" not in kinds:
        points = points[:0]
    entries = [{"condition": "jet", "witness": [0.5, -0.0, 1e-7][:m],
                "detail": f"jet span {k} of 3, growth [1, {k}]"}
               for k in (1, 2)] if "jets" in kinds else []
    return envelope.Reasons(axes, pairs, points, entries)


def nested(obj, depth: int):
    for _ in range(depth):
        obj = [obj]
    return obj


def json_text(obj) -> str:
    return json.dumps(cli.to_jsonable(obj), sort_keys=True, indent=2)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kinds", KINDS, ids="+".join)
def test_reasons_written_at_every_depth(m, kinds):
    for level in range(5):
        # a fresh object per report, so its axis texts are made at the
        # depth written first: "a" is written before "b"
        for shape in (lambda r: {"a": nested(r, level), "b": r},
                      lambda r: {"a": r, "b": nested(r, level)},
                      lambda r: {"results": {"reasons": r}, "violations": r},
                      lambda r: nested(r, level)):
            doc = shape(made_reasons(m, kinds, m))
            same(cli._render(doc), json_text(doc))
        text = cli._render(made_reasons(m, kinds, m), level)
        same(text, cli._render(made_reasons(m, kinds, m).to_list(), level))
        if "jets" not in kinds:
            assert "-0.0" in text and "5e-324" in text


def test_coordinate_texts_made_once_per_report(monkeypatch, tmp_path, capsys):
    calls = []
    coordinates = envelope._coordinates

    def counted(axes, points):
        calls.append(np.size(points))
        return coordinates(axes, points)

    monkeypatch.setattr(envelope, "_coordinates", counted)
    path = tmp_path / "fold.json"
    path.write_text(json.dumps({"m": 2, "generators": ["(pow (var 0) 2)", "(var 1)"],
                                "box": [[-1.0, 1.0], [-0.5, 0.5]], "grid": 9}))
    assert cli.main(["envelope", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["reasons"] == report["violations"]
    assert {r["condition"] for r in report["violations"]} == {"separation", "tangent"}
    # one gather of every witness point: the pairs' two points, then the
    # tangent points
    conditions = [r["condition"] for r in report["violations"]]
    assert calls == [2 * conditions.count("separation") + conditions.count("tangent")]


def test_verdict_gathers_no_coordinates(monkeypatch):
    def refused(axes, points):
        raise AssertionError("coordinates gathered")

    gens = [parse_expr("(pow (var 0) 2)", 2), parse_expr("(var 1)", 2)]
    box = [[-1.0, 1.0], [0.0, 1.0]]
    with monkeypatch.context() as patched:
        patched.setattr(envelope, "_coordinates", refused)
        v = envelope_verdict(gens, box, 9)
        # the public checks still gather them without a shared sample
        for check in (envelope.separation_check, envelope.tangent_rank_check):
            with pytest.raises(AssertionError, match="coordinates gathered"):
                check(gens, box, 9)
    assert {r["condition"] for r in v.reasons} == {"separation", "tangent"}
