"""Command-line interface: exit codes, report schema, determinism."""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from diffalg import function_algebra
from diffalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_algebra_check_inline_name(capsys):
    code, rep, _ = run_json(capsys, "algebra-check", "matrix:2")
    assert code == 0
    assert rep["subcommand"] == "algebra-check"
    assert rep["results"]["dim"] == 4
    assert rep["results"]["axioms_ok"] is True
    assert rep["violations"] == []
    assert len(rep["inputs_digest"]) == 64


def test_algebra_check_broken_file(capsys, tmp_path):
    import diffalg

    m2 = diffalg.matrix_algebra(2)
    doc = m2.to_dict()
    doc["unit"] = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = _write(tmp_path, "bad.json", doc)
    code, rep, _ = run_json(capsys, "algebra-check", path)
    assert code == 3
    assert rep["results"]["axioms_ok"] is False
    assert rep["violations"]


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "algebra-check", "/nonexistent/nope.json")
    assert code == 2
    assert "input error" in err


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["matrix:0", "func:0", "matrix:-1"])
def test_nonpositive_size_names_the_cause(capsys, name):
    code, out, err = run(capsys, "algebra-check", name)
    assert code == 2
    assert out == ""
    assert f"n must be >= 1, got {name.split(':')[1]}" in err


def test_oversized_algebra_is_refused(capsys):
    code, rep, _ = run_json(capsys, "algebra-check", "matrix:17")
    assert code == 3
    assert rep["results"] == {}
    [v] = rep["violations"]
    assert v["type"] == "domain"
    assert "dimension 289 exceeds 256" in v["message"]
    assert f"{16 * 289 ** 3} bytes" in v["message"]


def _valid_dersys_doc():
    return {
        "m": 1, "N": 2, "source": "poly:1:2", "target": "func:1",
        "ops": [
            {"index": [0], "matrix": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
            {"index": [1], "matrix": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]},
            {"index": [2], "matrix": [[[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]]},
        ],
    }


def test_dersys_verify_valid(capsys, tmp_path):
    path = _write(tmp_path, "dsys.json", _valid_dersys_doc())
    code, rep, _ = run_json(capsys, "dersys-verify", path)
    assert code == 0
    assert rep["results"]["ok"] is True
    assert rep["results"]["packs_to_homomorphism"] is True


def test_dersys_verify_broken_leibniz(capsys, tmp_path):
    doc = _valid_dersys_doc()
    doc["ops"][1]["matrix"] = [[[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, "bad.json", doc)
    code, rep, _ = run_json(capsys, "dersys-verify", path)
    assert code == 3
    assert any(v["axiom"] == "leibniz" for v in rep["violations"])


def test_difforder_of_derivative(capsys, tmp_path):
    doc = {"source": "poly:1:4", "target": "poly:1:3",
           "operator": [[0, 1, 0, 0, 0], [0, 0, 2, 0, 0],
                        [0, 0, 0, 3, 0], [0, 0, 0, 0, 4]],
           "max_order": 3}
    path = _write(tmp_path, "dord.json", doc)
    code, rep, _ = run_json(capsys, "difforder", path)
    assert code == 0
    assert rep["results"]["order"] == 1


def test_difforder_oversized_commutator_level_is_refused(capsys, tmp_path):
    """E12 on func:2 has no finite order; with 2049 generators the second
    commutator level would hold 2049^2 * 4 entries (256 MiB), past the
    bound, and is refused before it is allocated. The peak is the parsed
    input (about 1.2 MiB) and the first level with its multiplication
    stacks (about 0.85 MiB)."""
    from diffalg.diffcalc import MAX_COMMUTATOR_ENTRIES

    doc = {"source": "func:2", "operator": [[0, 1], [0, 0]], "max_order": 3,
           "generators": [[1, 0] if i % 2 else [0, 1] for i in range(2049)]}
    path = _write(tmp_path, "dord.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "difforder", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert rep["results"] == {}
    entries = 2049 ** 2 * 4
    assert entries > MAX_COMMUTATOR_ENTRIES
    assert rep["violations"] == [{
        "type": "domain",
        "message": f"commutator level 2 has {entries} matrix entries; "
                   f"at most {MAX_COMMUTATOR_ENTRIES}"}]
    assert peak < 4 * 2 ** 20


def test_difforder_many_instances_keep_a_bounded_peak(capsys, tmp_path):
    """The random cross-check runs in sample blocks, so 100000 samples
    (about 160 MiB as one stack) stay within a few blocks."""
    doc = {"source": "poly:1:4", "target": "poly:1:3",
           "operator": [[0, 1, 0, 0, 0], [0, 0, 2, 0, 0],
                        [0, 0, 0, 3, 0], [0, 0, 0, 0, 4]],
           "max_order": 3}
    path = _write(tmp_path, "dord.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "difforder", path, "--instances", "100000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert rep["results"]["order"] == 1
    assert peak < 16 * 2 ** 20


def test_ztower_nonstar_example(capsys, tmp_path):
    doc = {"source": "poly:1:1", "target": "matrix:2",
           "phi": [[1, 0], [0, 1], [0, 0], [1, 0]]}
    path = _write(tmp_path, "nonstar.json", doc)
    code, rep, _ = run_json(capsys, "ztower", path)
    # the action is not involutive, so a growing tower is expected data,
    # not a stabilization violation
    assert code == 0
    assert rep["results"]["dims"] == [0, 2, 3]
    assert rep["results"]["stabilized"] is False
    assert rep["results"]["involutive"] is False


def test_ztower_star_closed_stabilizes(capsys, tmp_path):
    doc = {"source": "func:2", "target": "matrix:2",
           "phi": [[1, 0], [0, 0], [0, 0], [0, 1]]}
    path = _write(tmp_path, "diag.json", doc)
    code, rep, _ = run_json(capsys, "ztower", path)
    assert code == 0
    assert rep["results"]["dims"] == [0, 2, 2]
    assert rep["results"]["stabilized"] is True


def test_jet_command(capsys, tmp_path):
    doc = {"m": 1, "order": 2, "point": [0.0],
           "f": [{"index": [0], "coeff": 1}, {"index": [1], "coeff": 1},
                 {"index": [3], "coeff": 1}]}
    path = _write(tmp_path, "jet.json", doc)
    code, rep, _ = run_json(capsys, "jet", path)
    assert code == 0
    jet = rep["results"]["jet"]
    assert np.allclose([c[0] for c in jet], [1.0, 1.0, 0.0])
    assert rep["results"]["dim"] == 3
    assert rep["results"]["routes_residual"] < 1e-9


def test_jet_oversized_ambient_is_refused(capsys, tmp_path):
    # order 20 in 3 variables needs degree 22: C(25, 3) = 2300 monomials
    doc = {"m": 3, "order": 20, "point": [0.0, 0.0, 0.0],
           "f": [{"index": [1, 0, 0], "coeff": 1}]}
    path = _write(tmp_path, "jet.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "jet", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert rep["results"] == {}
    [v] = rep["violations"]
    assert v["type"] == "domain"
    assert "dimension 2300 exceeds 256" in v["message"]
    assert peak < 2 ** 20


def _jet_doc(point, terms, order=2):
    return {"m": len(point), "order": order, "point": point,
            "f": [{"index": list(k), "coeff": c} for k, c in terms]}


@pytest.mark.parametrize("point,terms,message", [
    ([float("nan")], [((1,), 1.0)], "point [nan] is not finite"),
    ([float("inf")], [((1,), 1.0)], "point [inf] is not finite"),
    ([0.5], [((1,), float("nan"))], "coefficient (nan+0j) of index [1] is not finite"),
    ([0.5, 0.0], [((0, 1), [1.0, float("inf")])],
     "coefficient (1+infj) of index [0, 1] is not finite"),
])
def test_jet_non_finite_input_is_refused(capsys, tmp_path, point, terms, message):
    path = _write(tmp_path, "jet.json", _jet_doc(point, terms))
    code, out, err = run(capsys, "jet", path)
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: {message}\n"


def test_jet_point_beyond_reach_is_refused(capsys, tmp_path):
    path = _write(tmp_path, "jet.json", _jet_doc([1e200, 0.0], [((1, 0), 1.0)], order=1))
    code, rep, err = run_json(capsys, "jet", path)
    assert (code, err) == (3, "")
    assert rep["violations"] == [{
        "type": "domain",
        "message": "jet point [1e+200, 0.0] is out of reach: its largest "
                   "coordinate to the power 3 is not finite"}]


def test_jet_overflow_is_a_numeric_error(capsys, tmp_path):
    """Finite coefficients whose jet overflows give a NaN route residual,
    which the routes check refuses without printing warnings."""
    path = _write(tmp_path, "jet.json", _jet_doc([2.0], [((3,), 1e308)]))
    code, rep, err = run_json(capsys, "jet", path)
    assert (code, err) == (4, "")
    assert rep["violations"] == [{"type": "numeric",
                                  "message": "jet routes disagree by nan"}]


def test_jet_seminorm_near_the_float_range(capsys, tmp_path):
    """Coefficients near 1e308 whose projection overflows keep a finite
    seminorm, 1e308 times that of the unscaled polynomial."""
    reps = []
    for c in (1.0, 1e308):
        path = _write(tmp_path, "jet.json", _jet_doc([0.5], [((0,), c), ((1,), c)]))
        code, out, err = run(capsys, "jet", path)
        assert (code, err) == (0, "")
        assert "Infinity" not in out
        reps.append(json.loads(out)["results"])
    small, big = (r["seminorm"] for r in reps)
    assert 0 < small and big == pytest.approx(1e308 * small, rel=1e-12)


def test_jet_seminorm_beyond_the_float_range_is_refused(capsys, tmp_path):
    # at s = 0 the distance is the norm of the three jet coefficients, 2.6e308
    path = _write(tmp_path, "jet.json", _jet_doc([0.0], [((k,), 1.5e308) for k in range(3)]))
    code, rep, err = run_json(capsys, "jet", path)
    assert (code, err) == (4, "")
    assert rep["violations"] == [{"type": "numeric",
                                  "message": "jet seminorm is beyond the float range"}]


@pytest.mark.parametrize("s", [1e4, 1e8])
def test_jet_far_point_is_exact(capsys, tmp_path, s):
    path = _write(tmp_path, "jet.json", _jet_doc([s], [((2,), 1.0), ((3,), 1.0)], order=3))
    code, rep, err = run_json(capsys, "jet", path)
    assert (code, err) == (0, "")
    res = rep["results"]
    t = int(s)
    exact = [t ** 2 + t ** 3, 2 * t + 3 * t ** 2, 1 + 3 * t, 1]
    assert [c for c, _ in res["jet"]] == [float(x) for x in exact]
    assert res["dim"] == res["expected_dim"] == 4
    assert res["routes_residual"] == 0.0


@pytest.mark.parametrize("gen,point,order", [
    ("(+ (var 0) (pow (var 0) 3))", 1e5, 3),
    ("(var 0)", 1e4, 1),
])
def test_envelope_far_jet_point_keeps_the_numeric_refusal(capsys, tmp_path, gen, point, order):
    doc = {"m": 1, "generators": [gen], "box": [[-1.0, 1.0]], "grid": 5,
           "options": {"jet_order": order, "jet_points": [[point]]}}
    path = _write(tmp_path, "env.json", doc)
    code, rep, err = run_json(capsys, "envelope", path)
    assert (code, err) == (4, "")
    assert rep["violations"] == [{
        "type": "numeric",
        "message": "jet quotient and vanishing subspace dimensions do not "
                   "complement each other"}]


def test_envelope_jet_point_beyond_reach_is_refused(capsys, tmp_path):
    """The box centre of [1e308, 1.7e308] overflows as (lo + hi) / 2 and is
    taken as lo / 2 + hi / 2 = 1.35e308; its square, which the order-2 jet
    rows need, is not finite, so the point is refused before any jet space
    is built."""
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[1e308, 1.7e308]],
           "grid": 5, "options": {"jet_order": 2}}
    path = _write(tmp_path, "env.json", doc)
    code, rep, _ = run_json(capsys, "envelope", path)
    assert code == 3
    assert rep["violations"] == [{
        "type": "domain",
        "message": "jet point [1.35e+308] is out of reach: its largest "
                   "coordinate to the power 2 is not finite"}]


def test_envelope_jet_point_of_a_huge_box_is_finite(capsys, tmp_path):
    """At order 1 the finite centre reaches the jet space, which reports
    its rank failure as a numeric error instead of an SVD on infinities."""
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[1e308, 1.7e308]],
           "grid": 5, "options": {"jet_order": 1}}
    path = _write(tmp_path, "env.json", doc)
    code, rep, _ = run_json(capsys, "envelope", path)
    assert code == 4
    assert rep["violations"] == [{
        "type": "numeric",
        "message": "jet quotient and vanishing subspace dimensions do not "
                   "complement each other"}]


def test_envelope_oversized_jet_order_is_refused(capsys, tmp_path):
    doc = {"m": 3, "generators": ["(var 0)", "(var 1)", "(var 2)"],
           "box": [[-1.0, 1.0]] * 3, "grid": 3, "options": {"jet_order": 20}}
    path = _write(tmp_path, "env.json", doc)
    code, rep, _ = run_json(capsys, "envelope", path)
    assert code == 3
    assert "dimension 1771 exceeds 256" in rep["violations"][0]["message"]


@pytest.mark.parametrize("key,value,name", [("m", 0, "m=0"), ("N", -1, "N=-1")])
def test_dersys_verify_bad_shape_is_parse_error(capsys, tmp_path, key, value, name):
    doc = _valid_dersys_doc()
    doc[key] = value
    path = _write(tmp_path, "dsys.json", doc)
    code, out, err = run(capsys, "dersys-verify", path)
    assert code == 2
    assert out == ""
    assert "parse error" in err and name in err


def test_dersys_verify_too_many_operators_is_refused(capsys, tmp_path):
    doc = _valid_dersys_doc()
    doc["m"], doc["N"] = 10, 6
    path = _write(tmp_path, "dsys.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "dersys-verify", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "has 8008 operators; at most 256" in rep["violations"][0]["message"]
    assert peak < 2 ** 20


def test_tangent_command_cusp(capsys, tmp_path):
    doc = {"algebra": "cusp", "character": [1, 0, 0, 0, 0, 0]}
    path = _write(tmp_path, "tan.json", doc)
    code, rep, _ = run_json(capsys, "tangent", path)
    assert code == 0
    assert rep["results"]["tangent_dim"] == 2
    assert rep["results"]["cotangent_dim"] == 2
    assert rep["results"]["dims_equal"] is True


def test_tangent_command_rejects_noncharacter(capsys, tmp_path):
    doc = {"algebra": "poly:1:2", "character": [1, 0.5, 0.25]}
    path = _write(tmp_path, "tan.json", doc)
    code, rep, _ = run_json(capsys, "tangent", path)
    assert code == 3
    assert rep["violations"][0]["type"] == "domain"


def test_envelope_periodic_witness(capsys, tmp_path):
    tau = 6.283185307179586
    doc = {"m": 1,
           "generators": [f"(sin (* (const {tau}) (var 0)))",
                          f"(cos (* (const {tau}) (var 0)))"],
           "box": [[-1.0, 1.0]], "grid": 201}
    path = _write(tmp_path, "periodic.json", doc)
    code, rep, _ = run_json(capsys, "envelope", path)
    assert code == 3
    assert rep["results"]["status"] == "FAIL"
    witnesses = [r["witness"] for r in rep["results"]["reasons"]]
    assert [[0.0], [1.0]] in witnesses or [[-1.0], [0.0]] in witnesses


def test_envelope_pass_exits_zero(capsys, tmp_path):
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[-1.0, 1.0]], "grid": 101}
    path = _write(tmp_path, "easy.json", doc)
    code, rep, _ = run_json(capsys, "envelope", path)
    assert code == 0
    assert rep["results"]["status"] == "PASS"


def test_dauns_hofmann_inline(capsys):
    code, rep, _ = run_json(capsys, "dauns-hofmann", "matrix:2")
    assert code == 0
    assert rep["results"]["fiber_dims"] == [4]
    assert rep["results"]["ok"] is True


def test_dauns_hofmann_without_characters_is_domain_error(capsys, tmp_path):
    spec = function_algebra(2).to_dict()
    spec["involution"] = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    path = _write(tmp_path, "swap.json", {"algebra": spec})
    code, rep, _ = run_json(capsys, "dauns-hofmann", path)
    assert code == 3
    assert rep["violations"][0]["type"] == "domain"
    assert "no *-characters" in rep["violations"][0]["message"]


def test_fourier_inline(capsys):
    code, rep, _ = run_json(capsys, "fourier", "Z4xZ2")
    assert code == 0
    assert rep["results"]["ok"] is True
    assert rep["results"]["order"] == 8


def test_selftest_small(capsys):
    code, rep, _ = run_json(capsys, "selftest", "--instances", "3")
    assert code == 0
    assert rep["results"]["ok"] is True
    assert all(s["failures"] == 0 for s in rep["results"]["suites"])


def test_report_is_byte_identical(capsys, tmp_path):
    doc = {"m": 1, "generators": ["(pow (var 0) 2)", "(pow (var 0) 3)"],
           "box": [[-1.0, 1.0]], "grid": 101}
    path = _write(tmp_path, "sq.json", doc)
    _, out1, _ = run(capsys, "envelope", path)
    _, out2, _ = run(capsys, "envelope", path)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["results"]["status"] == "FAIL"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "fourier", "Z2", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["results"]["ok"] is True


def test_digest_depends_on_input(capsys):
    _, rep_a, _ = run_json(capsys, "algebra-check", "matrix:2")
    _, rep_b, _ = run_json(capsys, "algebra-check", "matrix:3")
    assert rep_a["inputs_digest"] != rep_b["inputs_digest"]


def test_seed_recorded(capsys):
    code, rep, _ = run_json(capsys, "fourier", "Z4", "--seed", "7")
    assert code == 0
    assert rep["seed"] == 7


@pytest.mark.parametrize("doc, message", [
    ({"m": 3, "generators": ["(var 0)", "(var 1)", "(var 2)"],
      "box": [[-1.0, 1.0]] * 3, "grid": 2001},
     f"grid 2001 on a 3-dimensional box gives {2001 ** 3} sample points; at most {2 ** 20}"),
    ({"m": 1, "generators": ["(const 1.0)"], "box": [[-1.0, 1.0]], "grid": 1449},
     f"separation check has {1449 * 1448 // 2} candidate pairs; at most {2 ** 20}"),
])
def test_envelope_size_guards_refuse_before_allocating(capsys, tmp_path, doc, message):
    path = _write(tmp_path, "env.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "envelope", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert rep["results"] == {}
    assert rep["violations"] == [{"type": "domain", "message": message}]
    assert peak < 2 ** 20


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from diffalg import cli

    def broken(data, args):
        raise RuntimeError("handler fell over")

    monkeypatch.setitem(cli.HANDLERS, "fourier", broken)
    code, rep, err = run_json(capsys, "fourier", "Z2")
    assert code == 5
    assert err == ""
    assert rep["subcommand"] == "fourier"
    assert rep["results"] == {}
    assert rep["violations"] == [{"type": "internal",
                                  "message": "RuntimeError: handler fell over"}]


@pytest.mark.parametrize("options", [{"tol_sep": -1}, {"tol_sep": float("nan")},
                                     {"tol_rank": -1}, {"tol_rank": float("nan")},
                                     {"tol_sep": float("inf")}])
def test_envelope_bad_tolerances_are_input_errors(capsys, tmp_path, options):
    # (sin 2 pi x, cos 2 pi x) takes the same values at 0 and 1, a FAIL (exit
    # 3) that a negative or NaN tolerance would turn into a PASS
    tau = 6.283185307179586
    doc = {"m": 1, "generators": [f"(sin (* (const {tau}) (var 0)))",
                                  f"(cos (* (const {tau}) (var 0)))"],
           "box": [[0, 1]], "grid": 5, "options": options}
    code, out, err = run(capsys, "envelope", _write(tmp_path, "tol.json", doc))
    assert code == 2
    assert out == ""
    [name] = options
    assert f"{name} must be finite and non-negative" in err


def test_envelope_fewer_generators_than_variables_fails(capsys, tmp_path):
    doc = {"m": 2, "generators": ["(var 0)"], "box": [[-1, 1], [-1, 1]], "grid": 3}
    code, rep, _ = run_json(capsys, "envelope", _write(tmp_path, "kless.json", doc))
    assert code == 3
    assert rep["results"]["status"] == "FAIL"
    tangent = [r["witness"] for r in rep["results"]["reasons"] if r["condition"] == "tangent"]
    assert tangent == [[x, y] for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]


@pytest.mark.parametrize("generator", ["(exp (exp (exp (var 0))))",
                                       "(* (exp (exp (exp (var 0)))) (const 0))"])
def test_envelope_non_finite_samples_are_refused(capsys, tmp_path, generator):
    doc = {"m": 1, "generators": [generator], "box": [[0, 5]], "grid": 5}
    code, rep, err = run_json(capsys, "envelope", _write(tmp_path, "inf.json", doc))
    assert code == 3
    assert err == ""
    assert rep["results"] == {}
    assert rep["violations"] == [{
        "type": "domain",
        "message": "generator values or first derivatives are not finite at 3 of 5 "
                   "sample points, the first at [2.5]"}]


def test_linalg_error_is_numeric(capsys, monkeypatch):
    from diffalg import cli

    def broken(data, args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(cli.HANDLERS, "fourier", broken)
    code, rep, err = run_json(capsys, "fourier", "Z2")
    assert code == 4
    assert err == ""
    assert rep["violations"] == [{"type": "numeric", "message": "SVD did not converge"}]


def test_main_in_one_process_matches_separate_processes(capsys, tmp_path):
    import os
    import subprocess
    import sys

    from diffalg import cli

    def separate(*argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "diffalg.cli", *argv],
                              capture_output=True, text=True, check=False,
                              env={**os.environ, "PYTHONPATH": src})
        return done.returncode, done.stdout

    target = tmp_path / "report.json"
    assert main(["fourier", "Z4", "--seed", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "fourier", "Z4", "--seed", "3")
    assert code == 0
    assert out == target.read_text() == separate("fourier", "Z4", "--seed", "3")[1]
    code, out, _ = run(capsys, "algebra-check", "matrix:2")
    assert (code, out) == separate("algebra-check", "matrix:2")
    assert json.loads(out)["seed"] == 0


@pytest.mark.parametrize("generator, box", [
    ("(const 1)", [[0.0, float("inf")]]),
    ("(var 0)", [[float("-inf"), 1.0]]),
    ("(var 0)", [[float("nan"), 1.0]]),
    ("(var 0)", [[-1.7e308, 1.7e308]]),
])
def test_envelope_non_finite_box_is_refused(capsys, tmp_path, generator, box):
    doc = {"m": 1, "generators": [generator], "box": box, "grid": 5}
    code, rep, err = run_json(capsys, "envelope", _write(tmp_path, "box.json", doc))
    assert code == 3
    assert err == ""
    assert rep["results"] == {}
    [v] = rep["violations"]
    assert v["type"] == "domain"
    assert v["message"].startswith(f"box axis 0 is [{box[0][0]!r}, {box[0][1]!r}]; ")


def test_envelope_flat_bump_on_a_tiny_box_is_judged(capsys, tmp_path):
    doc = {"m": 1, "generators": ["(flatbump (var 0))"], "box": [[1e-160, 1e-150]],
           "grid": 3}
    code, rep, err = run_json(capsys, "envelope", _write(tmp_path, "tiny.json", doc))
    assert code == 3
    assert err == ""
    assert rep["results"]["status"] == "FAIL"
    conditions = [r["condition"] for r in rep["violations"]]
    assert conditions == ["separation"] * 3 + ["tangent"] * 3
    assert rep["violations"] == rep["results"]["reasons"]


@pytest.mark.parametrize("dim, planes", [(257, 1), (2, 257)])
def test_oversized_serialized_algebra_is_refused(capsys, tmp_path, dim, planes):
    doc = {"dim": dim, "structure": [[[[0.0, 0.0]]]] * planes,
           "involution": [[[0.0, 0.0]]], "unit": [[1.0, 0.0]]}
    path = _write(tmp_path, "big.json", doc)
    tracemalloc.start()
    try:
        code, rep, _ = run_json(capsys, "algebra-check", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    [v] = rep["violations"]
    assert v["type"] == "domain"
    assert "dimension 257 exceeds 256" in v["message"]
    assert peak < 2 ** 20
