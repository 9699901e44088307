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


@pytest.mark.parametrize("name", ["matrix:2", "matrix:4", "func:5", "group:4x2", "group:3x3",
                                  "poly:1:4", "poly:2:3", "cusp"])
def test_algebra_check_of_a_named_algebra_file(capsys, tmp_path, name):
    """The to_dict file of a named algebra has no product table, but its
    constants form one: it reports what the name reports. A copy with one
    constant raised to 2, or with a second product in one pair, is no
    table, and reports exactly the loop reference's messages."""
    import copy

    from test_algebra import reference_axiom_violations

    from diffalg import StructureAlgebra, algebra_from_name

    alg = algebra_from_name(name)
    doc = alg.to_dict()
    _, want, _ = run_json(capsys, "algebra-check", name)
    code, got, _ = run_json(capsys, "algebra-check", _write(tmp_path, "alg.json", doc))
    assert code == 0
    assert (got["results"], got["violations"]) == (want["results"], want["violations"])
    i, j = np.argwhere(alg._product.table >= 0)[-1]  # the last nonzero product
    k = alg._product.table[i, j]
    raised, second = copy.deepcopy(doc), copy.deepcopy(doc)
    raised["structure"][i][j][k] = [2.0, 0.0]
    second["structure"][i][j][(k + 1) % alg.dim] = [1.0, 0.0]
    for bad in (raised, second):
        ref = reference_axiom_violations(StructureAlgebra.from_dict(bad, check=False), 1e-9)
        code, rep, _ = run_json(capsys, "algebra-check", _write(tmp_path, "bad.json", bad))
        assert ref and code == 3
        assert [v["message"] for v in rep["violations"]] == ref


@pytest.mark.parametrize("field,value", [("structure", "NaN"), ("structure", "Infinity"),
                                         ("involution", "-Infinity"), ("unit", "NaN")])
def test_algebra_check_refuses_non_finite_entries(capsys, tmp_path, field, value):
    """Python's json reads NaN and Infinity; such an algebra is refused
    before any law is checked."""
    doc = function_algebra(2).to_dict()
    entry = {"structure": doc["structure"][0][0], "involution": doc["involution"][1],
             "unit": doc["unit"]}[field]
    entry[1] = [12345.0, 0.0]  # a placeholder for the non-finite json token
    text = json.dumps(doc).replace("12345.0", value)
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    code, out, err = run(capsys, "algebra-check", str(path))
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: {field} has an entry that is not finite\n"


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "algebra-check", "/nonexistent/nope.json")
    assert code == 2
    assert "input error" in err


def test_deeply_nested_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "jet", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("diffalg: input error: maximum recursion depth exceeded")


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


@pytest.mark.parametrize("field, value", [("m", 1.5), ("N", True), ("N", "2")])
def test_dersys_verify_integer_fields_are_input_errors(capsys, tmp_path, field, value):
    doc = _valid_dersys_doc()
    doc[field] = value
    code, out, err = run(capsys, "dersys-verify", _write(tmp_path, "dsys.json", doc))
    assert (code, out) == (2, "")
    assert f"{field} must be an integer, not {value!r}" in err


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


@pytest.mark.parametrize("field, value", [("m", 1.5), ("order", False),
                                          ("order", 2.5), ("degree", "4")])
def test_jet_integer_fields_are_input_errors(capsys, tmp_path, field, value):
    doc = {"m": 1, "order": 2, "point": [0.0], "f": [{"index": [1], "coeff": 1}]}
    doc[field] = value
    code, out, err = run(capsys, "jet", _write(tmp_path, "jet.json", doc))
    assert (code, out) == (2, "")
    assert f"{field} must be an integer, not {value!r}" in err


def test_jet_integral_floats_read_as_integers(capsys, tmp_path):
    doc = {"m": 1, "order": 2, "point": [0.5], "f": [{"index": [3], "coeff": 1}]}
    _, want, _ = run(capsys, "jet", _write(tmp_path, "a.json", doc))
    doc.update({"m": 1.0, "order": 2.0, "degree": 4.0})
    code, got, _ = run(capsys, "jet", _write(tmp_path, "b.json", doc))
    assert code == 0
    assert json.loads(got)["results"] == json.loads(want)["results"]


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


def _envelope_status(capsys, tmp_path, doc):
    code, rep, err = run_json(capsys, "envelope", _write(tmp_path, "env.json", doc))
    assert err == ""
    return code, rep


@pytest.mark.parametrize("gen,point,order", [
    ("(+ (var 0) (pow (var 0) 3))", 1e5, 3),
    ("(var 0)", 1e4, 1),
])
def test_envelope_far_jet_point_keeps_the_numeric_refusal(capsys, tmp_path, gen, point, order):
    """A rank guard on raw Taylor rows once refused these far points as a
    numeric error; in the jets at the point they pass."""
    doc = {"m": 1, "generators": [gen], "box": [[-1.0, 1.0]], "grid": 5,
           "options": {"jet_order": order, "jet_points": [[point]]}}
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert (code, rep["results"]["status"], rep["violations"]) == (0, "PASS", [])


def test_envelope_jet_point_beyond_reach_is_refused(capsys, tmp_path):
    """The box centre of [1e308, 1.7e308] overflows as (lo + hi) / 2 and is
    taken as lo / 2 + hi / 2 = 1.35e308. The jet of x there is finite, so
    x passes at order 2; x^2 overflows on the sample and is refused, and
    so is its jet at 1e160, whose square is not finite."""
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[1e308, 1.7e308]],
           "grid": 5, "options": {"jet_order": 2}}
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert (code, rep["results"]["status"]) == (0, "PASS")
    doc["generators"] = ["(pow (var 0) 2)"]
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert code == 3
    assert rep["violations"] == [{
        "type": "domain",
        "message": "generator values or first derivatives are not finite at 5 of "
                   "5 sample points, the first at [1e+308]"}]
    doc.update(box=[[-1.0, 1.0]], options={"jet_order": 2, "jet_points": [[1e160]]})
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert code == 3
    assert rep["violations"] == [{
        "type": "domain", "message": "the jets of the generators at [1e+160] are not finite"}]


def test_envelope_jet_point_of_a_huge_box_is_finite(capsys, tmp_path):
    """At order 1 the finite centre 1.35e308 gives the finite jet
    1.35e308 + x, and x spans the 1-jets there."""
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[1e308, 1.7e308]],
           "grid": 5, "options": {"jet_order": 1}}
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert (code, rep["results"]["status"], rep["violations"]) == (0, "PASS", [])


def test_envelope_jet_span_short_of_the_jacobian_rank_fails(capsys, tmp_path):
    """(x^3, y) has Jacobian rank 1 at the centre 0, so by Nakayama's lemma
    no word reaches the 2-jets: at word length 2 = jet_order the span is
    final, a FAIL (it was INCONCLUSIVE), though no grid point of 4 per
    axis is a tangent witness."""
    doc = {"m": 2, "generators": ["(pow (var 0) 3)", "(var 1)"],
           "box": [[-0.9, 0.9], [-0.9, 0.9]], "grid": 4, "options": {"jet_order": 2}}
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert (code, rep["results"]["status"]) == (3, "FAIL")
    assert rep["results"]["reasons"] == [{
        "condition": "jet", "witness": [0.0, 0.0],
        "detail": "jet span 3 of 6, growth [1, 2, 3]"}]


def test_envelope_jets_of_a_high_power_need_no_ambient_algebra(capsys, tmp_path):
    """Words of three x^9 once needed polynomials of degree 27 in two
    variables, 406 > 256 monomials, and were refused; the 3-jets at
    (0.5, 0.5) have 10 dimensions, and x^9 and y span them."""
    doc = {"m": 2, "generators": ["(pow (var 0) 9)", "(var 1)"],
           "box": [[0.25, 0.75], [0.25, 0.75]], "grid": 3, "options": {"jet_order": 3}}
    code, rep = _envelope_status(capsys, tmp_path, doc)
    assert (code, rep["results"]["status"], rep["violations"]) == (0, "PASS", [])


def test_envelope_whose_largest_singular_value_overflows_passes(tmp_path):
    """Two generators 1.5e308 x on [0.5, 1]: the Jacobian (1.5e308, 1.5e308)
    has full rank although its sigma_1 is beyond the largest float, so no
    point is a tangent witness and no overflow warning reaches stderr."""
    import os
    import subprocess
    import sys

    from diffalg import cli

    gen = "(* (const 1.5e308) (var 0))"
    path = _write(tmp_path, "env.json",
                  {"m": 1, "generators": [gen, gen], "box": [[0.5, 1]], "grid": 3})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "diffalg.cli", "envelope", path],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    rep = json.loads(done.stdout)
    assert rep["results"]["status"] == "PASS"
    assert rep["results"]["reasons"] == []


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


def test_tangent_point_out_of_reach_is_a_domain_error(capsys, tmp_path):
    """A point whose monomials overflow is refused before any warning."""
    import warnings

    doc = {"algebra": "poly:3:3", "point": [-1e308, 0.5, 0.5]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, err = run_json(capsys, "tangent", _write(tmp_path, "far.json", doc))
    assert (code, err) == (3, "")
    assert rep["violations"] == [{
        "type": "domain",
        "message": "point [-1e+308, 0.5, 0.5] is out of reach: its monomials up to "
                   "degree 3 are not finite"}]


def test_tangent_point_of_the_wrong_length_is_an_input_error(capsys, tmp_path):
    doc = {"algebra": "poly:3:3", "point": [0.5]}
    code, out, err = run(capsys, "tangent", _write(tmp_path, "tan.json", doc))
    assert (code, out) == (2, "")
    assert "point must have 3 entries, not 1" in err


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


def test_envelope_jet_order_with_a_non_polynomial_generator_is_refused(capsys, tmp_path):
    doc = {"m": 1, "generators": ["(sin (var 0))"], "box": [[-1.0, 1.0]], "grid": 11,
           "options": {"jet_order": 2}}
    code, rep, _ = run_json(capsys, "envelope", _write(tmp_path, "sin.json", doc))
    assert code == 3
    assert rep["results"] == {}
    assert rep["violations"] == [{"type": "domain",
                                  "message": "jet surjectivity requires polynomial generators"}]
    # a grid off its rule is still an input error first
    bad = _write(tmp_path, "grid.json", {**doc, "grid": 1})
    assert run(capsys, "envelope", bad)[0] == 2
    # without the jet certificate the same generator is judged
    del doc["options"]
    code, rep, _ = run_json(capsys, "envelope", _write(tmp_path, "sin.json", doc))
    assert code == 0 and rep["results"]["status"] == "PASS"


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


def _refused_flag(capsys, argv, message):
    """argparse exits 2 with the flag's message and writes no report."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err
    assert "input error" not in captured.err


@pytest.mark.parametrize("argv", [["fourier", "Z4"], ["algebra-check", "func:2"],
                                  ["algebra-check", "/nonexistent/nope.json"]])
@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_negative_seed_is_refused_before_the_input_is_read(capsys, argv, seed):
    _refused_flag(capsys, argv + ["--seed", seed],
                  f"argument --seed: value must be >= 0, not {seed}")


@pytest.mark.parametrize("flag, text, kind", [("--seed", "x", "int"),
                                              ("--instances", "1.5", "int"),
                                              ("--tol-zero", "abc", "float")])
def test_flag_text_that_does_not_parse_keeps_the_argparse_message(capsys, flag, text, kind):
    _refused_flag(capsys, ["fourier", "Z4", flag, text],
                  f"argument {flag}: invalid {kind} value: '{text}'")


def test_seeds_beyond_the_64_bit_range_are_taken(capsys):
    code, rep, _ = run_json(capsys, "fourier", "Z4", "--seed", str(2 ** 64))
    assert code == 0
    assert rep["seed"] == 2 ** 64


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_instances_below_one_are_refused_before_the_input_is_read(capsys, tmp_path, instances):
    doc = {"source": "poly:1:4", "target": "poly:1:3",
           "operator": [[0, 1, 0, 0, 0], [0, 0, 2, 0, 0],
                        [0, 0, 0, 3, 0], [0, 0, 0, 0, 4]],
           "max_order": 3}
    message = f"argument --instances: value must be >= 1, not {instances}"
    for argv in (["difforder", _write(tmp_path, "dord.json", doc)],
                 ["difforder", "/nonexistent/nope.json"], ["selftest"]):
        _refused_flag(capsys, argv + ["--instances", instances], message)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.5"])
def test_tol_zero_off_the_tolerance_rule_is_refused_before_the_input_is_read(capsys, tmp_path,
                                                                              tol):
    # a broken system: with these tolerances it used to exit 4 (nan) or 3
    doc = _valid_dersys_doc()
    doc["ops"][1]["matrix"] = [[[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]]
    message = f"argument --tol-zero: value must be finite and non-negative, not {float(tol)!r}"
    for path in (_write(tmp_path, "bad.json", doc), "/nonexistent/nope.json"):
        _refused_flag(capsys, ["dersys-verify", path, "--tol-zero", tol], message)


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


def _handler_raising(capsys, monkeypatch, exc):
    from diffalg import cli

    def broken(data, args):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "fourier", broken)
    code, rep, err = run_json(capsys, "fourier", "Z2")
    assert code == 5
    assert err == ""
    assert rep["subcommand"] == "fourier"
    assert rep["results"] == {}
    return rep["violations"]


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    assert _handler_raising(capsys, monkeypatch, RuntimeError("handler fell over")) == [
        {"type": "internal", "message": "RuntimeError: handler fell over"}]


@pytest.mark.parametrize("exc, message", [
    (KeyError("box"), "KeyError: 'box'"),
    (TypeError("'float' object is not subscriptable"),
     "TypeError: 'float' object is not subscriptable"),
])
def test_key_and_type_errors_from_a_handler_are_internal_errors(capsys, monkeypatch, exc,
                                                                 message):
    """Only a ValueError is an input error; a KeyError or TypeError escaping
    a handler is a program bug."""
    assert _handler_raising(capsys, monkeypatch, exc) == [{"type": "internal",
                                                           "message": message}]


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


def test_envelope_without_variables_is_an_input_error(capsys, tmp_path):
    doc = {"m": 0, "generators": ["(const 1)"], "box": [], "grid": 11}
    code, out, err = run(capsys, "envelope", _write(tmp_path, "m0.json", doc))
    assert (code, out) == (2, "")
    assert "the box needs at least one axis (m >= 1)" in err


@pytest.mark.parametrize("field, value, message", [
    ("options", {"tol_sp": 1e-3}, "unknown envelope option 'tol_sp'"),
    ("grid", 11.7, "grid must be an integer, not 11.7"),
    ("grid", True, "grid must be an integer, not True"),
    ("options", {"jet_order": 1.5}, "jet_order must be an integer, not 1.5"),
    ("options", {"jet_order": False}, "jet_order must be an integer, not False"),
    ("options", {"jet_order": 2, "jet_wordlen": "x"}, "jet_wordlen must be an integer, not 'x'"),
    ("options", {"jet_order": -1}, "jet_order must be >= 0, not -1"),
    ("options", {"jet_order": 1, "jet_wordlen": 0}, "options.jet_wordlen must be >= 1, not 0"),
    ("options", {"jet_order": 10 ** 400}, "options.jet_order is beyond the 64-bit integer range"),
    ("options", {"tol_sep": "0.5"}, "options.tol_sep must be a number, not '0.5'"),
    ("options", {"tol_sep": True}, "options.tol_sep must be a number, not True"),
    ("options", {"tol_rank": 10 ** 400}, "options.tol_rank must be finite and non-negative"),
    ("options", [["tol_sep", 0.5]], "options must be an object, not [['tol_sep', 0.5]]"),
    ("options", None, "options must be an object, not None"),
    ("box", [[True, 2]], "box must be a non-empty list of equal non-empty rows of numbers"),
    ("box", [["0", "1"]], "box must be a non-empty list of equal non-empty rows of numbers"),
    ("box", [[[0, 0], [1, 0]]], "box must be a non-empty list of equal non-empty rows of numbers"),
    ("box", [[-1.0, 1.0], [0, 1]], "box must list 1 intervals"),
    ("generators", [], "generators must be a non-empty list, not []"),
    ("generators", ["(var 1)"], "generators[0]: variable x1 outside dimension 1"),
])
def test_envelope_bad_sizes_and_options_are_input_errors(capsys, tmp_path, field, value, message):
    doc = {"m": 1, "generators": ["(var 0)"], "box": [[-1.0, 1.0]], "grid": 11}
    doc[field] = value
    code, out, err = run(capsys, "envelope", _write(tmp_path, "opt.json", doc))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("value", [1.7, True, "1"])
def test_envelope_m_must_be_an_integer(capsys, tmp_path, value):
    doc = {"m": value, "generators": ["(var 0)"], "box": [[-1.0, 1.0]], "grid": 11}
    code, out, err = run(capsys, "envelope", _write(tmp_path, "m.json", doc))
    assert (code, out) == (2, "")
    assert f"m must be an integer, not {value!r}" in err


@pytest.mark.parametrize("generator", [1.5, None, ["(var 0)"]])
def test_envelope_generator_that_is_not_a_string_is_an_input_error(capsys, tmp_path,
                                                                   generator):
    doc = {"m": 1, "generators": [generator], "box": [[-1.0, 1.0]], "grid": 11}
    code, out, err = run(capsys, "envelope", _write(tmp_path, "gen.json", doc))
    assert (code, out) == (2, "")
    assert f"a generator must be an expression string, not {generator!r}" in err


@pytest.mark.parametrize("m, point", [(1, [0.5, 0.5]), (2, [0.5]), (1, [float("nan")])])
def test_envelope_jet_points_of_the_wrong_shape_are_input_errors(capsys, tmp_path, m, point):
    doc = {"m": m, "generators": [f"(var {i})" for i in range(m)],
           "box": [[-1.0, 1.0]] * m, "grid": 5,
           "options": {"jet_order": 2, "jet_points": [point]}}
    code, out, err = run(capsys, "envelope", _write(tmp_path, "pts.json", doc))
    assert (code, out) == (2, "")
    assert f"each of jet_points must be a list of {m} finite numbers" in err


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


def test_envelope_does_not_compute_a_structural_zero(capsys, tmp_path):
    # the second generator is the constant exp(-inf) = 0, with an overflowed
    # subexpression: its derivative is identically zero and never computed,
    # so no 0 * inf makes it NaN, and x alone separates with rank 1
    doc = {"m": 1, "generators": ["(var 0)", "(exp (* (const -1) (exp (exp (const 1000)))))"],
           "box": [[0, 1]], "grid": 11}
    code, rep, err = run_json(capsys, "envelope", _write(tmp_path, "zero.json", doc))
    assert (code, err) == (0, "")
    assert rep["violations"] == []
    assert rep["results"]["status"] == "PASS"


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


NAN, INF = float("nan"), float("inf")
_SCALAR_OPS = [{"index": [0], "matrix": [[1.0, 0.0]]}]


def _scalar_dersys(entry):
    return {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
            "ops": _SCALAR_OPS + [{"index": [1], "matrix": [[0.0, entry]]}]}


@pytest.mark.parametrize("subcommand, doc, field", [
    ("dersys-verify", _scalar_dersys(NAN), "ops matrix"),
    ("difforder", {"source": "func:2", "operator": [[0, 1], [0, 0]],
                   "action": [[1, 0], [0, NAN]]}, "action"),
    ("difforder", {"source": "func:2", "operator": [[0, 1], [0, INF]]}, "operator"),
    ("difforder", {"source": "func:2", "operator": [[0, 1], [0, 0]],
                   "generators": [[1, NAN]]}, "generators"),
    ("ztower", {"source": "func:2", "target": "func:2", "phi": [[1, 0], [0, INF]]}, "phi"),
    ("tangent", {"algebra": "poly:1:2", "character": [1, NAN, 0]}, "character"),
    ("tangent", {"algebra": "poly:1:2", "point": [NAN]}, "point"),
    ("dauns-hofmann", {"algebra": "func:2", "central": [[1, 1], [1, -INF]]}, "central"),
])
def test_non_finite_matrix_and_vector_fields_are_input_errors(capsys, tmp_path,
                                                              subcommand, doc, field):
    code, out, err = run(capsys, subcommand, _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: {field} has an entry that is not finite\n"


def test_dersys_operators_whose_bound_overflows_are_a_numeric_error(capsys, tmp_path):
    code, rep, err = run_json(capsys, "dersys-verify",
                              _write(tmp_path, "huge.json", _scalar_dersys(1e200)))
    assert (code, err) == (4, "")
    assert rep["violations"] == [{
        "type": "numeric",
        "message": "the residual bound for operators of size 1e+200 is not finite"}]


_ZTOWER = {"source": "func:2", "target": "func:2", "phi": [[1, 0], [0, 1]]}
_DIFFORDER = {"source": "func:2", "operator": [[0, 1], [0, 0]]}


@pytest.mark.parametrize("subcommand, doc, message", [
    ("algebra-check", {"dim": 1, "structure": "x", "involution": [[[1, 0]]],
                       "unit": [[1, 0]]},
     "structure must be 3-fold nested lists of [re, im] number pairs, 1 at each level"),
    ("algebra-check", {"dim": 1, "structure": [[[1, 0]]], "involution": [[[1, 0]]],
                       "unit": [[1, 0]]},
     "structure must be 3-fold nested lists of [re, im] number pairs, 1 at each level"),
    ("algebra-check", {"dim": 2, "structure": [[[[1, 0]] * 2] * 2] * 2,
                       "involution": [[[1, 0], [0, 0]], [[0, 0]]], "unit": [[1, 0], [0, 0]]},
     "involution must be 2-fold nested lists of [re, im] number pairs, 2 at each level"),
    ("algebra-check", {"dim": 1, "structure": [[[[1, 0]]]], "involution": [[[1, 0]]],
                       "unit": [["1", 0]]},
     "unit must be 1-fold nested lists of [re, im] number pairs, 1 at each level"),
    ("algebra-check", {"name": 5}, "algebra name must be a string, not 5"),
    ("ztower", {**_ZTOWER, "depth": 2.5}, "depth must be an integer, not 2.5"),
    ("difforder", {**_DIFFORDER, "max_order": 2.5}, "max_order must be an integer, not 2.5"),
    ("difforder", {**_DIFFORDER, "max_order": None}, "max_order must be an integer, not None"),
    ("dersys-verify", {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
                       "ops": [{"index": [0.7], "matrix": [[1, 0]]}]},
     "index entry must be an integer, not 0.7"),
    ("jet", {"m": 1, "order": 1, "point": [0.5], "f": [{"index": [0.7], "coeff": 1.0}]},
     "index entry must be an integer, not 0.7"),
    ("ztower", {**_ZTOWER, "enforce": "false"}, "enforce must be true or false, not 'false'"),
    ("tangent", {"algebra": "poly:1:2", "point": [0.0], "real": "no"},
     "real must be true or false, not 'no'"),
    ("ztower", {**_ZTOWER, "depth": 0}, "depth must be >= 2, not 0"),
    ("ztower", {**_ZTOWER, "depth": 1}, "depth must be >= 2, not 1"),
    ("ztower", {**_ZTOWER, "phi": [[1, 0]]}, "phi has shape (1, 2), expected (2, 2)"),
    ("difforder", {**_DIFFORDER, "max_order": -1}, "max_order must be >= 0, not -1"),
    ("difforder", {**_DIFFORDER, "generators": [[1, 0, 0]]},
     "generators has shape (1, 3), expected (n, 2)"),
    ("difforder", {"operator": [[0, 1], [0, 0]]}, "source is missing"),
    ("difforder", {**_DIFFORDER, "source": "matrix:x"},
     "source: bad algebra name 'matrix:x': size 'x' is not an integer"),
    ("difforder", {**_DIFFORDER, "source": {"name": 2}}, "source.name must be a string, not 2"),
    ("algebra-check", {"dim": 1.5, "structure": [[[[1, 0]]]], "involution": [[[1, 0]]],
                       "unit": [[1, 0]]}, "dim must be an integer, not 1.5"),
    ("algebra-check", {"dim": 1, "structure": [[[[1, 0]]]], "involution": [[[1, 0]]],
                       "unit": [[1, 0]], "labels": [3]},
     "labels must be null or a list of 1 strings, not [3]"),
    ("dauns-hofmann", {"algebra": {"dim": 1, "involution": [[[1, 0]]], "unit": [[1, 0]]}},
     "algebra.structure is missing"),
    ("dersys-verify", {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
                       "ops": [{"index": [0], "matrix": [[1, 0]]}, {"matrix": [[0, 1]]}]},
     "ops[1].index is missing"),
    ("dersys-verify", {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
                       "ops": [{"index": [2], "matrix": [[0, 1]]}]},
     "operator index (2,) is outside the indices of order N=1 in m=1 variables"),
    ("dersys-verify", {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
                       "ops": [{"index": [True], "matrix": [[0, 1]]}]},
     "index entry must be an integer, not True"),
    ("dersys-verify", {"m": 1, "N": 1, "source": "poly:1:1", "target": "func:1",
                       "ops": [1.5]}, "ops[0] must be an object, not 1.5"),
    ("jet", {"m": 1, "order": 1, "point": [0.5], "f": [{"index": [1]}]}, "f[0].coeff is missing"),
    ("jet", {"m": 1, "order": 1, "point": [0.5], "f": [{"index": [-1], "coeff": 1.0}]},
     "index entry must be >= 0, not -1"),
    ("jet", {"m": 1, "order": 1, "point": [0.5],
             "f": [{"index": [1], "coeff": 1.0}, {"index": [0, 1], "coeff": 1.0}]},
     "each index must be a list of integers, all of one length"),
    ("jet", {"m": 2, "order": 1, "point": [0.5, 0.5], "f": [{"index": [1], "coeff": 1.0}]},
     "index [1] does not have 2 entries"),
    ("jet", [1, 2], "the document must be an object, not [1, 2]"),
    ("fourier", {"group": 8}, "group must be a string, not 8"),
    ("ztower", {**_ZTOWER, "depth": 258}, "depth must be <= 257, not 258"),
    ("ztower", {**_ZTOWER, "depth": 2 ** 40}, f"depth must be <= 257, not {2 ** 40}"),
])
def test_malformed_fields_are_input_errors(capsys, tmp_path, subcommand, doc, message):
    code, out, err = run(capsys, subcommand, _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: {message}\n"


def test_integral_depth_and_index_entries_still_read(capsys, tmp_path):
    code, rep, _ = run_json(capsys, "ztower",
                            _write(tmp_path, "z.json", {**_ZTOWER, "depth": 3.0,
                                                        "enforce": True}))
    assert code == 0
    assert len(rep["results"]["dims"]) == 4
    doc = {"m": 2, "order": 1, "point": [0.5, 0.25],
           "f": [{"index": [1, 0], "coeff": 2.0}, {"index": [0, 2], "coeff": 1.0},
                 {"index": [1, 0], "coeff": 0.5}]}
    _, want, _ = run(capsys, "jet", _write(tmp_path, "a.json", doc))
    doc["f"][1]["index"] = [0.0, 2.0]
    code, got, _ = run(capsys, "jet", _write(tmp_path, "b.json", doc))
    assert code == 0
    assert json.loads(got)["results"] == json.loads(want)["results"]
    # repeated indices add up, in the order given
    assert json.loads(got)["results"]["jet"][0] == [2.5 * 0.5 + 0.25 ** 2, 0.0]


def test_an_oversized_group_is_refused_before_its_tables(capsys):
    tracemalloc.start()
    try:
        code, rep, err = run_json(capsys, "fourier", "Z99999999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (3, "")
    assert rep["violations"] == [{
        "type": "domain",
        "message": "group order 99999999999 exceeds the supported bound 4096"}]
    assert peak < 2 ** 20


_ONE = {"dim": 1, "structure": [[[[1.0, 0.0]]]], "involution": [[[1.0, 0.0]]],
        "unit": [[1.0, 0.0]]}


_SERIAL = "dim, structure, involution, unit, labels"


@pytest.mark.parametrize("subcommand, doc, key, fields", [
    ("algebra-check", {**_ONE, "lables": None}, "lables", _SERIAL),
    ("algebra-check", {"name": "func:2", "nmae": "x"}, "nmae", "name"),
    ("dersys-verify", {**_scalar_dersys(0.0), "tol": 1e-3}, "tol",
     "m, N, source, target, ops"),
    ("dersys-verify", {**_scalar_dersys(0.0), "target": {"name": "func:1", "dim": 1}},
     "target.dim", "name"),
    ("dersys-verify", {"m": 1, "N": 0, "source": "poly:1:1", "target": "func:1",
                       "ops": [{"index": [0], "matrix": [[1, 0]], "coef": 1}]},
     "ops[0].coef", "index, matrix"),
    ("difforder", {**_DIFFORDER, "max_ordr": 1}, "max_ordr",
     "source, target, operator, action, generators, max_order"),
    ("difforder", {**_DIFFORDER, "source": {**_ONE, "unit_": 1}, "operator": [[1]]},
     "source.unit_", _SERIAL),
    ("ztower", {**_ZTOWER, "dpeth": 300}, "dpeth", "source, target, phi, depth, enforce"),
    ("jet", {"m": 1, "order": 1, "point": [0.5], "f": [], "degre": 4}, "degre",
     "m, order, point, f, degree"),
    ("jet", {"m": 1, "order": 1, "point": [0.5],
             "f": [{"index": [1], "coeff": 1.0}, {"index": [0], "coeff": 1.0, "c": 2}]},
     "f[1].c", "index, coeff"),
    ("tangent", {"algebra": "poly:1:2", "point": [0.0], "rael": True}, "rael",
     "algebra, character, point, real"),
    ("envelope", {"m": 1, "generators": ["(var 0)"], "box": [[0, 1]], "grid": 5,
                  "option": {}}, "option", "m, generators, box, grid, options"),
    ("dauns-hofmann", {"algebra": "func:2", "centre": [[1, 1]]}, "centre",
     "algebra, central"),
    ("fourier", {"group": "Z2", "seed": 3}, "seed", "group"),
])
def test_unknown_fields_are_input_errors(capsys, tmp_path, subcommand, doc, key, fields):
    """A misspelled optional field is refused, not read as its default."""
    code, out, err = run(capsys, subcommand, _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: unknown field {key!r}; the fields are {fields}\n"


@pytest.mark.parametrize("field, value", [
    ("structure", [[[[True, 0.0]]]]),
    ("involution", [[[1.0, False]]]),
    ("unit", [[True, 0.0]]),
])
def test_serialized_booleans_are_input_errors(capsys, tmp_path, field, value):
    """A JSON boolean is not a number, also among floats of a [re, im] pair."""
    code, out, err = run(capsys, "algebra-check",
                         _write(tmp_path, "doc.json", {**_ONE, field: value}))
    assert (code, out) == (2, "")
    folds = {"structure": 3, "involution": 2, "unit": 1}[field]
    assert err == (f"diffalg: parse error: {field} must be {folds}-fold nested lists "
                   "of [re, im] number pairs, 1 at each level\n")


@pytest.mark.parametrize("subcommand, doc, field", [
    ("dersys-verify", _scalar_dersys(True), "ops matrix"),
    ("difforder", {"source": "func:2", "operator": [[0, 1], [0, 0]],
                   "action": [[1, 0], [0, [1, False]]]}, "action"),
    ("difforder", {"source": "func:2", "operator": [[0, 1], [0]]}, "operator"),
    ("ztower", {"source": "func:2", "target": "func:2", "phi": [[1, 0], [0, "1"]]}, "phi"),
    ("tangent", {"algebra": "poly:1:2", "character": [1, None, 0]}, "character"),
    ("dauns-hofmann", {"algebra": "func:2", "central": [[1, 1], []]}, "central"),
    ("jet", {"m": 1, "order": 1, "point": [True], "f": []}, "point"),
    ("jet", {"m": 1, "order": 1, "point": [0.5],
             "f": [{"index": [1], "coeff": [1.0, True]}]}, "coeff"),
])
def test_malformed_numeric_fields_name_the_field(capsys, tmp_path, subcommand, doc, field):
    code, out, err = run(capsys, subcommand, _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"diffalg: parse error: {field} must be a non-empty list of ")


def test_numbers_and_pairs_mix_in_one_row(capsys, tmp_path):
    """A number x stands for the pair [x, 0], in any mix within a row."""
    mixed = {"source": "func:2", "target": "func:2", "phi": [[1, [0.0, 0.0]], [[0, 0], 1.0]]}
    plain = {**mixed, "phi": [[1, 0], [0, 1]]}
    code, rep, _ = run_json(capsys, "ztower", _write(tmp_path, "mixed.json", mixed))
    assert code == 0
    want = run_json(capsys, "ztower", _write(tmp_path, "plain.json", plain))[1]
    assert rep["results"] == want["results"]


def test_a_closed_stdout_keeps_the_exit_code_and_prints_nothing(tmp_path):
    """A report larger than the pipe buffer, whose reader reads one byte and
    closes the pipe: the request still exits 3 (FAIL), with empty stderr."""
    import os
    import subprocess
    import sys

    from diffalg import cli

    doc = {"m": 1, "generators": ["(const 1)"], "box": [[0, 1]], "grid": 101}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "diffalg.cli", "envelope",
                             _write(tmp_path, "big.json", doc)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 3
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("doc, message", [
    ({"m": 2, "order": 1, "point": [0.5, 0.5], "degree": 2,
      "f": [{"index": [1, 0], "coeff": 1.0}, {"index": [2, 1], "coeff": 1.0}]},
     "polynomial degree 3 exceeds the bound 2"),
    ({"m": 2, "order": 1, "point": [0.5, 0.5],
      "f": [{"index": [1, 0, 0], "coeff": 1.0}, {"index": [0, 0, 0], "coeff": 1.0}]},
     "index [1, 0, 0] does not have 2 entries"),
])
def test_jet_refuses_its_indices_through_the_table(capsys, tmp_path, doc, message):
    code, out, err = run(capsys, "jet", _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == f"diffalg: parse error: {message}\n"


def test_jet_sums_repeated_indices_in_graded_rows(capsys, tmp_path):
    # (x + 2 y + 3 x) at (0.5, 0.5): repeated indices add, as np.add.at does
    doc = {"m": 2, "order": 1, "point": [0.5, 0.5],
           "f": [{"index": [1, 0], "coeff": 1.0}, {"index": [0, 1], "coeff": 2.0},
                 {"index": [1, 0], "coeff": 3.0}]}
    code, rep, _ = run_json(capsys, "jet", _write(tmp_path, "doc.json", doc))
    assert code == 0
    assert rep["results"]["jet"][:3] == [[3.0, 0.0], [4.0, 0.0], [2.0, 0.0]]
