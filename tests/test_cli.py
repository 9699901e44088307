"""Command-line interface: exit codes, report schema, determinism."""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

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
     f"separation check has {1449 * 1448} candidate pairs; at most {2 ** 20}"),
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
