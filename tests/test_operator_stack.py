"""Derivative systems as one operator stack.

A system keeps D_k at the row of k in its monomial table's graded order,
so packing into the series algebra is a division by the factorials and a
reshape, and unpacking is the inverse. The references below are the
per-index loops those reshapes replace, and the tuple walk that
`derivative_matrix` replaced; both must agree bit for bit. Counting hooks
pin that a valid `dersys-verify` builds the system's table once and shares
it with the series algebra.
"""
from __future__ import annotations

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from diffalg import (DerivativeSystem, DomainError, LinearOp, NumericError,
                     SeriesStructureAlgebra, StructureAlgebra, algebra_from_name, cli,
                     from_homomorphism, function_algebra, series_algebra, taylor_system,
                     truncated_poly, verify_system)
from diffalg.dersys import _pack
from diffalg.diffcalc import derivative_matrix
from diffalg.multiindex import MonomialTable

from test_monomial_table import BASES, _u_power_system


def ref_pack_matrix(sys):
    """The packed matrix as the per-index loop built it."""
    ser = series_algebra(sys.target, sys.mvars, sys.order)
    db = sys.target.dim
    h = np.zeros((ser.dim, sys.source.dim), dtype=complex)
    for p, k in enumerate(ser.exponents):
        h[p * db:(p + 1) * db, :] = sys.op_matrix(k) / math.prod(map(math.factorial, k))
    return h


def ref_unpack_ops(h):
    """The operators of a packed map as the per-index loop read them."""
    ser = h.target
    db = ser.base.dim
    ops = {}
    for p, k in enumerate(ser.exponents):
        block = h.matrix[p * db:(p + 1) * db, :]
        if np.any(block):
            ops[k] = math.prod(map(math.factorial, k)) * block
    return ops


def ref_derivative_matrix(source, target, i):
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    for alpha, j in source.exp_index.items():
        if alpha[i] >= 1:
            down = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            if sum(down) <= target.degree:
                mat[target.exp_index[down], j] = alpha[i]
    return mat


def _random_system(m, n, seed):
    """Operators with no law behind them, spread over many magnitudes."""
    rng = np.random.default_rng(seed)
    source, target = truncated_poly(1, 2), algebra_from_name(BASES[seed % len(BASES)])
    ops = {}
    for k in MonomialTable(m, n).exponents:
        if rng.random() < 0.8:
            shape = (target.dim, source.dim)
            ops[k] = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                      * 10.0 ** rng.integers(-8, 9, size=shape))
    return DerivativeSystem(source, target, m, n, ops)


def _systems():
    out = []
    for m, n in [(1, 0), (1, 3), (2, 2), (2, 3), (3, 2)]:
        out.append(("taylor", taylor_system(m, n, np.linspace(-0.7, 0.9, m), n + 1)))
        out.append(("u-power", _u_power_system(algebra_from_name(BASES[(m + n) % 3]),
                                               m, n, seed=10 * m + n)))
        out.append(("random", _random_system(m, n, seed=10 * m + n)))
    return out


SYSTEMS = _systems()
IDS = [f"{kind}-m{sys.mvars}N{sys.order}" for kind, sys in SYSTEMS]
# random operators pass the packed map's homomorphism check only at a
# tolerance that passes any map of their size
LOOSE = 1e250


@pytest.mark.parametrize("kind, sys", SYSTEMS, ids=IDS)
def test_pack_is_the_per_index_loop(kind, sys):
    tol = LOOSE if kind == "random" else 1e-9
    h = _pack(sys, tol)
    assert np.array_equal(h.matrix, ref_pack_matrix(sys))
    assert h.target.table is sys.table


@pytest.mark.parametrize("kind, sys", SYSTEMS, ids=IDS)
def test_from_homomorphism_is_the_per_index_loop(kind, sys):
    tol = LOOSE if kind == "random" else 1e-9
    h = LinearOp(ref_pack_matrix(sys), sys.source,
                 series_algebra(sys.target, sys.mvars, sys.order))
    back = from_homomorphism(h, tol)
    want = DerivativeSystem(sys.source, sys.target, sys.mvars, sys.order, ref_unpack_ops(h))
    assert np.array_equal(back.stack, want.stack)


@pytest.mark.parametrize("kind, sys", SYSTEMS, ids=IDS)
def test_ops_round_trip(kind, sys):
    again = DerivativeSystem(sys.source, sys.target, sys.mvars, sys.order, sys.ops)
    assert again.isclose(sys, 0.0)
    assert list(sys.ops) == sys.indices
    assert "ops" not in vars(sys)


@pytest.mark.parametrize("kind, sys", SYSTEMS, ids=IDS)
def test_a_stack_in_table_order_is_the_same_system(kind, sys):
    rows = sys.stack.copy()
    again = DerivativeSystem(sys.source, sys.target, sys.mvars, sys.order, rows)
    assert again.isclose(sys, 0.0)
    rows[0] += 1.0
    assert again.isclose(sys, 0.0)


def test_a_stack_of_the_wrong_shape_is_refused():
    sys = taylor_system(2, 2, [0.5, -0.25])
    with pytest.raises(ValueError, match="operator stack has shape"):
        DerivativeSystem(sys.source, sys.target, 2, 1, sys.stack)


def test_ops_is_read_only():
    sys = taylor_system(2, 2, [0.5, -0.25])
    before = sys.stack.copy()
    with pytest.raises(TypeError):
        sys.ops[(1, 0)] = np.zeros((1, 6))
    with pytest.raises(ValueError, match="read-only"):
        sys.ops[(1, 0)][0, 0] = 7.0
    assert np.array_equal(sys.stack, before)
    sys.stack[1, 0, 0] = 7.0
    assert sys.ops[(1, 0)][0, 0] == 7.0


def test_stack_rows_follow_the_table():
    sys = taylor_system(2, 2, [0.5, -0.25])
    assert sys.stack.shape == (6, 1, 6)
    for r, k in enumerate(sys.indices):
        assert sys.table.exp_index[k] == r
        assert np.array_equal(sys.op_matrix(k), sys.stack[r])
    for k in ((3, 0), (0, 0, 0), (-1, 1)):
        with pytest.raises(ValueError, match="outside the indices of order N=2 in m=2"):
            sys.op_matrix(k)


def test_missing_operators_are_zero_rows():
    sys = DerivativeSystem(truncated_poly(1, 1), function_algebra(1), 1, 2,
                           {(0,): [[1.0, 0.0]]})
    assert np.array_equal(sys.stack[1:], np.zeros((2, 1, 2)))
    assert sys.scale() == 1.0


def test_a_valid_dersys_request_builds_one_system_table(monkeypatch, tmp_path, capsys):
    built = Counter()
    init = MonomialTable.__init__

    def counted(self, mvars, degree):
        built[mvars, degree] += 1
        init(self, mvars, degree)

    monkeypatch.setattr(MonomialTable, "__init__", counted)
    sys_ = taylor_system(2, 2, [0.5, -0.25], degree=3)
    doc = {"m": 2, "N": 2, "source": "poly:2:3", "target": "func:1",
           "ops": [{"index": list(k), "matrix": sys_.op_matrix(k).real.tolist()}
                   for k in sys_.indices]}
    path = tmp_path / "dsys.json"
    path.write_text(json.dumps(doc))
    built.clear()
    assert cli.main(["dersys-verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["packs_to_homomorphism"]
    # the source algebra's table, and one for the system and its series
    assert built == {(2, 3): 1, (2, 2): 1}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 4])
def test_derivative_matrix_is_the_tuple_loop(m, degree):
    source = truncated_poly(m, degree)
    for target_degree in sorted({max(degree - 1, 0), degree, degree + 2}):
        target = truncated_poly(m, target_degree)
        for i in range(m):
            assert np.array_equal(derivative_matrix(source, target, i),
                                  ref_derivative_matrix(source, target, i))


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_derivative_matrix_refuses_a_variable_outside_the_algebra(i):
    p = truncated_poly(2, 3)
    with pytest.raises(ValueError, match="variable index"):
        derivative_matrix(p, p, i)


def _scalar_system(entry):
    return DerivativeSystem(truncated_poly(1, 1), function_algebra(1), 1, 1,
                            {(0,): [[1.0, 0.0]], (1,): [[0.0, entry]]})


def test_a_nan_residual_fails_verification():
    p = truncated_poly(1, 1)
    source = StructureAlgebra(p.structure, p.involution, [1.0, float("nan")], check=False)
    sys = DerivativeSystem(source, function_algebra(1), 1, 1,
                           {(0,): [[1.0, 0.0]], (1,): [[0.0, 1.0]]})
    report = verify_system(sys)
    assert [(v["axiom"], v["index"]) for v in report.violations] == [("unit", (0,)), ("unit", (1,))]


def test_a_nan_map_is_not_a_homomorphism():
    h = LinearOp([[1.0, 0.0], [0.0, float("nan")]], truncated_poly(1, 1),
                 series_algebra(function_algebra(1), 1, 1))
    assert len(h.hom_violations()) == 3


def test_an_overflowing_bound_is_a_numeric_error():
    with pytest.raises(NumericError, match="not finite"):
        verify_system(_scalar_system(float("nan")))
    sys = _scalar_system(1e200)
    with pytest.raises(NumericError, match="not finite"):
        verify_system(sys)
    with pytest.raises(NumericError, match="not finite"):
        _pack(sys, 1e-9)
    h = LinearOp([[1.0, 0.0], [0.0, 1e200]], sys.source,
                 series_algebra(sys.target, 1, 1))
    with pytest.raises(NumericError, match="not finite"):
        from_homomorphism(h)


def test_a_series_algebra_is_refused_before_its_tensor():
    table = MonomialTable(3, 4)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds 256"):
            SeriesStructureAlgebra(algebra_from_name("matrix:3"), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
