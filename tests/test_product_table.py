"""Named algebras keep their product table, and each check that reads it
gives what the dense structure tensor gives, to the last bit.

Every named algebra is a semigroup algebra: e_i e_j is one basis element or
0, so it keeps its (d, d) table (-1 for 0) and its star permutation, and the
tensor is built on first use. Each table route (commutativity, the
multiplication matrices on single vectors and on stacks, the axioms, both
sides of the law kernel, the Rayleigh tuples, the trace-form gram and the
characters) is compared with its dense twin, StructureAlgebra(alg.structure,
alg.involution, alg.unit), which takes the tensor routes: array_equal, no
tolerance. The dense routes themselves stay covered by the unitarily
conjugated algebras here and in tests/test_basis_change.py, which have no
table. Requests on named algebras build no tensor, and no module but
algebra.py reads one.
"""
from __future__ import annotations

import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
import report_digests as rd
from test_basis_change import change_basis, unitary

from diffalg import (PolyAlgebra, SeriesStructureAlgebra, StructureAlgebra, Subspace,
                     algebra_from_name, characters, cli, cusp_algebra, direct_sum,
                     function_algebra, group_algebra, matrix_algebra, quotient, series_algebra,
                     subalgebra, truncated_poly)
from diffalg import algebra
from diffalg.algebra import (_DERIVATION_RUNS, _SCALARS, _law_residuals, _rayleigh_tuples,
                             _self_runs)


def _named():
    out = {f"matrix:{n}": matrix_algebra(n) for n in range(1, 7)}
    out.update({f"func:{n}": function_algebra(n) for n in range(1, 9)})
    out.update({f"group:{'x'.join(map(str, f))}": group_algebra(f)
                for f in ([8, 8], [4, 4, 2], [16], [1])})
    out.update({f"poly:{m}:{n}": truncated_poly(m, n) for m, n in ((1, 4), (2, 3), (3, 2))})
    out["cusp"] = cusp_algebra()
    out["matrix:2+func:3"] = direct_sum(matrix_algebra(2), function_algebra(3))
    out["poly:2:2+cusp"] = direct_sum(truncated_poly(2, 2), cusp_algebra())
    out["group:4+matrix:2+poly:1:3"] = direct_sum(
        direct_sum(group_algebra([4]), matrix_algebra(2)), truncated_poly(1, 3))
    return out


NAMED = _named()
COMMUTATIVE = [name for name in NAMED if "matrix" not in name]


def twin(alg: StructureAlgebra) -> StructureAlgebra:
    dense = StructureAlgebra(alg.structure, alg.involution, alg.unit, check=False)
    assert alg._product.table is not None and dense._product.table is None
    return dense


def table_algebra(t, star, unit) -> StructureAlgebra:
    """The semigroup algebra with product table t, star permutation star and
    unit the sum of the e_i at the indices unit, axioms unchecked."""
    u = np.zeros(len(star), dtype=complex)
    u[unit] = 1.0
    return StructureAlgebra.__new__(StructureAlgebra)._set(algebra._Product(t, star), u)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("name", NAMED)
def test_named_algebras_keep_their_table_and_build_the_tensor_on_first_use(name):
    alg = NAMED[name]
    assert type(alg) is StructureAlgebra or name.startswith("poly:")
    assert alg._product.table.shape == (alg.dim, alg.dim)
    assert (alg.involution[alg._product.star, np.arange(alg.dim)] == 1).all()
    c = alg.structure
    assert c.shape == (alg.dim,) * 3 and alg.structure is c


SHAPES = [(), (1,), (5,), (2, 3)]


def _stacks_agree(alg, other, a):
    """Both sides of alg on the stack a: the stack shape, other's stack to
    the last bit, and alg's own per-vector calls to the last bit."""
    d = alg.dim
    for side in ("left_mul_matrix", "right_mul_matrix"):
        got = getattr(alg, side)(a)
        assert got.shape == a.shape + (d,)
        assert np.array_equal(got, getattr(other, side)(a))
        single = getattr(alg, side)
        for p, v in enumerate(a.reshape(-1, d)):
            assert np.array_equal(got.reshape(-1, d, d)[p], single(v))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", NAMED)
def test_stacks_of_multiplication_matrices(name, shape):
    alg = NAMED[name]
    _stacks_agree(alg, twin(alg), _complex(np.random.default_rng(len(name)), *shape, alg.dim))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", ["matrix:3", "poly:2:3", "func:8"])
def test_dense_stacks_against_per_vector_calls(name, shape):
    """A conjugated algebra has no table. Its right stack is one GEMV per
    vector and basis index, so it equals per-vector calls to the last bit.
    Its left stack is the contraction a @ c.reshape(d, d * d) of the whole
    stack: a single vector is one GEMV, a longer stack one GEMM, which BLAS
    may round differently from a GEMV per vector."""
    d = NAMED[name].dim
    conj = change_basis(NAMED[name], unitary(0, d))
    a = _complex(np.random.default_rng(1), *shape, d)
    left, right = conj.left_mul_matrix(a), conj.right_mul_matrix(a)
    assert left.shape == right.shape == shape + (d, d)
    gemm = (a @ conj.structure.reshape(d, d * d)).reshape(*shape, d, d)
    assert np.array_equal(left, np.swapaxes(gemm, -1, -2))
    left, right = left.reshape(-1, d, d), right.reshape(-1, d, d)
    for p, v in enumerate(a.reshape(-1, d)):
        assert np.array_equal(right[p], conj.right_mul_matrix(v))
        single = conj.left_mul_matrix(v)
        if shape in ((), (1,)):
            assert np.array_equal(left[p], single)
        else:
            np.testing.assert_allclose(left[p], single, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", NAMED)
def test_commutativity_and_multiplication_matrices(name):
    alg = NAMED[name]
    dense = twin(alg)
    for tol in (0.0, 1e-9, 0.5, 1.0, 2.0, np.nan):
        assert alg.is_commutative(tol) is dense.is_commutative(tol)
    rng = np.random.default_rng(len(name))
    for a in (*_complex(rng, 3, alg.dim), alg.unit, np.eye(alg.dim)[-1]):
        assert np.array_equal(alg.left_mul_matrix(a), dense.left_mul_matrix(a))
        assert np.array_equal(alg.right_mul_matrix(a), dense.right_mul_matrix(a))


def _targets(alg):
    return {"scalars": _SCALARS, "matrix:2": matrix_algebra(2), "itself": alg}


@pytest.mark.parametrize("name", NAMED)
def test_law_residuals_read_the_same_left_sides(name):
    alg = NAMED[name]
    dense = twin(alg)
    rng = np.random.default_rng(3 + len(name))
    for label, target in _targets(alg).items():
        for n, runs in ((3, _self_runs(3)), (2, _DERIVATION_RUNS), (2, ())):
            ops = _complex(rng, n, target.dim, alg.dim)
            if label == "itself":  # an exact homomorphism among the rows
                ops[0] = np.eye(alg.dim)
            for bound in (None, 0.0, 1.0, 10.0):
                got = _law_residuals(alg, target, ops, runs, bound)
                _same(got, _law_residuals(dense, target, ops, runs, bound))
                # the right sides: the target's scatter against its tensor
                _same(got, _law_residuals(dense, twin(target), ops, runs, bound))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["matrix:3", "func:4", "group:4x4x2", "poly:2:3",
                                  "matrix:2+func:3"])
def test_non_finite_stacks_give_the_dense_witnesses(name, value):
    # a product with the tensor spreads 0 * NaN over every pair of a row, a
    # gather would not, so such stacks take the dense route on the left; the
    # right sides into a table target (its scatter) give what its dense twin
    # gives too
    alg = NAMED[name]
    dense = twin(alg)
    rng = np.random.default_rng(11)
    for target in (_SCALARS, matrix_algebra(2), NAMED["poly:2:3"], NAMED["group:4x4x2"]):
        for n, runs in ((2, _self_runs(2)), (2, _DERIVATION_RUNS)):
            ops = _complex(rng, n, target.dim, alg.dim)
            ops[1, 0, alg.dim // 2] = value
            with np.errstate(invalid="ignore"):  # inf * 0 on both routes
                got = _law_residuals(alg, target, ops, runs, 1.0)
                _same(got, _law_residuals(dense, target, ops, runs, 1.0))
                _same(got, _law_residuals(dense, twin(target), ops, runs, 1.0))


@pytest.mark.parametrize("name", NAMED)
def test_rayleigh_tuples_and_the_trace_gram(name):
    alg = NAMED[name]
    dense = twin(alg)
    vecs = _complex(np.random.default_rng(5), alg.dim, alg.dim)
    assert np.array_equal(_rayleigh_tuples(alg, vecs), _rayleigh_tuples(dense, vecs))
    gram = alg._product.trace_gram()
    assert gram.dtype == complex
    assert gram.tobytes() == dense._product.trace_gram().tobytes()


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_characters_are_the_same(name):
    alg = NAMED[name]
    got = np.array([ch.functional for ch in characters(alg)])
    want = np.array([ch.functional for ch in characters(twin(alg))])
    assert np.array_equal(got, want)


def _broken():
    """Tables that break one law each, with the algebra they come from."""
    m2, f3, z4, cusp, p22 = (matrix_algebra(2), function_algebra(3), group_algebra([4]),
                             cusp_algebra(), truncated_poly(2, 2))
    out = {}
    for label, alg in (("matrix:2", m2), ("func:3", f3), ("group:4", z4), ("cusp", cusp),
                       ("poly:2:2", p22)):
        t, star, unit = alg._product.table, alg._product.star, np.flatnonzero(alg.unit)
        d = alg.dim
        redirected = t.copy()
        redirected[d - 1, d - 1] = (t[d - 1, d - 1] + 1) % d
        zeroed = t.copy()
        zeroed[tuple(np.argwhere(t >= 0)[-1])] = -1  # the last nonzero product
        moved = unit.copy()
        moved[0] = (moved[0] + 1) % d
        out[f"{label}-redirected"] = (redirected, star, unit)
        out[f"{label}-zeroed"] = (zeroed, star, unit)
        out[f"{label}-moved-unit"] = (t, star, moved)
        if d >= 3:
            out[f"{label}-cyclic-star"] = (t, np.roll(star, 1), unit)
    # involutions that break (xy)* = y*x*: the identity on M_2, and the
    # swap of E11 and E22
    out["matrix:2-identity-star"] = (m2._product.table, np.arange(4), np.flatnonzero(m2.unit))
    out["matrix:2-swapped-star"] = (m2._product.table, np.array([3, 2, 1, 0]),
                                    np.flatnonzero(m2.unit))
    return out


BROKEN = _broken()


@pytest.mark.parametrize("name", BROKEN)
def test_broken_tables_report_the_same_violations(name):
    alg = table_algebra(*BROKEN[name])
    dense = twin(alg)
    for tol in (1e-9, 1.0):
        got = alg.axiom_violations(tol)
        assert got == dense.axiom_violations(tol)
        assert got or tol == 1.0
    assert alg.is_commutative() is dense.is_commutative()
    a = _complex(np.random.default_rng(2), alg.dim)
    assert np.array_equal(alg.left_mul_matrix(a), dense.left_mul_matrix(a))
    assert np.array_equal(alg.right_mul_matrix(a), dense.right_mul_matrix(a))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", BROKEN)
def test_stacks_on_broken_tables(name, shape):
    # a non-cancellative table adds several coordinates into one entry
    alg = table_algebra(*BROKEN[name])
    _stacks_agree(alg, twin(alg), _complex(np.random.default_rng(4), *shape, alg.dim))


@pytest.mark.parametrize("name", NAMED)
def test_named_axioms_hold_on_both_routes(name):
    alg = NAMED[name]
    assert alg.axiom_violations() == twin(alg).axiom_violations() == []


# --- series over a base, and the one setter ---------------------------------

def dense_series(base: StructureAlgebra, add):
    """The tensor and involution of the series algebra over base with the
    monomial sums add, as they were built densely over every base:
    c[p, :, q, :, add[p, q], :] = base.structure."""
    m, db = len(add), base.dim
    d = m * db
    c = np.zeros((m, db, m, db, m, db), dtype=complex)
    p, q = np.nonzero(add >= 0)
    c[p, :, q, :, add[p, q]] = base.structure
    return c.reshape(d, d, d), np.kron(np.eye(m), base.involution)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("base", ["func:1", "func:2", "matrix:2", "group:3", "poly:1:2", "cusp"])
def test_a_series_over_a_table_is_a_table_with_the_dense_tensor(tensor_builds, base, m, n):
    alg = series_algebra(algebra_from_name(base), m, n)
    assert alg._product.table is not None and tensor_builds == []
    c, inv = dense_series(alg.base, alg.table.add)
    assert alg.structure.tobytes() == c.tobytes()
    assert alg.involution.tobytes() == inv.tobytes()
    assert alg.axiom_violations() == twin(alg).axiom_violations() == []
    _stacks_agree(alg, twin(alg), _complex(np.random.default_rng(m), 2, alg.dim))


def test_a_series_over_a_tensor_keeps_the_tensor():
    base = change_basis(matrix_algebra(2), unitary(0, 4))
    alg = series_algebra(base, 2, 2)
    assert alg._product.table is None
    c, inv = dense_series(base, alg.table.add)
    assert alg.structure.tobytes() == c.tobytes()
    assert alg.involution.tobytes() == inv.tobytes()


def test_every_builder_goes_through_the_one_setter(monkeypatch):
    calls = []
    setter = StructureAlgebra._set

    def counted(self, *args):
        calls.append(type(self))
        return setter(self, *args)

    monkeypatch.setattr(StructureAlgebra, "_set", counted)
    m2, f3, poly = matrix_algebra(2), function_algebra(3), truncated_poly(1, 3)
    dense = twin(m2)
    builders = {
        "StructureAlgebra": lambda: StructureAlgebra(m2.structure, m2.involution, m2.unit),
        "from_dict": lambda: StructureAlgebra.from_dict(m2.to_dict()),
        "matrix_algebra": lambda: matrix_algebra(3),
        "function_algebra": lambda: function_algebra(2),
        "group_algebra": lambda: group_algebra([2, 3]),
        "cusp_algebra": cusp_algebra,
        "truncated_poly": lambda: truncated_poly(2, 2),
        "PolyAlgebra": lambda: PolyAlgebra(2, 1),
        "truncated": lambda: poly.truncated(2),
        "algebra_from_name": lambda: algebra_from_name("group:4"),
        "direct_sum of tables": lambda: direct_sum(m2, f3),
        "direct_sum with a tensor": lambda: direct_sum(f3, dense),
        "quotient": lambda: quotient(f3, Subspace(f3, [[1.0, 0.0, 0.0]]))[0],
        "subalgebra": lambda: subalgebra(m2, [m2.unit])[0],
        "series_algebra": lambda: series_algebra(f3, 2, 1),
        "series over a tensor": lambda: series_algebra(dense, 1, 2),
        "SeriesStructureAlgebra": lambda: SeriesStructureAlgebra(m2, poly.table),
    }
    for name, build in builders.items():
        calls.clear()
        alg = build()
        assert calls == [type(alg)], name


# --- memory and builds through the command line -------------------------

def _corpus_request(make, tmp_path, seed: int = 5) -> list[str]:
    """argv of the request a perfbench class builder makes at seed, its
    input document written under tmp_path."""
    argv, doc, _ = make(np.random.default_rng(seed))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return [str(path) if a is None else a for a in argv]


def _corpus_class(name: str):
    return next(make for classes in rd.WORKLOADS.WORKLOADS.values()
                for label, make, _ in classes if label == name)


@pytest.mark.parametrize("argv", [["fourier", "Z8xZ8"], ["algebra-check", "matrix:6"],
                                  ["algebra-check", "group:4x4x2"], "ztower-star4",
                                  "ztower-star6", "difforder-poly2-5", "difforder-poly3-3",
                                  "dersys-m1n4", "dersys-m2n3", "dersys-m3n2"],
                         ids=str)
def test_requests_on_tables_build_no_tensor(capsys, tmp_path, tensor_builds, argv):
    # a dersys-verify request packs its system into the series algebra over
    # func:1, a table over a table
    if isinstance(argv, str):  # a class of the benchmark corpora, on named algebras
        argv = _corpus_request(_corpus_class(argv), tmp_path)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert tensor_builds == []


def test_ztower_func16_to_matrix16_stays_small(capsys, tmp_path):
    # d = 256: the dense tensor of matrix:16 alone takes 256 MiB, and the
    # ad stack once took a second tensor of the same size
    argv = _corpus_request(rd.WORKLOADS._ztower_star(16), tmp_path)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["results"]["dims"] == [0, 16, 16]
    assert peak < 64 * 2 ** 20


def test_group_16x16_check_stays_small(capsys):
    # d = 256, the MAX_NAMED_DIM: the dense tensor alone takes 256 MiB
    tracemalloc.start()
    try:
        assert cli.main(["algebra-check", "group:16x16"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert '"axioms_ok": true' in capsys.readouterr().out
    assert peak < 64 * 2 ** 20


# --- the layout decision ---------------------------------------------------

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "diffalg"


def test_only_the_algebra_module_reads_the_tensor():
    """The c[i, j, k] layout is read in algebra.py alone, where the product
    object builds every multiplication operator and the series product;
    other modules go through the algebra's methods."""
    readers = {path.name: sorted({node.lineno for node in ast.walk(ast.parse(path.read_text()))
                                  if isinstance(node, ast.Attribute)
                                  and node.attr == "structure"})
               for path in sorted(PACKAGE.glob("*.py"))}
    assert readers["algebra.py"]
    assert {name: lines for name, lines in readers.items()
            if lines and name != "algebra.py"} == {}
