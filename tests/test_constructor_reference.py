"""Named constructors against the loops they replace.

The reference builders below are the bodies of matrix_algebra,
function_algebra, group_algebra, cusp_algebra, PolyAlgebra and
SeriesStructureAlgebra from before these constructors were rebuilt on one
product-table scatter, kept verbatim as the equality gate. Structure
tensors, involutions and units must agree exactly (array_equal, no
tolerance), labels must be equal and the class the same. The group's
element order, addition table and negation are held against the old
weights loop and the old per-element index loop.
"""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from diffalg import (FiniteAbelianGroup, PolyAlgebra, SeriesStructureAlgebra,
                     StructureAlgebra, algebra_from_name, cusp_algebra,
                     function_algebra, group_algebra, matrix_algebra,
                     series_algebra, subalgebra, truncated_poly)
from diffalg.algebra import monomial_label
from diffalg.multiindex import MonomialTable


def ref_matrix_algebra(n):
    d = n * n

    def pos(i, j):
        return i * n + j

    c = np.zeros((d, d, d), dtype=complex)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j == k:
            c[pos(i, j), pos(k, l), pos(i, l)] = 1.0
    inv = np.zeros((d, d), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        inv[pos(j, i), pos(i, j)] = 1.0
    unit = np.zeros(d, dtype=complex)
    for i in range(n):
        unit[pos(i, i)] = 1.0
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return c, inv, unit, labels


def ref_function_algebra(n):
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    labels = [f"e{i + 1}" for i in range(n)]
    return c, np.eye(n), np.ones(n), labels


def ref_group_algebra(factors):
    factors = [int(n) for n in factors]
    elems = list(itertools.product(*[range(n) for n in factors]))
    index = {g: i for i, g in enumerate(elems)}
    d = len(elems)
    c = np.zeros((d, d, d), dtype=complex)
    for g in elems:
        for h in elems:
            s = tuple((x + y) % n for x, y, n in zip(g, h, factors))
            c[index[g], index[h], index[s]] = 1.0
    inv = np.zeros((d, d), dtype=complex)
    for g in elems:
        neg = tuple((-x) % n for x, n in zip(g, factors))
        inv[index[neg], index[g]] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[index[(0,) * len(factors)]] = 1.0
    labels = [f"d{g}" for g in elems]
    return c, inv, unit, labels


def ref_cusp_algebra():
    exps = [0, 2, 3, 4, 5, 6]
    index = {e: i for i, e in enumerate(exps)}
    d = len(exps)
    c = np.zeros((d, d, d), dtype=complex)
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if a + b <= 6:
                c[i, j, index[a + b]] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    labels = ["1"] + [f"x^{e}" for e in exps[1:]]
    return c, np.eye(d), unit, labels


def ref_poly_algebra(mvars, degree):
    table = MonomialTable(mvars, degree)
    d = table.dim
    c = np.zeros((d, d, d), dtype=complex)
    i, j = np.nonzero(table.add >= 0)
    c[i, j, table.add[i, j]] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    labels = [monomial_label(k) for k in table.exponents]
    return c, np.eye(d), unit, labels


def ref_series_algebra(base, mvars, order):
    table = MonomialTable(mvars, order)
    m = table.dim
    db = base.dim
    d = m * db
    # c[p, :, q, :, r, :] = base.structure exactly where r = add[p, q]
    hits = np.zeros((m, m, m))
    p, q = np.nonzero(table.add >= 0)
    hits[p, q, table.add[p, q]] = 1.0
    c = np.einsum("pqr,ijk->piqjrk", hits, base.structure)
    inv = np.kron(np.eye(m), base.involution)
    unit = np.zeros((m, db), dtype=complex)
    unit[0] = base.unit
    labels = None
    if base.labels:
        labels = [f"{lab}@{k}" for k in table.exponents for lab in base.labels]
    return c.reshape(d, d, d), inv, unit.reshape(d), labels


def ref_addition_table(group):
    digits = np.array(list(itertools.product(*[range(n) for n in group.factors])),
                      dtype=np.int64)
    weights = np.ones(len(group.factors), dtype=np.int64)
    for t in range(len(group.factors) - 2, -1, -1):
        weights[t] = weights[t + 1] * group.factors[t + 1]
    table = np.zeros((group.order, group.order), dtype=np.int64)
    for t, n in enumerate(group.factors):
        col = digits[:, t]
        table += ((col[:, None] + col[None, :]) % n) * weights[t]
    return table


def ref_negation(group):
    elems = list(itertools.product(*[range(n) for n in group.factors]))
    index = {g: i for i, g in enumerate(elems)}
    return np.array([index[tuple((-a) % n for a, n in zip(g, group.factors))]
                     for g in elems], dtype=np.int64)


def assert_same(alg, ref, cls):
    c, inv, unit, labels = ref
    assert type(alg) is cls
    assert np.array_equal(alg.structure, c)
    assert np.array_equal(alg.involution, inv)
    assert np.array_equal(alg.unit, unit)
    assert alg.labels == labels


GROUP_SHAPES = [[1], [2], [7], [1, 3], [3, 2], [2, 3, 4], [4, 4, 2], [8, 8],
                [2] * 6]


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_algebra_matches_loop(n):
    assert_same(matrix_algebra(n), ref_matrix_algebra(n), StructureAlgebra)


@pytest.mark.parametrize("n", range(1, 20))
def test_function_algebra_matches_loop(n):
    assert_same(function_algebra(n), ref_function_algebra(n), StructureAlgebra)


@pytest.mark.parametrize("factors", GROUP_SHAPES)
def test_group_algebra_matches_loop(factors):
    assert_same(group_algebra(factors), ref_group_algebra(factors), StructureAlgebra)


def test_group_labels_spell_residue_tuples():
    assert group_algebra([1]).labels == ["d(0,)"]
    assert group_algebra([1, 3]).labels == ["d(0, 0)", "d(0, 1)", "d(0, 2)"]
    labels = group_algebra([2, 3, 4]).labels
    assert labels[:5] == ["d(0, 0, 0)", "d(0, 0, 1)", "d(0, 0, 2)",
                          "d(0, 0, 3)", "d(0, 1, 0)"]
    assert labels[-1] == "d(1, 2, 3)"
    assert labels == ref_group_algebra([2, 3, 4])[3]


def test_cusp_algebra_matches_loop():
    assert_same(cusp_algebra(), ref_cusp_algebra(), StructureAlgebra)


@pytest.mark.parametrize("mvars", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_truncated_poly_matches_loop(mvars, degree):
    assert_same(truncated_poly(mvars, degree), ref_poly_algebra(mvars, degree),
                PolyAlgebra)


def _bases():
    f3 = function_algebra(3)
    # an orthonormal SVD basis: negative constants and no labels
    sub, _ = subalgebra(f3, [f3.unit, f3.basis_element(0)])
    return {"func:2": function_algebra(2), "matrix:2": matrix_algebra(2),
            "cusp": cusp_algebra(), "group:3": group_algebra([3]), "sub": sub}


@pytest.mark.parametrize("base_name", ["func:2", "matrix:2", "cusp", "group:3", "sub"])
@pytest.mark.parametrize("mvars", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_series_algebra_matches_einsum(base_name, mvars, order):
    base = _bases()[base_name]
    assert_same(series_algebra(base, mvars, order),
                ref_series_algebra(base, mvars, order), SeriesStructureAlgebra)


@pytest.mark.parametrize("factors", GROUP_SHAPES + [[16, 16], [8, 8, 8], [5, 1, 6]])
def test_group_tables_match_loops(factors):
    g = FiniteAbelianGroup(factors)
    assert g.elements == list(itertools.product(*[range(n) for n in factors]))
    assert g.order == len(g.elements)
    add, neg = g.addition_table(), g.negation()
    assert add.dtype == neg.dtype == np.int64
    assert np.array_equal(add, ref_addition_table(g))
    assert np.array_equal(neg, ref_negation(g))
    assert all(g.index(h) == i for i, h in enumerate(g.elements))
    assert g.index(tuple(-x for x in g.elements[-1])) == int(neg[-1])


@pytest.mark.parametrize("factors", [[8, 8, 8], [16, 16, 16], [3, 1, 7]])
def test_sampled_sums_match_tuple_loop(factors):
    # the sum indices fourier_check's sampled path reads, without the d^2 table
    g = FiniteAbelianGroup(factors)
    rng = np.random.default_rng(5)
    gi, hi = rng.integers(0, g.order, size=(2, 64))
    elems = list(itertools.product(*[range(n) for n in factors]))
    index = {h: i for i, h in enumerate(elems)}
    want = np.array([index[tuple((x + y) % n for x, y, n in zip(elems[a], elems[b], factors))]
                     for a, b in zip(gi, hi)])
    assert np.array_equal(g._sum_index(g._digits[:, gi], g._digits[:, hi]), want)


@pytest.mark.parametrize("base, mvars, order", [("func:1", 2, 10), ("matrix:2", 2, 4)])
def test_series_build_peak_is_its_tensor(base, mvars, order):
    # the scatter writes straight into the result: no (m, m, m) table of
    # hits or einsum operand beside it
    base = algebra_from_name(base)
    series_algebra(base, mvars, order)
    tracemalloc.start()
    try:
        alg = series_algebra(base, mvars, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * alg.structure.nbytes
