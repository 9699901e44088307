"""Monomial index tables against the per-pair tuple loops they replace.

The reference functions below are the tuple-loop implementations of the
polynomial, series, jet and derivative-system layers, kept as the
equality gate: structure tensors must agree exactly, float tables to
within 4 ulp, and verification reports index for index. A profile hook
also counts calls into multiindex.py, so a return to per-pair multi-index
arithmetic fails deterministically.
"""
from __future__ import annotations

import gc
import itertools
import math
import sys
import weakref

import numpy as np
import pytest

from diffalg import (
    ChartBasis,
    DerivativeSystem,
    SeriesElement,
    algebra_from_name,
    jet_space,
    mi_enumerate,
    monomial_about,
    ser_mul,
    series_algebra,
    taylor_system,
    truncated_poly,
    verify_system,
)
from diffalg import multiindex
from diffalg.jets import _derivative_rows, _eval_row
from diffalg.multiindex import MonomialTable, mi_add, mi_le, mi_sub

BASES = ["func:1", "func:2", "matrix:2"]
GRID = [(m, n) for m in (1, 2, 3) for n in range(6)]
# The series tensor has (C(m+N, m) * base dim)^3 complex entries; past this
# flattened dimension the reference and the new tensor would take 20+ MiB each.
MAX_SERIES_DIM = 120


# --- reference implementations (tuple loops) ---------------------------

def ref_enumerate(m, n):
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest
    return [k for total in range(n + 1) for k in compositions(total, m)]


def ref_poly_structure(m, n):
    exps = ref_enumerate(m, n)
    index = {k: i for i, k in enumerate(exps)}
    d = len(exps)
    c = np.zeros((d, d, d), dtype=complex)
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            s = mi_add(a, b)
            if sum(s) <= n:
                c[i, j, index[s]] = 1.0
    return c


def ref_series_structure(base, m, n):
    exps = ref_enumerate(m, n)
    index = {k: i for i, k in enumerate(exps)}
    k_count, db = len(exps), base.dim
    c = np.zeros((k_count, db, k_count, db, k_count, db), dtype=complex)
    for p, kp in enumerate(exps):
        for q, kq in enumerate(exps):
            r = index.get(mi_add(kp, kq))
            if r is not None:
                c[p, :, q, :, r, :] = base.structure
    inv = np.zeros((k_count, db, k_count, db), dtype=complex)
    for p in range(k_count):
        inv[p, :, p, :] = base.involution
    d = k_count * db
    return c.reshape(d, d, d), inv.reshape(d, d)


def ref_eval_row(alg, s):
    return np.array([np.prod(s ** np.array(alpha)) for alpha in alg.exponents],
                    dtype=complex)


def ref_derivative_rows(alg, s, orders):
    rows = np.zeros((len(orders), alg.dim), dtype=complex)
    for r, k in enumerate(orders):
        for alpha, j in alg.exp_index.items():
            if mi_le(k, alpha):
                fall = math.prod(math.perm(a, b) for a, b in zip(alpha, k))
                rows[r, j] = fall * np.prod(s ** np.array(mi_sub(alpha, k)))
    return rows


def ref_chart_matrix(alg, point):
    d = alg.dim
    t = np.zeros((d, d), dtype=complex)
    for k, col in alg.exp_index.items():
        for alpha, row in alg.exp_index.items():
            if mi_le(alpha, k):
                binom = math.prod(math.comb(a, b) for a, b in zip(k, alpha))
                t[row, col] = binom * np.prod((-point) ** np.array(mi_sub(k, alpha)))
    return t


def ref_monomial_about(source, point, alpha):
    coords = np.zeros(source.dim, dtype=complex)
    for beta, idx in source.exp_index.items():
        if mi_le(beta, alpha):
            rest = mi_sub(alpha, beta)
            coords[idx] = math.prod(map(math.comb, alpha, beta)) * np.prod(point ** np.array(rest))
    return coords


def ref_ser_mul(x, y):
    keys = mi_enumerate(x.mvars, x.order)
    xk = [k for k in keys if np.any(x[k])]
    yk = [k for k in keys if np.any(y[k])]
    out = SeriesElement(x.base, x.mvars, x.order)
    if not xk or not yk:
        return out
    prods = x.base.mul_pairs(np.array([x[k] for k in xk]), np.array([y[k] for k in yk]))
    acc = {}
    for p, kp in enumerate(xk):
        for q, kq in enumerate(yk):
            k = mi_add(kp, kq)
            if sum(k) > x.order:
                continue
            acc[k] = acc[k] + prods[p, q] if k in acc else prods[p, q]
    for k, v in acc.items():
        out[k] = v
    return out


def ref_verify_system(sys, tol=1e-9):
    a, b = sys.source, sys.target
    violations = []
    scale = 1.0 + sys.scale() ** 2
    for k in sys.indices:
        dk = sys.op_matrix(k)
        expected = b.unit if sum(k) == 0 else np.zeros(b.dim)
        res = float(np.abs(dk @ a.unit - expected).max())
        if res > tol * scale:
            violations.append(("unit", k, None, res))
    for k in sys.indices:
        dk = sys.op_matrix(k)
        res = float(np.abs(dk @ a.involution - b.involution @ np.conj(dk)).max())
        if res > tol * scale:
            violations.append(("involution", k, None, res))
    for k in sys.indices:
        dk = sys.op_matrix(k)
        lhs = a.structure @ dk.T
        rhs = np.zeros_like(lhs)
        for l in sys.indices:
            if not mi_le(l, k):
                continue
            rhs += math.prod(map(math.comb, k, l)) * b.mul_pairs(sys.op_matrix(mi_sub(k, l)).T,
                                                   sys.op_matrix(l).T)
        gap = np.abs(lhs - rhs)
        if gap.max() > tol * scale:
            i, j = np.unravel_index(np.argmax(gap.max(axis=2)), (a.dim, a.dim))
            violations.append(("leibniz", k, (int(i), int(j)), float(gap[i, j].max())))
    return violations


# --- helpers -----------------------------------------------------------

def assert_ulp_close(new, old, ulps=4):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    bound = ulps * np.finfo(float).eps * np.abs(old)
    assert np.all(np.abs(new - old) <= bound), float(np.max(np.abs(new - old) - bound))


def _point(m, n, salt=0):
    return np.random.default_rng(100 * m + 10 * n + salt).uniform(-1.5, 1.5, size=m)


def _random_series(rng, base, m, n, density=0.7):
    x = SeriesElement(base, m, n)
    for k in mi_enumerate(m, n):
        if rng.random() < density:
            x[k] = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    return x


def _u_power_system(base, m, n, seed):
    """Valid system h(x^j) = u^j for a Hermitian u without constant term."""
    rng = np.random.default_rng(seed)
    u = SeriesElement(base, m, n)
    for k in mi_enumerate(m, n)[1:]:
        c = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
        u[k] = (c + base.star_coords(c)) / 2.0
    power = SeriesElement(base, m, n, {(0,) * m: base.unit})
    cols = []
    for _ in range(n + 1):
        cols.append(power)
        power = ser_mul(power, u)
    ops = {k: math.prod(math.factorial(t) for t in k)
           * np.stack([col[k] for col in cols], axis=1)
           for k in mi_enumerate(m, n)}
    return DerivativeSystem(truncated_poly(1, n), base, m, n, ops)


def _broken_variants(sys, seed):
    """The system itself, and copies breaking Leibniz, unit and involution."""
    rng = np.random.default_rng(seed)
    ops = {k: sys.op_matrix(k) for k in sys.indices}
    out = [sys]
    last = sys.indices[-1]
    for change in ("leibniz", "unit", "involution"):
        bad = {k: v.copy() for k, v in ops.items()}
        if change == "leibniz":
            bad[last] = bad[last] + 1e-3 * rng.standard_normal(bad[last].shape)
        elif change == "unit":
            bad[sys.indices[0]] = 0.5 * bad[sys.indices[0]]
        else:
            bad[last] = 1j * bad[last]
        out.append(DerivativeSystem(sys.source, sys.target, sys.mvars, sys.order, bad))
    return out


# --- the table itself --------------------------------------------------

@pytest.mark.parametrize("m,n", GRID + [(4, 3), (5, 2)])
def test_table_matches_tuple_arithmetic(m, n):
    table = MonomialTable(m, n)
    exps = ref_enumerate(m, n)
    assert table.exponents == exps == mi_enumerate(m, n)
    assert table.exp_index == {k: i for i, k in enumerate(exps)}
    assert table.exps.tolist() == [list(k) for k in exps]
    for p, a in enumerate(exps):
        for q, b in enumerate(exps):
            assert table.add[p, q] == table.exp_index.get(mi_add(a, b), -1)
            want = table.exp_index[mi_sub(a, b)] if mi_le(b, a) else -1
            assert table.sub[p, q] == want


def test_table_binomials_and_factorials_are_exact():
    table = MonomialTable(3, 5)
    binom = table.binomials()
    for p, k in enumerate(table.exponents):
        assert table.factorials()[p] == math.prod(math.factorial(t) for t in k)
        for q, l in enumerate(table.exponents):
            assert binom[q, p] == (math.prod(map(math.comb, k, l)) if mi_le(l, k) else 0)


# --- equality gate -----------------------------------------------------

@pytest.mark.parametrize("m,n", GRID)
def test_poly_structure_matches_tuple_loop(m, n):
    alg = truncated_poly(m, n)
    assert np.array_equal(alg.structure, ref_poly_structure(m, n))
    assert alg.exponents == ref_enumerate(m, n)


@pytest.mark.parametrize("m,n", GRID)
@pytest.mark.parametrize("base_name", BASES)
def test_series_structure_matches_tuple_loop(base_name, m, n):
    base = algebra_from_name(base_name)
    if math.comb(m + n, m) * base.dim > MAX_SERIES_DIM:
        pytest.skip("flattened series algebra above the test's memory cap")
    ser = series_algebra(base, m, n)
    c, inv = ref_series_structure(base, m, n)
    assert np.array_equal(ser.structure, c)
    assert np.array_equal(ser.involution, inv)


@pytest.mark.parametrize("m,n", GRID)
def test_jet_tables_match_tuple_loops(m, n):
    alg = truncated_poly(m, n)
    for salt in range(3):
        s = _point(m, n, salt)
        assert_ulp_close(_eval_row(alg, s), ref_eval_row(alg, s))
        assert_ulp_close(ChartBasis(alg, s).matrix, ref_chart_matrix(alg, s))
        for order in range(n + 1):
            assert_ulp_close(_derivative_rows(alg, s, order),
                             ref_derivative_rows(alg, s, mi_enumerate(m, order)))
        for alpha in alg.exponents:
            assert_ulp_close(monomial_about(alg, s, alpha).coords,
                             ref_monomial_about(alg, s, alpha))


@pytest.mark.parametrize("m,n", GRID)
@pytest.mark.parametrize("base_name", BASES)
def test_ser_mul_matches_tuple_loop(base_name, m, n):
    base = algebra_from_name(base_name)
    rng = np.random.default_rng(7 * m + n)
    for _ in range(3):
        x, y = _random_series(rng, base, m, n), _random_series(rng, base, m, n)
        got, want = ser_mul(x, y), ref_ser_mul(x, y)
        for k in mi_enumerate(m, n):
            assert_ulp_close(got[k], want[k])


@pytest.mark.parametrize("base_name", BASES)
def test_ser_mul_does_not_depend_on_the_order_coefficients_were_set(base_name):
    base = algebra_from_name(base_name)
    rng = np.random.default_rng(11)
    for m, n in [(1, 5), (2, 4), (3, 3)]:
        keys = mi_enumerate(m, n)
        xv, yv = ({k: rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
                   for k in keys} for _ in range(2))
        want = ser_mul(SeriesElement(base, m, n, xv), SeriesElement(base, m, n, yv))
        for _ in range(3):
            x, y = SeriesElement(base, m, n), SeriesElement(base, m, n)
            for series, values in ((x, xv), (y, yv)):
                for i in rng.permutation(len(keys)):
                    series[keys[i]] = values[keys[i]]
            got = ser_mul(x, y)
            for k in keys:
                assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("m,n", GRID)
@pytest.mark.parametrize("base_name", BASES)
def test_verify_system_matches_tuple_loop(base_name, m, n):
    systems = _broken_variants(_u_power_system(algebra_from_name(base_name), m, n, seed=n), n)
    if base_name == "func:1":
        systems += _broken_variants(taylor_system(m, n, _point(m, n), degree=n + 1), n)
    for sys_ in systems:
        got = [(v["axiom"], v["index"], v["pair"], v["residual"])
               for v in verify_system(sys_).violations]
        want = ref_verify_system(sys_)
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert np.allclose([g[3] for g in got], [w[3] for w in want], rtol=1e-12, atol=0)


def test_gate_sees_every_kind_of_violation():
    seen = set()
    for base_name, (m, n) in itertools.product(BASES, [(1, 2), (2, 3)]):
        for sys_ in _broken_variants(_u_power_system(algebra_from_name(base_name), m, n, 0), 0):
            seen |= {v["axiom"] for v in verify_system(sys_).violations}
    assert seen == {"unit", "involution", "leibniz"}


# --- deterministic regression guard ------------------------------------

def _multiindex_calls(fn):
    """Python-level calls into multiindex.py made while fn runs."""
    count = [0]
    path = multiindex.__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            count[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0]


def test_multiindex_calls_do_not_grow_with_index_pairs():
    # the tuple loops made thousands of calls here (one per index pair);
    # the tables make a few per table, comprehensions included
    alg = truncated_poly(3, 5)
    system = taylor_system(2, 3, [0.5, -0.25])
    assert _multiindex_calls(lambda: truncated_poly(3, 5)) <= 20
    assert _multiindex_calls(lambda: jet_space(alg, [0.1, -0.2, 0.3], 3)) <= 50
    assert _multiindex_calls(lambda: verify_system(system)) <= 20


# --- jet cache ownership -----------------------------------------------

def test_jet_cache_dies_with_its_algebra():
    alg = truncated_poly(2, 3)
    space = weakref.ref(jet_space(alg, [0.1, 0.2], 1))
    assert space() is jet_space(alg, [0.1, 0.2], 1)
    del alg
    gc.collect()
    assert space() is None


# --- one reader of index arrays -------------------------------------------

@pytest.mark.parametrize("mvars, degree", [(1, 4), (2, 3), (3, 4), (4, 2)])
def test_rows_are_the_graded_ranks(mvars, degree):
    table = MonomialTable(mvars, degree)
    rows = table.rows(table.exps)
    assert rows.tolist() == list(range(table.dim))
    rng = np.random.default_rng([mvars, degree])
    pick = rng.integers(0, table.dim, 50)
    np.testing.assert_array_equal(table.rows(table.exps[pick]), pick)
    assert [table.row(k) for k in table.exponents] == list(range(table.dim))
    assert table.rows(np.zeros((0, mvars), dtype=np.int64)).size == 0


@pytest.mark.parametrize("mvars, degree", [(1, 3), (2, 3), (3, 2)])
def test_row_and_rows_accept_the_same_indices(mvars, degree):
    """row looks a tuple up in exp_index and rows ranks an array; on every
    index with entries from -1 to degree + 1 both accept the same ones and
    give them the same row."""
    table = MonomialTable(mvars, degree)
    for k in itertools.product(range(-1, degree + 2), repeat=mvars):
        try:
            expected = int(table.rows(np.array([k]))[0])
        except ValueError:
            with pytest.raises(ValueError):
                table.row(k)
        else:
            assert table.row(k) == expected


def test_rows_refuse_another_width_and_indices_outside_the_table():
    table = MonomialTable(2, 3)
    with pytest.raises(ValueError, match=r"^index \[1\] does not have 2 entries$"):
        table.rows(np.array([[1], [2]]))
    with pytest.raises(ValueError, match=r"^index \[1, 0, 0\] does not have 2 entries$"):
        table.rows([[1, 0, 0]])
    for bad in ([[0, 1], [3, 1]], [[0, 1], [-1, 2]], [[0, 1], [2 ** 62, 2 ** 62]]):
        first = tuple(bad[1])
        with pytest.raises(ValueError, match=rf"^index \({first[0]}, {first[1]}\) is outside "
                                             r"the indices of order N=3 in m=2 variables$"):
            table.rows(np.array(bad, dtype=np.int64))
    # row keeps one text for every index it refuses, of any length
    for k in [(1,), (1, 0, 0), (4, 0), (-1, 1), (2 ** 70, 0)]:
        with pytest.raises(ValueError) as info:
            table.row(k)
        assert str(info.value) == f"index {k} is outside the indices of order N=3 in m=2 variables"


def test_rows_refuse_entries_that_are_not_integers():
    table = MonomialTable(2, 3)
    for bad in (np.array([[1.0, 0.0]]), np.array([[True, False]]), np.array([["a", "b"]])):
        with pytest.raises(ValueError, match="is not a sequence of integers"):
            table.rows(bad)


def test_a_system_dict_names_its_first_refused_index_or_shape():
    """An ops dict is read in its order, so an earlier matrix of the wrong
    shape is named before a later bad index, and a bad index before a later
    shape."""
    source, target = truncated_poly(1, 2), truncated_poly(1, 2)
    good, wide = np.eye(3), np.eye(4)
    with pytest.raises(ValueError, match=r"^operator \(1,\) has shape \(4, 4\)"):
        DerivativeSystem(source, target, 1, 2, {(1,): wide, (5,): good})
    with pytest.raises(ValueError, match=r"^operator index \(5,\) is outside the indices"):
        DerivativeSystem(source, target, 1, 2, {(5,): good, (1,): wide})
    with pytest.raises(ValueError, match=r"^operator index \(1, 0\) is outside the indices"):
        DerivativeSystem(source, target, 1, 2, {(0,): good, (1, 0): good})
    system = DerivativeSystem(source, target, 1, 2, {(2,): 2 * good, (0,): good})
    assert np.array_equal(system.stack, np.stack([good, 0 * good, 2 * good]))
