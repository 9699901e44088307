"""Jet spaces from the chart basis against the SVD jet spaces they replace,
and the one-enumeration graded exponents against the per-grade ones.

`RefJetSpace` below is the earlier jet space, kept verbatim as the
reference: its vanishing subspace is the SVD null space of the derivative
rows, passed through `Subspace` (a second SVD), and its chart coordinates
come from `np.linalg.solve` against the chart matrix. Near the origin both
must give the same ideal, projection, chart coordinates and seminorm; far
from it the reference loses rank and raises, while the chart route keeps
the exact Taylor data. `jet_surjectivity_check` must raise exactly where
the reference jet space raises.

`ref_graded_exponents` is the earlier per-grade enumeration, kept verbatim.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (DomainError, Element, LinearOp, NumericError, Subspace,
                     jet_project, jet_space, mi_count, parse_expr,
                     quotient_seminorm, truncated_poly)
from diffalg import _linalg as la
from diffalg.envelope import jet_surjectivity_check
from diffalg.jets import _derivative_rows
from diffalg.multiindex import _graded_exponents, mi_enumerate

# --- references ------------------------------------------------------------


class RefChartBasis:
    def __init__(self, algebra, point):
        self.algebra = algebra
        self.point = np.asarray(point, dtype=float).ravel()
        self.matrix = algebra.table.shift(-self.point).astype(complex)

    def to_chart(self, coords) -> np.ndarray:
        return np.linalg.solve(self.matrix, np.asarray(coords, dtype=complex))


class RefJetSpace:
    """Order-n jets at a point, with both projection routes."""

    def __init__(self, base, point, order: int):
        if not 0 <= order <= base.degree:
            raise ValueError("jet order must lie within the degree bound")
        self.base = base
        self.point = np.asarray(point, dtype=float).ravel()
        self.order = order
        self.chart = RefChartBasis(base, self.point)
        self.quotient = truncated_poly(base.mvars, order)
        # the order-(n+1) vanishing subspace is the null space of the rows
        # f -> (d^k f)(point), |k| <= n; scaled by 1/k! they are the Taylor rows
        rows = _derivative_rows(base, self.point, order)
        self.ideal = Subspace(base, la.null_space(rows))
        q = self.quotient.dim
        assert q == mi_count(base.mvars, order)
        if self.ideal.dim + q != base.dim:
            raise NumericError("jet quotient and vanishing subspace dimensions "
                               "do not complement each other")
        rows /= self.quotient.table.factorials()[:, None]
        self.projection = LinearOp(rows, base, self.quotient)

    def project_taylor(self, f) -> Element:
        return self.projection(f)

    def project_solve(self, f) -> Element:
        chart_coords = self.chart.to_chart(f)
        return Element(self.quotient, chart_coords[:self.quotient.dim])


def ref_graded_exponents(m: int, n: int) -> np.ndarray:
    grades = []
    for t in range(n + 1):
        combos = list(itertools.combinations(range(t + m - 1), m - 1))
        bars = np.array(combos, dtype=np.intp).reshape(len(combos), m - 1)[::-1]
        edges = np.hstack([np.full((len(bars), 1), -1), bars,
                           np.full((len(bars), 1), t + m - 1)])
        grades.append(np.diff(edges, axis=1) - 1)
    return np.vstack(grades)


# --- jet spaces near the origin ----------------------------------------------


@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=60)
def test_chart_jet_space_matches_reference(m, n, extra, seed):
    rng = np.random.default_rng(seed)
    alg = truncated_poly(m, n + extra)
    s = rng.uniform(-2.0, 2.0, size=m)
    f = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    new, ref = jet_space(alg, s, n), RefJetSpace(alg, s, n)

    assert new.ideal.dim == ref.ideal.dim == alg.dim - mi_count(m, n)
    assert new.ideal.equals(ref.ideal)
    assert np.array_equal(new.projection.matrix, ref.projection.matrix)
    fmax = float(np.abs(f).max())
    scale = (1.0 + fmax) * (1.0 + float(np.abs(s).max())) ** alg.degree
    gap = np.abs(new.project_solve(f).coords - ref.project_solve(f).coords).max()
    assert gap <= 1e-12 * scale
    seminorm = float(la.span_residuals(f, ref.ideal.basis)[0])
    assert abs(quotient_seminorm(alg, f, s, n) - seminorm) <= 1e-12 * (1.0 + fmax)


def test_ideal_basis_is_orthonormal(rng):
    alg = truncated_poly(3, 4)
    basis = jet_space(alg, rng.uniform(-2.0, 2.0, size=3), 2).ideal.basis
    assert np.abs(basis @ basis.conj().T - np.eye(len(basis))).max() < 1e-13


# --- far points ----------------------------------------------------------------


@pytest.mark.parametrize("s", [1e4, 1e8])
@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_far_point_keeps_exact_taylor_data(s, power, order):
    alg = truncated_poly(1, max(order + 2, power))
    f = {(power,): 1.0}
    # the coefficient of (x - s)^j in x^p is C(p, j) s^(p - j), exact in
    # binary floating point at these points and powers
    want = [float(math.comb(power, j) * int(s) ** (power - j)) for j in range(order + 1)]
    for route in ("taylor", "solve"):
        assert jet_project(alg, f, [s], order, route=route).coords.real.tolist() == want
    space = jet_space(alg, [s], order)
    assert space.quotient.dim == mi_count(1, order)
    assert space.ideal.dim == alg.dim - mi_count(1, order)
    with pytest.raises(NumericError):
        RefJetSpace(alg, [s], order)


def test_point_beyond_reach_is_refused():
    alg = truncated_poly(2, 3)
    with pytest.raises(DomainError, match="out of reach"):
        jet_space(alg, [1e200, 0.0], 1)


@pytest.mark.parametrize("point", [[float("nan")], [float("inf")]])
def test_non_finite_point_is_refused(point):
    with pytest.raises(ValueError, match="is not finite"):
        jet_space(truncated_poly(1, 3), point, 1)


# --- jet surjectivity keeps the reference's refusals --------------------------


def _raises(fn):
    try:
        fn()
    except NumericError:
        return True
    return False


@pytest.mark.parametrize("expr", ["(var 0)", "(+ (var 0) (pow (var 0) 3))", "(pow (var 0) 2)"])
@pytest.mark.parametrize("s", [0.5, 1e3, 1e4, 1e5, 1e8, 1e30])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_surjectivity_raises_where_the_reference_raised(expr, s, n):
    gen = parse_expr(expr, 1)
    bound = max(n, 1, n * gen.degree())
    ambient = truncated_poly(1, bound)
    ref_raises = _raises(lambda: RefJetSpace(ambient, [s], n))
    assert _raises(lambda: jet_surjectivity_check([gen], [s], n)) == ref_raises


def test_jet_surjectivity_far_points_keep_the_refusal():
    # the raw Taylor rows lose rank by length here, so without the guard
    # these would be judged as wrong FAILs (1/4 and 1/2)
    cubic = parse_expr("(+ (var 0) (pow (var 0) 3))", 1)
    with pytest.raises(NumericError, match="do not complement each other"):
        jet_surjectivity_check([cubic], [1e5], 3)
    line = parse_expr("(var 0)", 1)
    for s in (1e4, 1e160):
        with pytest.raises(NumericError, match="do not complement each other"):
            jet_surjectivity_check([line], [s], 1)
    # the order-2 rows need s^2, which is not finite here
    with pytest.raises(DomainError, match="out of reach"):
        jet_surjectivity_check([line], [1e160], 2)


# --- graded exponents ----------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(9))
def test_graded_exponents_match_reference(m, n):
    new = _graded_exponents(m, n)
    ref = ref_graded_exponents(m, n)
    assert new.shape == ref.shape == (mi_count(m, n), m)
    assert np.array_equal(new, ref)
    assert mi_enumerate(m, n) == [tuple(k) for k in ref.tolist()]


@pytest.mark.parametrize("m,n", [(0, 2), (-1, 2), (1, -1), (3, -2)])
def test_graded_exponents_refuse_bad_shapes_like_reference(m, n):
    with pytest.raises(ValueError):
        ref_graded_exponents(m, n)
    with pytest.raises(ValueError):
        _graded_exponents(m, n)
    with pytest.raises(ValueError):
        mi_enumerate(m, n)
