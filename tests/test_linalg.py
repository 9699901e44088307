"""Numerical linear algebra helpers: rank, spans, null spaces."""
from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from diffalg._linalg import (
    cluster_values,
    eigenspace,
    in_span,
    null_space,
    projection_residual,
    rank,
    rows_in_span,
    rref,
    span_basis,
    spans_contain,
    spans_equal,
)


def _random_matrix(seed, rows, cols, rk):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, rk)) + 1j * rng.standard_normal((rows, rk))
    b = rng.standard_normal((rk, cols)) + 1j * rng.standard_normal((rk, cols))
    return a @ b


@given(st.integers(0, 200), st.integers(1, 6), st.integers(1, 6), st.integers(0, 4))
def test_rank_of_factored_product(seed, rows, cols, rk):
    rk = min(rk, rows, cols)
    m = _random_matrix(seed, rows, cols, rk) if rk else np.zeros((rows, cols))
    assert rank(m) == rk


@given(st.integers(0, 100), st.integers(1, 5), st.integers(1, 5))
def test_null_space_annihilates(seed, rows, cols):
    m = _random_matrix(seed, rows, cols, min(rows, cols, 2))
    ns = null_space(m)
    assert ns.shape[1] == cols
    assert ns.shape[0] == cols - rank(m)
    if ns.size:
        assert np.abs(m @ ns.T).max() < 1e-9
        # rows are independent, though not necessarily orthonormal
        assert rank(ns) == ns.shape[0]


def test_rref_pivots_and_idempotence():
    m = np.array([[0.0, 2.0, 4.0], [1.0, 1.0, 1.0], [1.0, 3.0, 5.0]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r.shape == (2, 3)  # zero rows are dropped
    r2, pivots2 = rref(r)
    assert pivots2 == pivots
    assert np.abs(r2 - r).max() < 1e-12
    for i, p in enumerate(pivots):
        col = r[:, p]
        expect = np.zeros(r.shape[0])
        expect[i] = 1.0
        assert np.abs(col - expect).max() < 1e-12


@given(st.integers(0, 100))
def test_span_membership_and_equality(seed):
    rng = np.random.default_rng(seed)
    basis = span_basis(rng.standard_normal((3, 5)))
    combo = rng.standard_normal(3) @ basis
    assert in_span(combo, basis)
    assert projection_residual(combo, basis) < 1e-10
    shuffled = basis[::-1] * 2.0
    assert spans_equal(basis, span_basis(shuffled))
    assert spans_contain(np.eye(5), basis)
    outside = np.ones(5) + 1e3 * null_space(basis)[0] if null_space(basis).size else None
    if outside is not None:
        assert not in_span(null_space(basis)[0], basis)


def test_eigenspace_of_diagonalizable():
    m = np.diag([2.0, 2.0, 5.0]).astype(complex)
    e2 = eigenspace(m, 2.0)
    assert e2.shape[0] == 2
    e5 = eigenspace(m, 5.0)
    assert e5.shape[0] == 1
    assert np.abs(m @ e5[0] - 5.0 * e5[0]).max() < 1e-10
    assert eigenspace(m, 7.0).shape[0] == 0


def test_cluster_values_merges_close_points():
    vals = [1.0, 1.0 + 1e-9, 2.0, 2.0 - 1e-9, 5.0j]
    out = cluster_values(vals, tol=1e-7)
    assert len(out) == 3


def test_empty_and_zero_inputs():
    z = np.zeros((2, 3))
    assert rank(z) == 0
    assert null_space(z).shape == (3, 3)
    assert span_basis(z).shape[0] == 0


@given(st.integers(0, 200), st.integers(0, 5))
def test_rows_in_span_agrees_with_in_span(seed, rk):
    rng = np.random.default_rng(seed)
    onb = span_basis(_random_matrix(seed, max(rk, 1), 6, rk), width=6)
    inside = rng.standard_normal((3, onb.shape[0])) @ onb if onb.shape[0] else np.zeros((3, 6))
    outside = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    near = inside + 1e-12 * outside
    vs = np.vstack([inside, outside, near])
    got = rows_in_span(vs, onb)
    assert list(got) == [in_span(v, onb) for v in vs]
    assert got[:3].all() and got[6:].all()
    assert got[3:6].all() == (onb.shape[0] == 6)
