"""Numerical linear algebra helpers: rank, spans, null spaces, membership.

The earlier rules are kept here as references: the echelon rank (pivots of
`rref` above tol times the largest entry) and least-squares membership.
The singular-value cut and the projection membership must agree with them
on the hypothesis cases below.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffalg._linalg import (
    apply_rows,
    close_mask,
    eigenspace,
    in_span,
    null_space,
    rank,
    rref,
    span_basis,
    span_residuals,
)


def ref_rank(a, tol=1e-8) -> int:
    """Echelon rank: pivots above tol times the largest entry magnitude."""
    return len(rref(a, tol)[1])


def ref_residual(v, basis) -> float:
    """Least-squares distance from v to the row span of any basis."""
    v = np.asarray(v, dtype=complex).ravel()
    if basis.shape[0] == 0:
        return float(np.linalg.norm(v))
    coeff, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    return float(np.linalg.norm(v - basis.T @ coeff))


def ref_in_span(v, basis, tol=1e-9) -> bool:
    """Least-squares membership: residual <= tol * (1 + |v|), or |v| <= tol
    against an empty basis."""
    v = np.asarray(v, dtype=complex).ravel()
    scale = 1.0 + np.linalg.norm(v) if basis.shape[0] else 1.0
    return bool(ref_residual(v, basis) <= tol * scale)


def _random_matrix(seed, rows, cols, rk):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, rk)) + 1j * rng.standard_normal((rows, rk))
    b = rng.standard_normal((rk, cols)) + 1j * rng.standard_normal((rk, cols))
    return a @ b


@given(st.integers(0, 200), st.integers(1, 6), st.integers(1, 6), st.integers(0, 4))
def test_rank_of_factored_product(seed, rows, cols, rk):
    rk = min(rk, rows, cols)
    m = _random_matrix(seed, rows, cols, rk) if rk else np.zeros((rows, cols))
    assert rank(m) == rk == ref_rank(m)


@given(st.integers(0, 100), st.integers(1, 5), st.integers(1, 5))
def test_null_space_annihilates(seed, rows, cols):
    m = _random_matrix(seed, rows, cols, min(rows, cols, 2))
    ns = null_space(m)
    assert ns.shape[1] == cols
    assert ns.shape[0] == cols - rank(m)
    if ns.size:
        assert np.abs(m @ ns.T).max() < 1e-9
        assert np.abs(ns @ ns.conj().T - np.eye(ns.shape[0])).max() < 1e-12
        assert rank(ns) == ns.shape[0] == ref_rank(ns)


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
    assert in_span(combo, basis).all() and ref_in_span(combo, basis)
    assert span_residuals(combo, basis)[0] < 1e-10
    assert ref_residual(combo, basis) < 1e-10
    other = span_basis(basis[::-1] * 2.0)
    assert in_span(basis, other).all() and in_span(other, basis).all()
    assert in_span(basis, np.eye(5)).all()
    outside = null_space(basis)
    assert outside.shape[0] == 2
    assert not in_span(outside, basis).any()
    assert not any(ref_in_span(v, basis) for v in outside)


def test_eigenspace_of_diagonalizable():
    m = np.diag([2.0, 2.0, 5.0]).astype(complex)
    e2 = eigenspace(m, 2.0)
    assert e2.shape[0] == 2
    e5 = eigenspace(m, 5.0)
    assert e5.shape[0] == 1
    assert np.abs(m @ e5[0] - 5.0 * e5[0]).max() < 1e-10
    assert eigenspace(m, 7.0).shape[0] == 0


def test_eigenspace_of_complex_upper_triangular():
    # ker(m - I) is spanned by (-1j, 1); its conjugate (1j, 1) is no eigenvector
    m = np.array([[2.0, 1j], [0.0, 1.0]])
    for lam in (1.0, 2.0):
        v = eigenspace(m, lam)
        assert v.shape == (1, 2)
        assert np.abs(m @ v[0] - lam * v[0]).max() < 1e-12


@given(st.integers(0, 200), st.integers(2, 5))
def test_eigenspace_of_complex_non_hermitian(seed, n):
    rng = np.random.default_rng(seed)

    def unitary():
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]

    # p has condition number 2, so m = p diag p^-1 is diagonalizable but not normal
    p = unitary() @ np.diag(np.linspace(1.0, 2.0, n)) @ unitary()
    lams = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    diag = np.concatenate([lams[:1], lams])
    m = p @ np.diag(diag) @ np.linalg.inv(p)
    for lam in lams:
        v = eigenspace(m, lam)
        assert v.shape[0] == int(np.sum(diag == lam))
        assert np.abs(v @ v.conj().T - np.eye(v.shape[0])).max() < 1e-12
        assert np.abs(m @ v.T - lam * v.T).max() < 1e-9 * (1.0 + np.abs(m).max())
    assert eigenspace(m, 10.0).shape[0] == 0


def cluster_values(values, tol: float = 1e-7) -> list[complex]:
    """Greedy clustering of complex values, one representative each: the
    earlier `_linalg.cluster_values`, kept as the reference of the
    eigenvalue tests of character extraction."""
    reps: list[complex] = []
    for v in values:
        for r in reps:
            if abs(v - r) <= tol:
                break
        else:
            reps.append(complex(v))
    return reps


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
def test_in_span_agrees_with_lstsq_reference(seed, rk):
    rng = np.random.default_rng(seed)
    onb = span_basis(_random_matrix(seed, max(rk, 1), 6, rk))
    inside = rng.standard_normal((3, onb.shape[0])) @ onb if onb.shape[0] else np.zeros((3, 6))
    outside = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    near = inside + 1e-12 * outside
    vs = np.vstack([inside, outside, near])
    got = in_span(vs, onb)
    assert list(got) == [ref_in_span(v, onb) for v in vs]
    want = [ref_residual(v, onb) for v in vs]
    assert np.abs(span_residuals(vs, onb) - want).max() < 1e-12
    assert got[:3].all() and got[6:].all()
    assert got[3:6].all() == (onb.shape[0] == 6)


# --- two-dimensional input ---------------------------------------------------


def test_two_dimensional_arrays_pass_through():
    """A 2-d array gives the bits its list of rows gives, to algebra._rows,
    span_basis and Subspace, real or complex; rows of another width, an
    empty array included, are refused."""
    from diffalg import Subspace, function_algebra
    from diffalg.algebra import _rows

    rng = np.random.default_rng(3)
    real = rng.standard_normal((9, 4))
    cplx = real + 1j * rng.standard_normal((9, 4))
    for a in (real, cplx, real.astype(int), cplx[:, ::2], cplx.T[:3]):
        rows = list(a)
        alg = function_algebra(a.shape[1])
        assert np.array_equal(_rows(a, alg), _rows(rows, alg))
        assert _rows(a, alg).dtype == complex and _rows(a, alg).flags.c_contiguous
        assert np.array_equal(span_basis(a), span_basis(_rows(rows, alg)))
        assert np.array_equal(Subspace(alg, a).basis, Subspace(alg, rows).basis)
    f3 = function_algebra(3)
    assert _rows(np.zeros((0, 3)), f3).shape == (0, 3)
    assert _rows([], f3).shape == (0, 3)
    with pytest.raises(ValueError, match="rows of length 3 in an algebra of dimension 5"):
        _rows(np.zeros((0, 3)), function_algebra(5))
    with pytest.raises(ValueError, match="rows of length 4 in an algebra of dimension 5"):
        _rows(real, function_algebra(5))


def ref_rref(a, tol=1e-8):
    """The row loop rref ran before its masked rank-one updates."""
    a = np.array(a, dtype=complex)
    m, n = a.shape
    if m == 0 or n == 0:
        return a.reshape(0, n), []
    thresh = tol * max(1.0, float(np.abs(a).max()))
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        p = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[p, c]) <= thresh:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] / a[r, c]
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    out = a[: len(pivots)]
    out = np.where(np.abs(out) <= thresh, 0.0, out)
    for i, c in enumerate(pivots):
        out[i, c] = 1.0
    return out, pivots


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["complex", "rank-deficient", "tiny", "integer", "signed zeros"])
def test_rref_equals_the_row_loop(seed, kind):
    """Pivots equal and every bit equal to the row loop, on random complex,
    rank-deficient, tiny-scaled, small-integer and mostly -0.0 matrices of
    many shapes: the update also runs on the rows the loop skipped, whose
    zeros may change sign before the flush."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 9 if seed % 2 else 41, size=2)
    if kind == "complex":
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    elif kind == "rank-deficient":
        a = _random_matrix(seed, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
    elif kind == "tiny":
        a = 1e-12 * _random_matrix(seed, rows, cols, min(rows, cols, 2))
    elif kind == "integer":
        a = rng.integers(-2, 3, size=(rows, cols)).astype(float)
    else:
        a = np.where(rng.random((rows, cols)) < 0.7, -0.0,
                     rng.standard_normal((rows, cols)) * (1 - 1j))
    got, pivots = rref(a)
    want, want_pivots = ref_rref(a)
    assert pivots == want_pivots
    assert np.array_equal(got, want)


def brute_close(a, b, tol):
    """Every pair's max-norm distance, as one (m, p, n) array."""
    with np.errstate(invalid="ignore"):
        return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2, initial=0.0) <= tol


@pytest.mark.parametrize("seed", range(20))
def test_close_mask_equals_the_max_norm_of_every_pair(seed):
    """Rows of b are rows of a moved by up to a few tol (on either side of it,
    and exactly by it; the first three within it), scaled from 1e-9 to 1e200, where the squared norms
    overflow; some entries are NaN or inf."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    tol = float(rng.choice([1e-7, 1e-3, 2.0]))
    a = (rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))) * rng.choice(
        [1e-9, 1.0, 1e3, 1e150, 1e200], size=(7, 1))
    pick = rng.integers(0, 7, size=9)
    steps = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 3.0], size=(9, n)) * tol
    steps[:3] = rng.choice([0.0, 0.5, 1.0], size=(3, n)) * tol  # within tol
    b = a[pick] + steps * np.exp(2j * np.pi * rng.choice([0.0, 0.25, 0.125], size=(9, n)))
    if seed % 4 == 1:
        a[0, 0] = np.nan
        b[1, -1] = np.inf
        b[2] = a[3]
        b[2, 0] = a[3, 0] = -np.inf
    want = brute_close(a, b, tol)
    np.testing.assert_array_equal(close_mask(a, b, tol), want)
    assert want.any()


def test_close_mask_of_empty_stacks():
    a = np.ones((3, 4), dtype=complex)
    assert close_mask(a, a[:0], 1e-7).shape == (3, 0)
    assert close_mask(a[:0], a, 1e-7).shape == (0, 3)
    assert close_mask(np.zeros((2, 0)), np.zeros((3, 0)), 1e-7).all()


def test_apply_rows_is_one_product_per_row(rng):
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    vs = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    got = apply_rows(m, vs)
    assert got.shape == (3, 2, 5)
    np.testing.assert_array_equal(got.reshape(-1, 5), [m @ v for v in vs.reshape(-1, 4)])
