"""Internal linear-algebra helpers.

All rank and membership decisions in the package go through this module
so that subspace bases are deterministic across runs: spans and null
spaces carry orthonormal SVD bases, while explicit echelon form stays
available for pivot bookkeeping.
"""
from __future__ import annotations

import numpy as np

# Absolute zero test for scalars and vector entries.
ZERO_TOL = 1e-9
# Pivot threshold factor for rank decisions, relative to the largest
# entry magnitude of the input matrix.
RANK_TOL = 1e-8


def as_matrix(rows, width: int | None = None) -> np.ndarray:
    """Coerce an iterable of coordinate vectors to a complex 2-d array."""
    rows = list(rows)
    if not rows:
        if width is None:
            raise ValueError("cannot infer row width of an empty matrix")
        return np.zeros((0, width), dtype=complex)
    a = np.array([np.asarray(r, dtype=complex).ravel() for r in rows])
    if width is not None and a.shape[1] != width:
        raise ValueError(f"expected row width {width}, got {a.shape[1]}")
    return a


def rref(a: np.ndarray, tol: float = RANK_TOL) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting.

    Returns (R, pivots) where R contains only the nonzero rows. The pivot
    threshold is tol times the largest entry magnitude of the input, so a
    matrix of tiny residuals reduces to rank 0 rather than to noise.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    m, n = a.shape
    if m == 0 or n == 0:
        return a.reshape(0, n), []
    thresh = tol * max(1.0, float(np.abs(a).max()))
    pivots: list[int] = []
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
    # flush roundoff below threshold so canonical bases compare cleanly
    out = np.where(np.abs(out) <= thresh, 0.0, out)
    # exact zeros on the pivot pattern
    for i, c in enumerate(pivots):
        out[i, c] = 1.0
    return out, pivots


def rank(a: np.ndarray, tol: float = RANK_TOL) -> int:
    return len(rref(a, tol)[1])


def span_basis(rows, width: int | None = None, tol: float = RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span, one vector per row.

    Computed by SVD rather than row reduction: echelon bases can acquire
    huge entries when a span nearly misses a leading coordinate, and the
    follow-up entry-relative rank tests then misjudge such bases.
    """
    a = as_matrix(rows, width)
    if a.size == 0 or not np.abs(a).max():
        return np.zeros((0, a.shape[1]), dtype=complex)
    _, sv, vh = np.linalg.svd(a)
    keep = int(np.sum(sv > tol * max(1.0, float(sv[0]))))
    return vh[:keep]


def null_space(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Canonical basis of the right null space, one row per basis vector.

    The rows are orthonormal (trailing right singular vectors), which
    stays accurate even when the leading columns would make poor
    elimination pivots.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("null_space expects a 2-d array")
    m, n = a.shape
    if m == 0 or n == 0 or not np.abs(a).max():
        return np.eye(n, dtype=complex)
    _, sv, vh = np.linalg.svd(a)
    keep = int(np.sum(sv > tol * max(1.0, float(sv[0]))))
    return vh[keep:].conj()


def in_span(v, basis: np.ndarray, tol: float = ZERO_TOL) -> bool:
    """Membership of v in the row span of basis, by least-squares residual."""
    v = np.asarray(v, dtype=complex).ravel()
    if basis.shape[0] == 0:
        return bool(np.linalg.norm(v) <= tol * (1.0 + 0.0))
    coeff, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    res = v - basis.T @ coeff
    return bool(np.linalg.norm(res) <= tol * (1.0 + np.linalg.norm(v)))


def rows_in_span(vs, onb: np.ndarray, tol: float = ZERO_TOL) -> np.ndarray:
    """Membership of each row of vs in the span of the orthonormal rows onb.

    The rule is in_span's, residual <= tol * (1 + |v|), but the residuals
    of the whole stack come from one projection v - (v onb^H) onb, which
    is only valid because onb is orthonormal (as span_basis returns and
    Subspace.basis holds).
    """
    vs = np.asarray(vs, dtype=complex)
    if onb.shape[0] == 0:
        return np.linalg.norm(vs, axis=1) <= tol
    res = vs - (vs @ onb.conj().T) @ onb
    return np.linalg.norm(res, axis=1) <= tol * (1.0 + np.linalg.norm(vs, axis=1))


def projection_residual(v, basis: np.ndarray) -> float:
    """Euclidean distance from v to the row span of basis."""
    v = np.asarray(v, dtype=complex).ravel()
    if basis.shape[0] == 0:
        return float(np.linalg.norm(v))
    coeff, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    return float(np.linalg.norm(v - basis.T @ coeff))


def spans_contain(big: np.ndarray, small: np.ndarray, tol: float = ZERO_TOL) -> bool:
    return all(in_span(row, big, tol) for row in small)


def spans_equal(a: np.ndarray, b: np.ndarray, tol: float = ZERO_TOL) -> bool:
    return spans_contain(a, b, tol) and spans_contain(b, a, tol)


def eigenspace(m: np.ndarray, lam: complex, tol: float = 1e-7) -> np.ndarray:
    """Basis (rows) of the genuine eigenspace ker(m - lam I), via SVD."""
    m = np.asarray(m, dtype=complex)
    a = m - lam * np.eye(m.shape[0])
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * max(1.0, float(s[0]) if s.size else 0.0)
    keep = [i for i in range(len(s)) if s[i] <= cutoff]
    # rows of vh whose singular values vanish span the null space
    return vh[len(s) - len(keep):] if keep else np.zeros((0, m.shape[0]), dtype=complex)


def cluster_values(values, tol: float = 1e-7) -> list[complex]:
    """Greedy clustering of complex values; returns one representative each."""
    reps: list[complex] = []
    for v in values:
        for r in reps:
            if abs(v - r) <= tol:
                break
        else:
            reps.append(complex(v))
    return reps
