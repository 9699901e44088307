"""Internal linear-algebra helpers.

Every rank, span, null-space, eigenspace and membership decision in the
package goes through two rules:

- one singular-value cut (`_cut`, Golub & Van Loan 5.4): sigma_i counts
  when sigma_i > tol * max(1, sigma_1); `rank`, `span_basis`, `null_space`
  and `eigenspace` read it, so spans and null spaces carry orthonormal SVD
  bases;
- one membership rule (`in_span`): a vector lies in the span of
  orthonormal rows when its distance to that span (`span_residuals`, one
  orthogonal projection) is at most tol * (1 + |v|).

Row echelon form stays only for the pivot bookkeeping of quotients.
`eigenspace` has no caller in the package (characters come from one
eigendecomposition); it is kept for API users and because the benchmark
tracer reports on it as a boundary.
"""
from __future__ import annotations

import numpy as np

# Absolute zero test for scalars and vector entries.
ZERO_TOL = 1e-9
# Cut factor for rank decisions: singular values above
# RANK_TOL * max(1, sigma_1) count (rref: pivots above RANK_TOL times the
# largest entry magnitude).
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


def _cut(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(rank, vh) of a 2-d array under the one singular-value cut.

    rank counts sigma_i > tol * max(1, sigma_1); vh holds all n right
    singular vectors as rows, so vh[:rank] spans the rows and
    vh[rank:].conj() the null space. The thin SVD is enough when rows >=
    cols, because vh is then already complete. A zero or empty array has
    rank 0 and vh = I.
    """
    rows, cols = a.shape
    if not a.size or not np.abs(a).max():
        return 0, np.eye(cols, dtype=complex)
    _, sv, vh = np.linalg.svd(a, full_matrices=rows < cols)
    return int(np.sum(sv > tol * max(1.0, float(sv[0])))), vh


def rank(a: np.ndarray, tol: float = RANK_TOL) -> int:
    """Numerical rank of a 2-d array under the singular-value cut."""
    return _cut(np.asarray(a, dtype=complex), tol)[0]


def span_basis(rows, width: int | None = None, tol: float = RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span, one vector per row.

    Computed by SVD rather than row reduction: echelon bases can acquire
    huge entries when a span nearly misses a leading coordinate, and the
    follow-up membership tests then misjudge such bases.
    """
    a = as_matrix(rows, width)
    keep, vh = _cut(a, tol)
    return vh[:keep]


def null_space(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the right null space, one row per basis vector.

    The rows are the conjugated trailing right singular vectors, which
    stays accurate even when the leading columns would make poor
    elimination pivots.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("null_space expects a 2-d array")
    keep, vh = _cut(a, tol)
    return vh[keep:].conj()


def eigenspace(m: np.ndarray, lam: complex, tol: float = 1e-7) -> np.ndarray:
    """Orthonormal basis (rows) of the genuine eigenspace ker(m - lam I)."""
    m = np.asarray(m, dtype=complex)
    return null_space(m - lam * np.eye(m.shape[0]), tol)


def span_residuals(vs, onb: np.ndarray) -> np.ndarray:
    """Distance of each row of vs (a single vector counts as one row) to
    the span of the orthonormal rows onb, by one projection
    v - (v onb^H) onb; onb must be orthonormal, as span_basis returns and
    Subspace.basis holds."""
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    return np.linalg.norm(vs - (vs @ onb.conj().T) @ onb, axis=1)


def in_span(vs, onb: np.ndarray, tol: float = ZERO_TOL) -> np.ndarray:
    """Membership mask of the rows of vs in the span of the orthonormal
    rows onb: residual <= tol * (1 + |v|)."""
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    return span_residuals(vs, onb) <= tol * (1.0 + np.linalg.norm(vs, axis=1))


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
