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
`close_mask` decides max-norm closeness of row pairs (character
matching and deduplication) exactly, after a screen by one product.
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
        # one rank-one update of every other row; a row with 0 in column c
        # changes only in the sign of its zeros, which the flush below clears
        col = a[:, c].copy()
        col[r] = 0.0
        a -= col[:, None] * a[r]
        pivots.append(c)
        r += 1
    out = a[: len(pivots)]
    # flush roundoff below threshold so canonical bases compare cleanly
    out = np.where(np.abs(out) <= thresh, 0.0, out)
    # exact zeros on the pivot pattern
    out[np.arange(len(pivots)), pivots] = 1.0
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


def span_basis(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span of a 2-d array, one
    vector per row.

    Computed by SVD rather than row reduction: echelon bases can acquire
    huge entries when a span nearly misses a leading coordinate, and the
    follow-up membership tests then misjudge such bases.
    """
    keep, vh = _cut(np.asarray(a, dtype=complex), tol)
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


def apply_rows(m: np.ndarray, vs) -> np.ndarray:
    """m @ v for each row v of the stack vs (..., n): one GEMV per row, the
    kernel that m @ v runs for one vector, so a row's image does not
    depend on the stack it came in."""
    return (m @ np.asarray(vs)[..., None])[..., 0]


def close_mask(a, b, tol: float) -> np.ndarray:
    """mask[i, j] = max_k |a[i, k] - b[j, k]| <= tol for the rows of a
    (m, n) and b (p, n): that expression decides each pair that passes a
    screen, and no pair that fails the screen can satisfy it.

    A pair within tol in the max norm is within sqrt(n) tol in the 2-norm,
    so the squared distances |a_i|^2 + |b_j|^2 - 2 Re(a_i . conj(b_j)), read
    from one product, screen the pairs. Their rounding error is below
    (4n + 8) eps (|a_i| + |b_j|)^2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), which the screen adds as a margin, and a
    non-finite distance passes the screen, so no pair within tol is lost.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        dist = (na ** 2)[:, None] + nb ** 2 - 2.0 * (a @ b.conj().T).real
        margin = (4 * n + 8) * np.finfo(float).eps * (na[:, None] + nb) ** 2
        i, j = np.nonzero(~(dist > n * tol * tol + margin))
        mask = np.zeros(dist.shape, dtype=bool)
        mask[i, j] = np.abs(a[i] - b[j]).max(axis=1, initial=0.0) <= tol
    return mask
