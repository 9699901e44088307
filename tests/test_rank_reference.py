"""The one-sided Jacobi rank certificate against the batched LAPACK SVD
rule it replaces.

The reference below is the earlier decision, kept as the equality gate:
the smallest singular value of each m x k Jacobian (0 when k < m, where
the earlier code indexed past the end) is compared with tol_rank times
max(largest, 1). On seeded batches the witness masks must be identical and
both extreme singular values must agree within 8 sqrt(k) eps sigma_1, for
m in 1..4 and k in 1..5: Gaussian matrices, rank-deficient products, rows
scaled so that sigma_m / sigma_1 sits 1e-3 either side of the 1e-8 cut,
overall scales of 1e-200 and 1e200, and all-zero Jacobians.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffalg import Prod, Var, envelope_verdict, flat_bump, parse_expr, tangent_rank_check
from diffalg.envelope import JACOBI_BLOCK, _extreme_singular_values

from symbolic_diff import diff, evaluate
from test_sample_axes import reference_grid_points

EPS = np.finfo(float).eps
TOL_RANK = 1e-8


def reference_singular_values(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_1 and sigma_m of every jac[t] (points first, m x k) by LAPACK."""
    m = jac.shape[1]
    sing = np.linalg.svd(jac, compute_uv=False)
    bottom = sing[:, m - 1] if sing.shape[1] >= m else np.zeros(len(jac))
    return sing[:, 0], bottom


def reference_tangent_rank_check(gens, box, grid: int, tol_rank: float = TOL_RANK) -> list:
    grids = reference_grid_points(box, grid)
    m = len(grids)
    jac = np.empty((len(grids[0]), m, len(gens)), dtype=float)
    for j, g in enumerate(gens):
        for i in range(m):
            jac[:, i, j] = np.asarray(evaluate(diff(g, i), grids), dtype=float)
    top, bottom = reference_singular_values(jac)
    degenerate = bottom <= tol_rank * np.maximum(top, 1.0)
    points = [tuple(float(g[idx]) for g in grids) for idx in np.nonzero(degenerate)[0]]
    return sorted(points)


def _compare(jac: np.ndarray):
    """jac is points first (n, m, k); the kernel reads it as (m, k, n)."""
    k = jac.shape[2]
    ref_top, ref_bottom = reference_singular_values(jac)
    top, bottom = _extreme_singular_values(np.ascontiguousarray(jac.transpose(1, 2, 0)))
    bound = 8.0 * np.sqrt(k) * EPS * ref_top
    assert np.all(np.abs(top - ref_top) <= bound)
    assert np.all(np.abs(bottom - ref_bottom) <= bound)
    ref_mask = ref_bottom <= TOL_RANK * np.maximum(ref_top, 1.0)
    mask = bottom <= TOL_RANK * np.maximum(top, 1.0)
    np.testing.assert_array_equal(mask, ref_mask)
    return mask


def _near_cut(rng, m, k):
    """Jacobians whose smallest nonzero singular value is 1e-8 * (1 +- 1e-3)
    times sigma_1, with the mask of the points that must be witnesses.
    With a single singular value it is sigma_1 itself that sits at 1e-8,
    where the cut is absolute; with k < m every point is a witness."""
    r = min(m, k)
    sing = np.sort(rng.uniform(1.0, 2.0, (N, r)), axis=1)[:, ::-1]
    side = rng.choice([-1.0, 1.0], size=N)
    sing[:, -1] = (sing[:, 0] if r > 1 else 1.0) * TOL_RANK * (1.0 + 1e-3 * side)
    u, _, vt = np.linalg.svd(rng.standard_normal((N, m, k)), full_matrices=False)
    return (u * sing[:, None, :]) @ vt, (side < 0) | (k < m)


SHAPES = [(m, k) for m in range(1, 5) for k in range(1, 6)]
N = JACOBI_BLOCK + 1000  # a whole block of the kernel and part of the next


@pytest.mark.parametrize("m, k", SHAPES)
def test_gaussian_batches(m, k):
    rng = np.random.default_rng([m, k, 1])
    mask = _compare(rng.standard_normal((N, m, k)))
    assert mask.all() == (k < m)


@pytest.mark.parametrize("m, k", SHAPES)
def test_rank_deficient_products(m, k):
    rng = np.random.default_rng([m, k, 2])
    rank = rng.integers(1, min(m, k) + 1, size=N)
    left = rng.standard_normal((N, m, min(m, k)))
    right = rng.standard_normal((N, min(m, k), k))
    keep = np.arange(min(m, k)) < rank[:, None]
    mask = _compare((left * keep[:, None, :]) @ right)
    assert np.array_equal(mask, rank < m)


@pytest.mark.parametrize("m, k", SHAPES)
def test_points_on_both_sides_of_the_cut(m, k):
    rng = np.random.default_rng([m, k, 3])
    jac, below = _near_cut(rng, m, k)
    np.testing.assert_array_equal(_compare(jac), below)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("m, k", SHAPES)
def test_extreme_scales(m, k, scale):
    rng = np.random.default_rng([m, k, 4])
    _compare(scale * rng.standard_normal((N, m, k)))
    jac, below = _near_cut(rng, m, k)
    mask = _compare(scale * jac)
    # below 1 the cut is absolute, so every tiny point is a witness; with
    # one variable no huge point is
    if scale < 1:
        below[:] = True
    elif m == 1:
        below[:] = False
    np.testing.assert_array_equal(mask, below)


@pytest.mark.parametrize("m, k", SHAPES)
def test_zero_jacobians_are_witnesses(m, k):
    rng = np.random.default_rng([m, k, 5])
    jac = rng.standard_normal((N, m, k))
    jac[::3] = 0.0
    mask = _compare(jac)
    assert mask[::3].all()


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
              elements=st.integers(-3, 3).map(float)),
       st.integers(-300, 300))
def test_small_integer_matrices_agree(matrix, exponent):
    # exact rank deficiencies are common among small integer entries
    _compare(np.ldexp(matrix, exponent)[None])


TAU = 6.283185307179586
BOX1 = [(-1.0, 1.0)]
BOX2 = [(-1.0, 1.0), (-1.0, 1.0)]
FAMILIES = {
    "square-cube": ([parse_expr("(pow (var 0) 2)", 1), parse_expr("(pow (var 0) 3)", 1)],
                    BOX1),
    "identity": ([Var(0)], BOX1),
    "periodic": ([parse_expr(f"(sin (* (const {TAU}) (var 0)))", 1),
                  parse_expr(f"(cos (* (const {TAU}) (var 0)))", 1)], BOX1),
    "plane": ([Var(0), Var(1), Prod(Var(0), Var(1))], BOX2),
    "fold": ([Prod(Var(0), Var(0)), Var(1)], BOX2),
    "flat-bump": ([flat_bump(Var(0))], BOX1),
    "too-few-generators": ([Var(0)], BOX2),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("grid", [21, 301])
def test_families_match_reference(name, grid):
    gens, box = FAMILIES[name]
    got = tangent_rank_check(gens, box, grid)
    assert repr(got) == repr(reference_tangent_rank_check(gens, box, grid))


def test_fewer_generators_than_variables_flags_every_point():
    pts = tangent_rank_check([Var(0)], BOX2, 5)
    axis = np.linspace(-1.0, 1.0, 5).tolist()
    assert pts == [(x, y) for x in axis for y in axis]


def test_envelope_no_longer_calls_lapack_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for gens, box in FAMILIES.values():
        tangent_rank_check(gens, box, 21)
        envelope_verdict(gens, box, 21)
