"""The rank certificate on derivative columns against the same certificate
on the dense Jacobian.

The sample keeps each first derivative as the array its expression
evaluates to on the grid axes, broadcastable to the grid: constant, along
one axis, or full. _rank_deficient screens the grid in blocks of whole
rows and gathers only the undecided points for the Jacobi. Its mask must
equal the all-points Jacobi on the gathered dense Jacobian, and
_gram_clears on the columns must decide every point as it does on the
dense array, for every mix of column shapes, on grids whose leading-axis
rows are larger than a block (m = 3), whose last block holds fewer rows
than the others, and at scales 1e-200 and 1e200. Small integer entries
make exact rank deficiencies common, so both sides of the screen are
reached. Counting tests pin the block bound: no screen or gather array
spans more than JACOBI_BLOCK points, and a plane-pass verdict keeps no
dense Jacobian beside its values.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from diffalg import envelope_verdict, parse_expr
from diffalg import envelope
from diffalg.envelope import (JACOBI_BLOCK, _extreme_singular_values, _gather, _gram_clears,
                              _rank_deficient, _row_blocks)

TOLS = [0.0, 1e-8, 10.0]


def all_jacobi_witnesses(jac: np.ndarray, tol_rank: float) -> np.ndarray:
    top, bottom = _extreme_singular_values(jac)
    with np.errstate(invalid="ignore"):
        return bottom <= tol_rank * np.maximum(top, 1.0)


def column(rng, kind, shape, unit):
    """A column of small integers times unit: the same at every point
    ("const"), varying along one axis ("axis d") or at every point."""
    ndim = len(shape)
    if kind == "const":
        size = (1,) * ndim
    elif kind == "full":
        size = shape
    else:
        axis = int(kind.split()[1])
        size = tuple(n if d == axis else 1 for d, n in enumerate(shape))
    return rng.integers(-2, 3, size).astype(float) * unit


def check(columns, shape, tol):
    dense = _gather(columns, shape)
    assert dense.shape[2] == math.prod(shape)
    mask = _rank_deficient(columns, tol, shape)
    np.testing.assert_array_equal(mask, all_jacobi_witnesses(dense, tol))
    cleared = np.broadcast_to(_gram_clears(columns, tol), shape).ravel()
    np.testing.assert_array_equal(cleared, _gram_clears(dense, tol))
    assert not (cleared & mask).any()
    return mask, cleared


@pytest.mark.parametrize("tol", TOLS)
def test_every_mix_of_column_shapes(tol):
    """All 4^4 assignments of the kinds to the four columns of a 2 x 2
    Jacobian on a 5 x 4 grid, each with two draws of entries."""
    shape = (5, 4)
    kinds = ["const", "axis 0", "axis 1", "full"]
    rng = np.random.default_rng(17)
    decided = undecided = 0
    for mix in itertools.product(kinds, repeat=4):
        for _ in range(2):
            columns = [[column(rng, mix[2 * i + j], shape, 1.0) for j in range(2)]
                       for i in range(2)]
            mask, cleared = check(columns, shape, tol)
            decided += cleared.sum()
            undecided += (~cleared).sum()
    # a tol_rank of 1 or more leaves every point to the Jacobi
    assert undecided and bool(decided) == (tol < 1)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("unit", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("shape, m, k", [
    ((3, 97, 90), 3, 3),   # a leading row of 8730 points: blocks of 91 rows of axis 1
    ((2, 91, 91), 3, 4),   # 8281 points per leading row, 91 per block row
    ((301, 41), 2, 3),     # blocks of 199 rows, the last of 102
    ((9001,), 1, 2),       # one axis: a block of 8192 points and one of 809
    ((2, 3, 40, 210), 2, 2),  # rows of axis 2 within each index of axes 0 and 1
    ((2, 3, 4), 3, 2),     # k < m, every point a witness
])
def test_blocked_columns_classify_as_all_jacobi(shape, m, k, unit, tol):
    rng = np.random.default_rng([len(shape), m, k])
    kinds = ["const", "full"] + [f"axis {d}" for d in range(len(shape))]
    columns = [[column(rng, kinds[rng.integers(len(kinds))], shape, unit) for _ in range(k)]
               for _ in range(m)]
    mask, cleared = check(columns, shape, tol)
    if k < m and tol > 0:
        # sigma_m is 0 up to rounding, which a cut of 0 need not catch
        assert mask.all()


def test_row_blocks_cover_the_grid_in_order():
    for shape in [(3, 97, 90), (301, 41), (9001,), (2, 91, 91), (5, 4), (1, 9000),
                  (2, 3, 40, 210), (2, 2, 9000)]:
        columns = [[np.arange(math.prod(shape), dtype=float).reshape(shape),
                    np.ones((1,) * len(shape))]]
        start = 0
        for first, block, block_shape in _row_blocks(columns, shape):
            assert first == start
            assert math.prod(block_shape) <= JACOBI_BLOCK
            flat = np.broadcast_to(block[0][0], block_shape).ravel()
            np.testing.assert_array_equal(flat, np.arange(start, start + flat.size))
            assert block[0][1].shape == (1,) * len(block_shape)
            start += flat.size
        assert start == math.prod(shape)


def test_a_dense_jacobian_is_its_own_columns():
    rng = np.random.default_rng(5)
    jac = rng.integers(-2, 3, (2, 3, JACOBI_BLOCK + 77)).astype(float)
    np.testing.assert_array_equal(_gather(jac, (jac.shape[2],)), jac)
    points = rng.permutation(jac.shape[2])[:500]
    np.testing.assert_array_equal(_gather(jac, (jac.shape[2],), points), jac[:, :, points])
    np.testing.assert_array_equal(_rank_deficient(jac, 1e-8), all_jacobi_witnesses(jac, 1e-8))


@pytest.fixture
def array_sizes(monkeypatch):
    """Records the points of each block the screen receives and of each
    array the gather builds."""
    seen = {"screen": [], "gather": []}
    screen, gather = envelope._gram_clears, envelope._gather

    def record_screen(block, tol):
        out = screen(block, tol)
        seen["screen"].append(out.size)
        return out

    def record_gather(columns, shape, points=None):
        out = gather(columns, shape, points)
        seen["gather"].append(out.shape[2])
        return out

    monkeypatch.setattr(envelope, "_gram_clears", record_screen)
    monkeypatch.setattr(envelope, "_gather", record_gather)
    return seen


def test_no_screen_or_gather_spans_more_than_a_block(array_sizes):
    # the fold (x^2, y) with a wide x range: its x = 0 row is undecided
    gens = [parse_expr("(pow (var 0) 2)", 2), parse_expr("(+ (var 1) (* (var 0) (var 1)))", 2)]
    verdict = envelope_verdict(gens, [[-1.0, 1.0], [0.0, 1.0]], 301)
    assert verdict.status == "FAIL"
    assert array_sizes["screen"] and array_sizes["gather"]
    assert max(array_sizes["screen"] + array_sizes["gather"]) <= JACOBI_BLOCK
    gens = [parse_expr(t, 3) for t in ("(var 0)", "(var 1)", "(var 2)")]
    array_sizes["screen"].clear()
    assert envelope_verdict(gens, [[0.0, 1.0]] * 3, 101).status == "PASS"
    # each leading row of 101^2 points is more than a block
    assert len(array_sizes["screen"]) > 101
    assert max(array_sizes["screen"]) <= JACOBI_BLOCK


def test_one_variable_sends_every_point_through_the_gather(array_sizes):
    gens = [parse_expr("(sin (var 0))", 1), parse_expr("(cos (var 0))", 1)]
    envelope_verdict(gens, [[0.0, 20.0]], 9001)
    assert array_sizes["screen"] == []
    assert array_sizes["gather"] == [JACOBI_BLOCK, 9001 - JACOBI_BLOCK]


H = 2.0 ** -6


def test_a_plane_pass_verdict_holds_no_dense_jacobian():
    """The (x, y, xy) plane on 201 x 201 points. With the eager (m, k,
    points) Jacobian of 1,939,248 bytes beside the 969,624 bytes of the
    values, the traced peak was 3,952,088 bytes; now no dense Jacobian is
    made, and the peak drops by at least the 1.9 MB of that Jacobian.

    That needs the two other grid-sized arrays gone as well: no derivative
    column of (x, y, xy) fills the grid, since the forward pass computes
    no structural zero and d(xy)/dx is y alone, and the separation check
    bounds the magnitudes of a PASS grid by max|f| instead of forming
    np.abs(values) @ w. The peak is then near 1.99 MB, the values
    and the separation check's keys."""
    gens = [parse_expr(t, 2) for t in ("(var 0)", "(var 1)", "(* (var 0) (var 1))")]
    box = [[-37 * H, 163 * H], [-150 * H, 50 * H]]
    envelope_verdict(gens, box, 201)  # imports made on first use are not counted
    npts = 201 * 201
    values, jacobian = npts * 3 * 8, 2 * 3 * npts * 8
    tracemalloc.start()
    try:
        assert envelope_verdict(gens, box, 201).status == "PASS"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values + jacobian
    assert peak <= 3_952_088 - 1_900_000
