"""The sort-based separation check against the bucket-and-combinations
loop it replaces.

The reference below is the earlier implementation, kept verbatim as the
equality gate: both must return the same list, compared by repr so that
the sign of a zero coordinate counts too, on 1-D and 2-D boxes for the
identity, periodic, fold, flat-bump and constant generators, and the
bucket-edge constant. In one dimension every grid from 2 to 201 is
checked; constants, whose pair count is quadratic in the grid, take every
grid up to 40 and then 101 and 201.
"""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from diffalg import Const, DomainError, Prod, Var, flat_bump, parse_expr, separation_check
from diffalg.envelope import MAX_SEPARATION_CANDIDATES, _grid_points


def reference_separation_check(gens, box, grid: int, tol: float = 1e-9) -> list:
    grids = _grid_points(box, grid)
    values = np.stack([np.asarray(g.eval(grids), dtype=float) for g in gens], axis=1)
    npts = values.shape[0]
    quantum = 1e-7
    candidates = set()
    for offset in (0.0, 0.5):
        buckets: dict = {}
        keys = np.round(values / quantum + offset).astype(np.int64)
        for idx in range(npts):
            buckets.setdefault(keys[idx].tobytes(), []).append(idx)
        for members in buckets.values():
            for a, b in itertools.combinations(members, 2):
                candidates.add((a, b))
    pairs = []
    for a, b in candidates:
        if np.abs(values[a] - values[b]).max() <= tol:
            pa = tuple(float(g[a]) for g in grids)
            pb = tuple(float(g[b]) for g in grids)
            pairs.append(tuple(sorted((pa, pb))))
    return sorted(set(pairs))


TAU = 6.283185307179586
GENS_1D = {
    "identity": [Var(0)],
    "periodic": [parse_expr(f"(sin (* (const {TAU}) (var 0)))", 1),
                 parse_expr(f"(cos (* (const {TAU}) (var 0)))", 1)],
    "fold": [Prod(Var(0), Var(0))],
    "flat-bump": [flat_bump(Var(0))],
    "constant": [Const(1.0)],
    "bucket-edge": [Const(0.5e-7)],
}
GENS_2D = {
    "identity": [Var(0), Var(1)],
    "periodic": [parse_expr(f"(sin (* (const {TAU}) (var 0)))", 2),
                 parse_expr(f"(cos (* (const {TAU}) (var 0)))", 2), Var(1)],
    "fold": [Prod(Var(0), Var(0)), Var(1)],
    "flat-bump": [flat_bump(Var(0)), flat_bump(Var(1))],
    "constant": [Const(-2.5), Const(0.5e-7)],
}


def _same(gens, box, grid, tol=1e-9):
    got = separation_check(gens, box, grid, tol)
    assert repr(got) == repr(reference_separation_check(gens, box, grid, tol)), (box, grid)
    return got


QUADRATIC = {"constant", "bucket-edge"}


@pytest.mark.parametrize("name", sorted(GENS_1D))
@pytest.mark.parametrize("box", [[(-1.0, 1.0)], [(-0.75, 2.0)]])
def test_separation_matches_reference_1d(name, box):
    grids = [*range(2, 41), 101, 201] if name in QUADRATIC else range(2, 202)
    for grid in grids:
        _same(GENS_1D[name], box, grid)


@pytest.mark.parametrize("name", sorted(GENS_2D))
@pytest.mark.parametrize("grid", [2, 3, 16, 20])
def test_separation_matches_reference_2d(name, grid):
    _same(GENS_2D[name], [(-1.0, 1.0), (-0.5, 1.5)], grid)


def test_separation_difference_equal_to_tol_counts():
    # values k 2^-42 on a dyadic grid: neighbours differ by exactly tol
    pairs = _same([Prod(Const(2.0 ** -40), Var(0))], [(0.0, 1.0)], 5, 2.0 ** -42)
    assert pairs == [((0.0,), (0.25,)), ((0.25,), (0.5,)), ((0.5,), (0.75,)),
                     ((0.75,), (1.0,))]


def test_separation_reference_fold_on_benchmark_size():
    # the largest candidate count of the envelope corpus: (x^2, y) on 121^2
    pairs = _same(GENS_2D["fold"], [(-1.0, 1.0), (-0.5, 1.5)], 121)
    assert len(pairs) == 60 * 121


def test_separation_refuses_too_many_candidates():
    # a constant on 1449 points: 1449 * 1448 / 2 = 1,049,076 candidate
    # pairs under each offset, refused before any pair array exists
    grid = 1449
    count = 2 * (grid * (grid - 1) // 2)
    assert count > MAX_SEPARATION_CANDIDATES
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"has {count} candidate pairs"):
            separation_check([Const(1.0)], [(-1.0, 1.0)], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
