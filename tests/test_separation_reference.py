"""The sort-and-sweep separation check against the definition of the
certificate: every pair of grid points whose generator values differ by at
most tol in each generator.

The reference below compares all pairs, block of rows by block of rows;
both must return the same list, compared by repr so that the sign of a
zero coordinate counts too, on 1-D and 2-D boxes for the identity,
periodic, fold, flat-bump and constant generators, and the bucket-edge
constant. In one dimension every grid from 2 to 201 is checked;
constants, whose pair count is quadratic in the grid, take every grid up
to 40 and then 101 and 201. Families of k = 1..3 generators c_j + b_j x^2
whose constants straddle multiples of 0.5e-7 (the bucket edges of the
earlier rounding scheme, which missed such pairs for k >= 2) are checked
as a property.

Only the points in runs of sorted keys joined by gaps within the widest
window are counted, so a family whose widest window dwarfs a near pair's
own window must still give the reference list, and a refused request
must name the candidate count of a sweep over every point. The witness
order comes from integer grid codes; on boxes with descending,
degenerate and signed-zero axes the separation and tangent lists must be
the sorted brute-force sets.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (Const, DomainError, Prod, Sum, Var, flat_bump, parse_expr, separation_check,
                     tangent_rank_check)
from diffalg import envelope
from diffalg.envelope import MAX_SEPARATION_CANDIDATES

from test_sample_axes import reference_grid_points


def reference_separation_check(gens, box, grid: int, tol: float = 1e-9) -> list:
    grids = reference_grid_points(box, grid)
    # a constant has length 1 along each of the m axes, so on these flat
    # grids its value is raveled and stretched to the points
    values = np.stack([np.broadcast_to(np.ravel(g.eval(grids)), grids[0].shape)
                       for g in gens], axis=1)
    points = [tuple(p) for p in np.stack(grids, axis=1).tolist()]
    npts = values.shape[0]
    pairs = []
    for lo in range(0, npts, 256):
        # rows lo.. against every later point, one generator at a time
        rows = np.arange(lo, min(lo + 256, npts))
        near = np.arange(lo, npts) > rows[:, None]
        for f in values.T:
            near &= np.abs(f[rows, None] - f[lo:]) <= tol
        # in (a, b) index order, so of pairs equal in coordinates the set
        # keeps the first
        for a, b in zip(*np.nonzero(near)):
            pairs.append(tuple(sorted((points[lo + a], points[lo + b]))))
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


@pytest.mark.parametrize("gens", [[Const(0.0)], [Const(0.5e-7), Prod(Var(0), Var(0))]])
def test_separation_zero_tolerance_counts_equal_values(gens):
    # at tol 0 only equal value tuples pair, found by a window of width 0
    # where the values are 0
    assert _same(gens, [(-1.0, 1.0)], 5, 0.0)


def test_separation_window_covers_the_rounding_of_large_keys():
    """Lines c_j x, c_j in [0.5, 2], near 1e6-2e7, where a value's ulp is
    near tol = 1e-9 itself: pairs at the tol border have keys whose
    rounding is of the order of tol, so only the window's margin of eps
    times the magnitude keeps them. On 41 points about tol apart, a sweep
    window of tol alone loses pairs in about one case of eight; on two
    points whose largest difference is near tol, the pair's key gap can
    pass the screen only by the margin of max |f|."""
    rng = np.random.default_rng(2033)
    found = 0
    for grid in (41, 2):
        for _ in range(300):
            c = rng.uniform(0.5, 2.0, rng.integers(2, 5))
            lo = float(rng.uniform(1e6, 2e7))
            width = 40e-9 if grid == 41 else float(1e-9 / c.max() * rng.uniform(0.7, 1.3))
            found += len(_same([Prod(Const(cj), Var(0)) for cj in c], [(lo, lo + width)], grid))
    assert found


def test_separation_reference_fold_on_benchmark_size():
    # the largest candidate count of the envelope corpus: (x^2, y) on 121^2
    pairs = _same(GENS_2D["fold"], [(-1.0, 1.0), (-0.5, 1.5)], 121)
    assert len(pairs) == 60 * 121


@st.composite
def straddle_families(draw):
    """k = 1..3 generators c_j + b_j x^2, each constant a multiple of 0.5e-7
    moved by at most 2e-10, on a box where x^2 spans [0, 1]."""
    k = draw(st.integers(1, 3))
    shift = st.sampled_from([-2e-10, -1e-10, 0.0, 1e-10, 2e-10]) | st.floats(-2e-10, 2e-10)
    gens = []
    for _ in range(k):
        c = draw(st.integers(-4, 4)) * 0.5e-7 + draw(shift)
        b = draw(st.sampled_from([0.0, 2e-10, 1e-9, 3e-3]))
        gens.append(Sum(Const(c), Prod(Const(b), Prod(Var(0), Var(0)))))
    box = draw(st.sampled_from([[(0.0, 1.0)], [(-1.0, 1.0)], [(1.0, 0.0)]]))
    return gens, box, draw(st.integers(2, 30))


@settings(max_examples=400)
@given(straddle_families())
def test_separation_straddle_families_match_reference(family):
    _same(*family)


def test_separation_refuses_too_many_candidates():
    # a constant on 1449 points: 1449 * 1448 / 2 = 1,049,076 distinct
    # candidate pairs, refused before any pair array exists
    grid = 1449
    count = grid * (grid - 1) // 2
    assert count > MAX_SEPARATION_CANDIDATES
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"has {count} candidate pairs"):
            separation_check([Const(1.0)], [(-1.0, 1.0)], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def reference_sweep(gens, box, grid: int, tol: float = 1e-9) -> tuple[int, int]:
    """The sweep over every point with the check's keys and windows, all
    points sorted by one argsort: its candidate count, and the number of
    sorted gaps within the widest window."""
    values = envelope._sample(gens, box, grid, jac=False).values
    k = values.shape[1]
    w = np.random.default_rng(1979).uniform(1.0, 2.0, k)
    w /= w.sum()
    order = np.argsort(values @ w)
    key = (values @ w)[order]
    fp = np.finfo(float)
    window = tol + 2 * (k + 1) * (fp.eps * ((np.abs(values) @ w)[order] + tol)
                                  + fp.smallest_subnormal)
    ends = np.searchsorted(key, key + window, side="right")
    joined = np.count_nonzero(key[1:] <= key[:-1] + window.max())
    return int((ends - np.arange(1, len(key) + 1)).sum()), joined


@pytest.mark.parametrize("gens", [
    [Const(1.0)],
    [Const(0.0), Const(-2.5)],
    [Sum(Const(1.0), Prod(Const(1e-13), Var(0)))],
    [Sum(Const(-3.0), Prod(Const(4e-13), Prod(Var(0), Var(0)))), Const(1e300)],
])
def test_refused_counts_equal_the_sweep_over_every_point(gens):
    # constant and nearly constant families on 1449 points: every pair is a
    # candidate, one run holds every point, and the refusal names the count
    # the sweep over all points makes
    total, _ = reference_sweep(gens, [(-1.0, 1.0)], 1449)
    assert total == 1449 * 1448 // 2 > MAX_SEPARATION_CANDIDATES
    with pytest.raises(DomainError, match=f"has {total} candidate pairs"):
        separation_check(gens, [(-1.0, 1.0)], 1449)


@pytest.mark.parametrize("box, grid", [([(-1.0, 1.0), (0.0, 1.0)], 21),
                                       ([(-0.25, 1.0), (1.0, 0.0)], 11)])
def test_widest_window_far_wider_than_a_pairs_own(box, grid):
    # (x^2, y, 1e12 (x y)^200) is 1e12 at the corner (1, 1) and below 1e-40
    # wherever |x y| <= 0.6, so the widest window is about 1e-3 and joins
    # keys whose values are far apart, while the mirror pairs (-x, y),
    # (x, y) have values of at most 2 and windows near tol
    gens = [parse_expr("(pow (var 0) 2)", 2), Var(1),
            parse_expr("(* (const 1e12) (pow (* (var 0) (var 1)) 200))", 2)]
    assert envelope._sample(gens, box, grid, jac=False).values.max() == 1e12
    pairs = _same(gens, box, grid)
    total, joined = reference_sweep(gens, box, grid)
    # the widest window joins more gaps than the pairs' own windows admit
    assert 0 < len(pairs) == total < joined


AXES = [(-1.0, 1.0), (1.0, -1.0), (0.5, 0.5), (-0.0, 1.0), (1.0, -0.0), (-0.0, 0.0),
        (0.0, -0.0), (-0.5, 0.5), (0.25, -0.75)]
FAMILIES = {
    1: ["(pow (var 0) 2)", "(const 1)", "(* (var 0) (pow (var 0) 2))"],
    2: ["(pow (var 0) 2)", "(var 1)", "(* (var 0) (var 1))", "(pow (var 1) 2)"],
    3: ["(pow (var 0) 2)", "(var 1)", "(* (var 1) (var 2))", "(pow (var 2) 2)"],
}


def reference_tangent_points(gens, box, grid: int) -> list:
    """sorted() of the coordinate tuples of every point the rank
    certificate's Jacobi, run at every point, counts as a witness."""
    sample = envelope._sample(gens, box, grid, values=False)
    jac = envelope._gather(sample.columns, sample.shape)
    top, bottom = envelope._extreme_singular_values(jac)
    points = np.stack(reference_grid_points(box, grid), axis=1)
    return sorted(map(tuple, points[bottom <= 1e-8 * np.maximum(top, 1.0)].tolist()))


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.sampled_from(AXES), min_size=m, max_size=m),
    st.lists(st.sampled_from(FAMILIES[m]), min_size=1, max_size=3),
    st.integers(2, 7 if m < 3 else 4))))
def test_witness_lists_are_the_sorted_brute_force_sets(case):
    box, texts, grid = case
    gens = [parse_expr(text, len(box)) for text in texts]
    _same(gens, box, grid)
    got = tangent_rank_check(gens, box, grid)
    assert repr(got) == repr(reference_tangent_points(gens, box, grid))


@pytest.mark.parametrize("k", range(1, len(envelope._WEIGHTS) + 3))
def test_the_weights_are_the_first_draws_of_the_stream(k):
    want = np.random.default_rng(1979).uniform(1.0, 2.0, k)
    got = envelope._weight_draws(k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_the_stream_is_drawn_only_past_the_stored_draws(monkeypatch):
    made = []
    make = np.random.default_rng

    def record(*args, **kwargs):
        made.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", record)
    n = len(envelope._WEIGHTS)
    gens = [Prod(Const(float(j + 1)), Var(0)) for j in range(n + 1)]
    assert separation_check(gens[:n], [(0.0, 1.0)], 5) == []
    assert made == []
    assert separation_check(gens, [(0.0, 1.0)], 5) == []
    assert made == [(1979,)]
    assert not envelope._WEIGHTS.flags.writeable


def test_importing_the_command_line_builds_no_generator():
    """The stored draws are literals: numpy loads numpy.random on first
    use, about 10 ms, and the import of diffalg.cli does not pay it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, diffalg.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
