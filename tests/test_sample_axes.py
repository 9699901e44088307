"""Sampling on broadcast axes against sampling on the full meshgrid.

`envelope._sample` walks each generator once on the m broadcastable axes
for its value and first derivatives; it writes the values into their slot
by broadcast assignment and keeps the derivatives as columns, which
`_Sample.jacobian()` gathers. The reference below is the earlier
construction, with `symbolic_diff`: every expression and its symbolic
derivative trees evaluated node by node on the raveled meshgrid, the
values stacked and the Jacobian filled row by row. Values and flat
coordinates must be the same bits, and the Jacobian (at every point and
at scattered points) the same bits up to the sign of a zero, which the
forward pass's skipped structural zeros can flip, for every expression
form (constants only, sums, products, powers, sin, cos, exp and the flat
bump), on one, two and three axes; a value that is not finite must be
refused with the same message.
"""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import DomainError, parse_expr
from diffalg import envelope

from symbolic_diff import diff, evaluate


def reference_grid_points(box, grid):
    """The coordinates of every grid point from the full meshgrid, one flat
    array per axis; the separation and rank references sample on these."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    return [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]


def reference_sample(gens, box, grid):
    grids = reference_grid_points(box, grid)
    m, npts = len(grids), len(grids[0])
    bad = np.zeros(npts, dtype=bool)
    with np.errstate(all="ignore"):
        columns = [np.asarray(evaluate(g, grids), dtype=float) for g in gens]
        for col in columns:
            bad |= ~np.isfinite(col)
        vals = np.stack(columns, axis=1)
        jacobian = np.empty((m, len(gens), npts))
        for j, g in enumerate(gens):
            for i in range(m):
                jacobian[i, j] = evaluate(diff(g, i), grids)
        bad |= ~np.isfinite(jacobian).all(axis=(0, 1))
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise DomainError(f"generator values or first derivatives are not finite at "
                          f"{int(bad.sum())} of {npts} sample points, the first at "
                          f"{[float(g[first]) for g in grids]}")
    return grids, vals, jacobian


def bits(a: np.ndarray, zero_sign: bool = True) -> np.ndarray:
    """The bit patterns of a; with zero_sign=False, -0.0 reads as +0.0."""
    a = np.ascontiguousarray(a)
    return (a if zero_sign else a + 0.0).view(np.int64)


def forms(m: int) -> dict[str, list[str]]:
    """Generator families of every expression form on m variables; some
    use only the last variable, so their arrays broadcast along the rest."""
    last = f"(var {m - 1})"
    total = "(var 0)"
    for i in range(1, m):
        total = f"(+ {total} (* (const {0.7 + i!r}) (var {i})))"
    return {
        "const": ["(const 2.5)", "(+ (const 1) (const -0.0))"],
        "poly": [total, f"(pow {last} 3)", f"(* (var 0) {last})",
                 f"(pow (+ {total} (const 0.3)) 3)"],
        "sin": [f"(sin (* (const 6.283185307179586) {total}))", f"(sin {last})"],
        "cos": [f"(cos {total})", f"(cos (* (const 3.5) (var 0)))"],
        "exp": [f"(exp {total})", f"(exp (* (const -2) (pow {last} 2)))"],
        "flatbump": [f"(flatbump {total})", f"(flatbump {last})",
                     f"(* (var 0) (flatbump (+ {last} (const -0.25))))"],
    }


BOXES = {1: [[-1.0, 1.0]], 2: [[-1.0, 1.0], [0.5, -0.0]],
         3: [[-0.5, 1.5], [1.0, -1.0], [-0.0, 2.0]]}
GRIDS = {1: [2, 7, 801], 2: [2, 9, 121], 3: [2, 5, 23]}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("form", list(forms(1)))
def test_broadcast_sample_is_the_meshgrid_sample(m, form):
    gens = [parse_expr(text, m) for text in forms(m)[form]]
    for grid in GRIDS[m]:
        grids, vals, jac = reference_sample(gens, BOXES[m], grid)
        sample = envelope._sample(gens, BOXES[m], grid)
        assert sample.values.shape == vals.shape and sample.jacobian().shape == jac.shape
        assert np.array_equal(bits(sample.values), bits(vals))
        assert np.array_equal(bits(sample.jacobian(), False), bits(jac, False))
        points = np.random.default_rng(grid).permutation(grid ** m)[:grid]
        assert np.array_equal(bits(sample.jacobian(points), False),
                              bits(jac[:, :, points], False))
        for got, want in zip(sample.grids, grids):
            assert np.array_equal(bits(got), bits(want))
        assert [ax.size for ax in sample.axes] == [grid] * m


@pytest.mark.parametrize("m", [1, 2, 3])
def test_grid_points_are_the_meshgrid(m):
    for grid in GRIDS[m]:
        for got, want in zip(envelope._Sample(envelope._grid_axes(BOXES[m], grid)).grids,
                             reference_grid_points(BOXES[m], grid)):
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("values, jac", [(True, False), (False, True)])
def test_one_array_only(values, jac):
    gens = [parse_expr(text, 2) for text in forms(2)["sin"]]
    _, vals, jacobian = reference_sample(gens, BOXES[2], 9)
    sample = envelope._sample(gens, BOXES[2], 9, values=values, jac=jac)
    assert (sample.values is None) != values and (sample.columns is None) != jac
    if values:
        assert np.array_equal(bits(sample.values), bits(vals))
    else:
        assert np.array_equal(bits(sample.jacobian(), False), bits(jacobian, False))


@pytest.mark.parametrize("m, text", [
    (1, "(exp (* (const 1000) (var 0)))"),
    (2, "(exp (* (const 1500) (var 1)))"),
    (3, "(* (var 0) (exp (* (const 900) (var 2))))"),
    (2, "(pow (* (const 1e200) (var 0)) 2)"),
])
def test_values_that_are_not_finite_are_refused_as_before(m, text):
    gens = [parse_expr(text, m), parse_expr("(var 0)", m)]
    with pytest.raises(DomainError) as want:
        reference_sample(gens, BOXES[m], 5)
    with pytest.raises(DomainError) as got:
        envelope._sample(gens, BOXES[m], 5)
    assert str(got.value) == str(want.value)
