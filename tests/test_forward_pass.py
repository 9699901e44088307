"""The forward pass of `Expr.forward`: values and first partials from one
walk of each generator tree, with structural zeros left out.

`_sample` must build no expression node and walk every node once per
generator; a derivative that does not vary along an axis keeps length 1
along it. Against the symbolic derivative rules and the node-by-node evaluation
of `symbolic_diff`, the partials must equal the reference wherever the
reference is finite, up to the sign of a zero, and the values must be the
same bits.
"""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import Const, Expr, Var, parse_expr
from diffalg import envelope

from symbolic_diff import diff, evaluate
from test_sample_axes import BOXES, GRIDS, bits, forms, reference_grid_points


def _node_classes():
    todo, seen = [Expr], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _nodes(e):
    yield e
    for child in ("a", "b", "base", "arg"):
        if hasattr(e, child):
            yield from _nodes(getattr(e, child))


PLANE = ["(var 0)", "(var 1)", "(* (var 0) (var 1))"]
PLANE_BOX = [[-37 * 2.0 ** -6, 163 * 2.0 ** -6], [-150 * 2.0 ** -6, 50 * 2.0 ** -6]]


def test_sample_builds_no_expression_node(monkeypatch):
    gens = [parse_expr(t, 2) for f in forms(2).values() for t in f]
    built = []
    for cls in _node_classes():
        if "__init__" in vars(cls):
            def counted(self, *args, _init=vars(cls)["__init__"], **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
    parse_expr("(sin (var 0))", 1)
    assert built == ["Var", "Sin"]
    built.clear()
    sample = envelope._sample(gens, BOXES[2], 9)
    assert sample.columns is not None and built == []


def test_every_node_is_walked_once_per_generator(monkeypatch):
    gens = [parse_expr(t, 3) for f in forms(3).values() for t in f]
    walks = []
    for cls in _node_classes():
        if "forward" in vars(cls):
            def counted(self, grids, m, _forward=vars(cls)["forward"]):
                walks.append(id(self))
                return _forward(self, grids, m)
            monkeypatch.setattr(cls, "forward", counted)
    envelope._sample(gens, BOXES[3], 5)
    want = sorted(id(node) for g in gens for node in _nodes(g))
    assert sorted(walks) == want


def test_plane_columns_do_not_fill_the_grid():
    gens = [parse_expr(t, 2) for t in PLANE]
    sample = envelope._sample(gens, PLANE_BOX, 201)
    for row in sample.columns:
        for col in row:
            assert col.ndim == 2
            assert sum(n > 1 for n in col.shape) <= 1
    # d(xy)/dx is y and d(xy)/dy is x; the linear generators' partials are
    # the constants 1 and 0, the zero one shared array
    assert sample.columns[0][2].shape == (1, 201) and sample.columns[1][2].shape == (201, 1)
    assert sample.columns[0][1] is sample.columns[1][0]
    assert not sample.columns[0][1].flags.writeable
    assert sample.columns[0][0].shape == (1, 1) and sample.columns[0][0][0, 0] == 1.0


def test_structural_zeros_are_none():
    grids = [np.linspace(0.0, 1.0, 3)]
    assert Const(2.0).forward(grids, 1)[1] == [None]
    assert Var(0).forward(grids + grids, 2)[1] == [1.0, None]
    e = parse_expr("(* (sin (const 3)) (exp (var 1)))", 2)
    value, (dx, dy) = e.forward(grids + grids, 2)
    assert dx is None and np.array_equal(bits(value), bits(e.eval(grids + grids)))


def _overflowing(m: int) -> list[str]:
    """Families whose symbolic derivatives multiply a zero by an overflowed
    subexpression at some points, so the reference is NaN there."""
    last = f"(var {m - 1})"
    return [f"(* (var 0) (exp (* (const 800) {last})))",
            f"(+ (var 0) (exp (* (const -1) (exp (exp (* (const 1000) {last}))))))",
            f"(sin (* (exp (* (const 900) (var 0))) {last}))"]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("form", list(forms(1)) + ["overflow"])
def test_partials_are_the_reference_where_it_is_finite(m, form):
    texts = _overflowing(m) if form == "overflow" else forms(m)[form]
    gens = [parse_expr(text, m) for text in texts]
    judged = 0
    for grid in GRIDS[m]:
        axes = envelope._grid_axes(BOXES[m], grid)
        shape = (grid,) * m
        points = reference_grid_points(BOXES[m], grid)
        with np.errstate(all="ignore"):
            for g in gens:
                value, partials = g.forward(axes, m)
                assert np.array_equal(bits(np.broadcast_to(value, shape).ravel()),
                                      bits(evaluate(g, points)))
                for i, d in enumerate(partials):
                    want = evaluate(diff(g, i), points)
                    got = np.broadcast_to(0.0 if d is None else d, shape).ravel()
                    finite = np.isfinite(want)
                    assert np.array_equal(bits(got[finite], False), bits(want[finite], False))
                    judged += int((~finite & np.isfinite(got)).sum())
    # where the reference's NaN is a zero times an overflow, the forward
    # pass computes no such product
    assert (judged > 0) == (form == "overflow" and m > 1)
