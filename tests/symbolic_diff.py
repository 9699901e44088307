"""The symbolic derivative rules of `Expr.diff` and the node-by-node
evaluation of `Expr.eval` from before the forward pass replaced both,
kept as the reference the forward pass is tested against: diff(e, i) is a
new expression tree for d e / d x_i, with the constant 0 and 1 factors
that the rules produce left in it, and evaluate(e, grids) evaluates a
tree one node at a time.
"""
from __future__ import annotations

import numpy as np

from diffalg import Const, Cos, Exp, FlatBumpTimes, Pow, Prod, Sin, Sum, Var


def evaluate(e, grids):
    if isinstance(e, Const):
        return np.full_like(grids[0], e.value, dtype=float)
    if isinstance(e, Var):
        return grids[e.index]
    if isinstance(e, Sum):
        return evaluate(e.a, grids) + evaluate(e.b, grids)
    if isinstance(e, Prod):
        return evaluate(e.a, grids) * evaluate(e.b, grids)
    if isinstance(e, Pow):
        return evaluate(e.base, grids) ** e.power
    if isinstance(e, (Sin, Cos, Exp)):
        return {Sin: np.sin, Cos: np.cos, Exp: np.exp}[type(e)](evaluate(e.a, grids))
    if isinstance(e, FlatBumpTimes):
        t = evaluate(e.arg, grids)
        safe = np.where(t == 0.0, 1.0, t)
        with np.errstate(divide="ignore", over="ignore"):
            val = np.where(t == 0.0, 0.0, np.exp(-1.0 / safe ** 2))
            if e.power:
                val = np.divide(val, safe ** e.power, out=np.zeros_like(val),
                                where=val != 0.0)
        return val
    raise TypeError(f"no evaluation rule for {type(e).__name__}")


def diff(e, i: int):
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if i == e.index else 0.0)
    if isinstance(e, Sum):
        return Sum(diff(e.a, i), diff(e.b, i))
    if isinstance(e, Prod):
        return Sum(Prod(diff(e.a, i), e.b), Prod(e.a, diff(e.b, i)))
    if isinstance(e, Pow):
        inner = diff(e.base, i)
        if e.power == 1:
            return inner
        lowered = Pow(e.base, e.power - 1) if e.power > 2 else e.base
        return Prod(Const(e.power), Prod(lowered, inner))
    if isinstance(e, Sin):
        return Prod(Cos(e.a), diff(e.a, i))
    if isinstance(e, Cos):
        return Prod(Const(-1.0), Prod(Sin(e.a), diff(e.a, i)))
    if isinstance(e, Exp):
        return Prod(Exp(e.a), diff(e.a, i))
    if isinstance(e, FlatBumpTimes):
        grown = Sum(Prod(Const(2.0), FlatBumpTimes(e.arg, e.power + 3)),
                    Prod(Const(-float(e.power)), FlatBumpTimes(e.arg, e.power + 1)))
        return Prod(grown, diff(e.arg, i))
    raise TypeError(f"no derivative rule for {type(e).__name__}")
