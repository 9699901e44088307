"""Jet spaces of truncated polynomial algebras.

The jet of order n at a point s keeps exactly the Taylor data of order n:
the quotient of polynomials (degree <= D) by the subspace of polynomials
vanishing at s to order n+1. In the chart basis e^k = (x - s)^k the
quotient becomes the truncated polynomial algebra of degree n, and two
independent computations of the same class are available: Taylor
coefficients from the derivative rows at s, and chart coordinates from the
shift by +s, which is the exact inverse of the chart matrix.

The vanishing subspace ("ideal power") is a genuine power of the maximal
ideal when computed with true polynomial products intersected back into
degree <= D; as a set it equals the span of chart monomials of chart
degree >= n and the null space of the derivative evaluations of order
< n. Jet spaces use the former: the chart matrix is unit triangular, so
the dimension is fixed by the structure and no rank cut decides it, and
one QR makes those chart columns orthonormal. `ideal_power` keeps the
null-space route as the cross-check.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import Element, LinearOp, PolyAlgebra, Subspace, truncated_poly
from .diffcalc import RelativeOp, diff_order
from .errors import DomainError, NumericError
from .multiindex import mi_count

__all__ = [
    "ChartBasis",
    "JetSpace",
    "jet_space",
    "maximal_ideal",
    "ideal_power",
    "ideal_power_chart",
    "jet_project",
    "taylor_truncate",
    "quotient_seminorm",
    "induced_jet_map",
]


def _point(algebra: PolyAlgebra, s) -> np.ndarray:
    s = np.asarray(s, dtype=float).ravel()
    if s.shape != (algebra.mvars,):
        raise ValueError("point dimension does not match the variable count")
    if not np.isfinite(s).all():
        raise ValueError(f"point {s.tolist()} is not finite")
    return s


def _check_reach(point: np.ndarray, degree: int) -> None:
    """Refuse a point whose largest |coordinate|^degree is not finite: the
    chart and the derivative rows at it would hold infinities."""
    with np.errstate(over="ignore"):
        reach = np.abs(point).max(initial=0.0) ** degree
    if not np.isfinite(reach):
        raise DomainError(f"jet point {point.tolist()} is out of reach: its largest "
                          f"coordinate to the power {degree} is not finite")


def _f_coords(algebra: PolyAlgebra, f) -> np.ndarray:
    if isinstance(f, Element):
        if f.algebra is not algebra:
            raise DomainError("polynomial belongs to a different algebra")
        return f.coords
    if isinstance(f, dict):
        out = np.zeros(algebra.dim, dtype=complex)
        for k, c in f.items():
            k = tuple(int(t) for t in k)
            if k not in algebra.exp_index:
                raise ValueError(f"exponent {k} outside the degree bound")
            out[algebra.exp_index[k]] = c
        return out
    f = np.asarray(f, dtype=complex).ravel()
    if f.shape != (algebra.dim,):
        raise ValueError("coefficient vector length mismatch")
    return f


def _eval_row(algebra: PolyAlgebra, s: np.ndarray) -> np.ndarray:
    return algebra.table.monomials(s).astype(complex)


def _derivative_rows(algebra: PolyAlgebra, s: np.ndarray, n: int) -> np.ndarray:
    """Rows f -> (d^k f)(s) for the multi-indices |k| <= n, in graded order."""
    return algebra.table.derivative_rows(s, n).astype(complex)


class ChartBasis:
    """Monomials centered at a point, as a change of basis.

    Column k holds the absolute-monomial coefficients of (x - point)^k;
    the matrix is triangular in the graded order with unit diagonal, so
    the change of basis is exactly invertible: its inverse is the shift by
    +point.
    """

    def __init__(self, algebra: PolyAlgebra, point):
        self.algebra = algebra
        self.point = _point(algebra, point)
        self.matrix = algebra.table.shift(-self.point)

    def to_chart(self, coords) -> np.ndarray:
        coords = _f_coords(self.algebra, coords)
        return self.algebra.table.shift(self.point) @ coords

    def from_chart(self, chart_coords) -> np.ndarray:
        chart_coords = np.asarray(chart_coords, dtype=complex).ravel()
        return self.matrix @ chart_coords


def maximal_ideal(algebra: PolyAlgebra, s) -> Subspace:
    """Polynomials vanishing at the point; codimension one."""
    s = _point(algebra, s)
    return Subspace._from_orthonormal(
        algebra, la.null_space(_eval_row(algebra, s).reshape(1, -1)))


def ideal_power(algebra: PolyAlgebra, s, n: int) -> Subspace:
    """Polynomials vanishing at the point to order n (all partials of
    order < n zero), within the degree bound."""
    s = _point(algebra, s)
    if n <= 0:
        return Subspace.whole(algebra)
    return Subspace._from_orthonormal(
        algebra, la.null_space(_derivative_rows(algebra, s, n - 1)))


def _chart_span(chart: ChartBasis, first: int) -> Subspace:
    """Span of the chart columns from `first` on. They are independent (the
    chart matrix is unit triangular), so one QR without a rank cut makes
    them orthonormal."""
    q, _ = np.linalg.qr(chart.matrix[:, first:])
    return Subspace._from_orthonormal(chart.algebra, q.T.astype(complex))


def ideal_power_chart(algebra: PolyAlgebra, s, n: int) -> Subspace:
    """Span of centered monomials of chart degree >= n."""
    chart = ChartBasis(algebra, s)
    return _chart_span(chart, mi_count(algebra.mvars, n - 1) if n > 0 else 0)


class JetSpace:
    """Order-n jets at a point, with both projection routes."""

    def __init__(self, base: PolyAlgebra, point, order: int):
        if not 0 <= order <= base.degree:
            raise ValueError("jet order must lie within the degree bound")
        self.base = base
        self.point = _point(base, point)
        _check_reach(self.point, base.degree)
        self.order = order
        self.chart = ChartBasis(base, self.point)
        self.quotient = truncated_poly(base.mvars, order)
        # the order-(n+1) vanishing subspace: chart monomials of chart degree > n
        self.ideal = _chart_span(self.chart, self.quotient.dim)
        # the rows f -> (d^k f)(point) / k!, |k| <= n, read off Taylor coefficients
        rows = _derivative_rows(base, self.point, order)
        rows /= self.quotient.table.factorials()[:, None]
        self.projection = LinearOp(rows, base, self.quotient)

    def project_taylor(self, f) -> Element:
        return self.projection(_f_coords(self.base, f))

    def project_solve(self, f) -> Element:
        chart_coords = self.chart.to_chart(_f_coords(self.base, f))
        return Element(self.quotient, chart_coords[:self.quotient.dim])

    def __repr__(self):
        return (f"<JetSpace m={self.base.mvars} D={self.base.degree} "
                f"n={self.order} at {self.point}>")


def jet_space(algebra: PolyAlgebra, s, n: int) -> JetSpace:
    """The order-n jet space at s, cached in the algebra's jet_cache."""
    s = _point(algebra, s)
    key = (tuple(float(x) for x in s), int(n))
    space = algebra.jet_cache.get(key)
    if space is None:
        space = algebra.jet_cache[key] = JetSpace(algebra, s, n)
    return space


def jet_project(algebra: PolyAlgebra, f, s, n: int,
                route: str = "taylor") -> Element:
    """Class of f in the order-n jet quotient at s.

    route="taylor" reads off Taylor coefficients from the derivative rows;
    route="solve" expands f in the chart basis by the shift by +s. The two
    agree to rounding and are compared against each other in the test
    suite.
    """
    space = jet_space(algebra, s, n)
    if route == "taylor":
        return space.project_taylor(f)
    if route == "solve":
        return space.project_solve(f)
    raise ValueError(f"unknown route {route!r}")


def taylor_truncate(algebra: PolyAlgebra, f, s, n: int) -> Element:
    """The unique combination of centered monomials of chart degree <= n
    with the same order-n jet at s as f."""
    space = jet_space(algebra, s, n)
    jet = space.project_taylor(f)
    q = space.quotient.dim
    coords = space.chart.matrix[:, :q] @ jet.coords
    return Element(algebra, coords)


def quotient_seminorm(algebra: PolyAlgebra, f, s, n: int) -> float:
    """Euclidean coefficient distance from f to the order-(n+1) vanishing
    subspace; zero exactly on that subspace.

    Coefficients near the float range can overflow the projection although
    the distance is finite; only then is it taken of f scaled to a largest
    coefficient of 1, and scaled back. A distance beyond the float range
    stays infinite.
    """
    basis = jet_space(algebra, s, n).ideal.basis
    v = _f_coords(algebra, f)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = float(la.span_residuals(v, basis)[0])
        if not np.isfinite(dist):
            scale = float(np.abs(v).max())
            dist = scale * float(la.span_residuals(v / scale, basis)[0])
    return dist


def induced_jet_map(p: RelativeOp, s, n: int, gens=None,
                    tol: float = 1e-9) -> LinearOp:
    """Factorization of evaluate-after-P through the order-n jet at s.

    Requires P to be a differential operator of order <= n between
    polynomial algebras and to map the order-(n+1) vanishing subspace into
    functions vanishing at s; then value(P f) only depends on the order-n
    jet of f, and the returned map sends that jet to the value class.
    """
    a, b = p.source, p.target
    if not isinstance(a, PolyAlgebra) or not isinstance(b, PolyAlgebra):
        raise DomainError("induced jet maps need polynomial source and target")
    s_arr = _point(a, s)
    if gens is None:
        gens = []
        for i in range(a.mvars):
            e = np.zeros(a.dim)
            unit = tuple(1 if t == i else 0 for t in range(a.mvars))
            e[a.exp_index[unit]] = 1.0
            gens.append(e)
    if diff_order(p, gens, max_n=n, tol=max(tol, 1e-8)) is None:
        raise DomainError(f"operator is not a differential operator of order <= {n}")

    scale = 1.0 + float(np.abs(p.op.matrix).max())
    eval_b = _eval_row(b, s_arr)
    space_a = jet_space(a, s_arr, n)
    for v in space_a.ideal.basis:
        if abs(complex(eval_b @ (p.op.matrix @ v))) > tol * scale:
            raise DomainError("operator does not map the vanishing subspace "
                              "into functions vanishing at the point")

    q = space_a.quotient.dim
    mat = np.zeros((1, q), dtype=complex)
    for j in range(q):
        rep = space_a.chart.matrix[:, j]
        mat[0, j] = eval_b @ (p.op.matrix @ rep)
    # factorization identity on the monomial basis
    direct = eval_b @ p.op.matrix
    through = (mat @ space_a.projection.matrix)[0]
    if np.abs(direct - through).max() > 1e-9 * scale * (1.0 + np.abs(mat).max()):
        raise NumericError("jet factorization identity failed on the basis")
    space_b0 = jet_space(b, s_arr, 0)
    return LinearOp(mat, space_a.quotient, space_b0.quotient)
