"""Systems of partial-derivative operators and their series homomorphisms.

A system of order N in m variables from A to B is a family of linear maps
D_k: A -> B, |k| <= N, such that D_0 is unital, every D_k respects the
involutions, and the binomial Leibniz rule

    D_k(a b) = sum_{l <= k} binom(k, l) D_{k-l}(a) D_l(b)

holds. Such systems correspond bijectively to unital involutive
homomorphisms h: A -> B[[m]] truncated at order N via h(a)_k = D_k(a)/k!;
the factorial is what turns the binomial Leibniz rule into the plain
convolution product of series, and both directions below use it.
"""
from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from . import _linalg as la
from .algebra import (MAX_NAMED_DIM, Element, LinearOp, PolyAlgebra, StructureAlgebra,
                      _coords, _law_residuals, function_algebra, truncated_poly)
from .errors import DomainError, NumericError
from .multiindex import MonomialTable, MultiIndex, mi_count
from .series import SeriesStructureAlgebra

__all__ = [
    "DerivativeSystem",
    "SystemReport",
    "verify_system",
    "to_homomorphism",
    "from_homomorphism",
    "taylor_system",
    "monomial_about",
]


class DerivativeSystem:
    """Family of operator matrices D_k: A -> B indexed by multi-indices.

    Matrices act on coordinates. `table` is the monomial table of the
    indices |k| <= order; `stack` is the complex (count, dim B, dim A) array
    with D_k at the row of k in its graded order. `ops` is that array or a
    dict of index to matrix, whose missing indices are zero rows.
    """

    def __init__(self, source: StructureAlgebra, target: StructureAlgebra,
                 mvars: int, order: int, ops):
        if mvars < 1:
            raise ValueError(f"need at least one variable, got m={mvars}")
        if order < 0:
            raise ValueError(f"system order must be nonnegative, got N={order}")
        # the index tables take count^2 integers, refused before they exist
        count = mi_count(mvars, order)
        if count > MAX_NAMED_DIM:
            raise DomainError(f"a system of order {order} in {mvars} variables has "
                              f"{count} operators; at most {MAX_NAMED_DIM} are supported")
        self.source = source
        self.target = target
        self.mvars = mvars
        self.order = order
        self.table = MonomialTable(mvars, order)
        self.indices: list[MultiIndex] = self.table.exponents
        shape = (count, target.dim, source.dim)
        if isinstance(ops, np.ndarray):
            if ops.shape != shape:
                raise ValueError(f"operator stack has shape {ops.shape}, expected {shape}")
            self.stack = np.array(ops, dtype=complex)
            return
        self.stack = np.zeros(shape, dtype=complex)
        for k, mat in ops.items():
            try:
                row = self.table.row(k)
            except ValueError as exc:
                raise ValueError(f"operator {exc}") from None
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != shape[1:]:
                raise ValueError(f"operator {self.indices[row]} has shape {mat.shape}, "
                                 f"expected {shape[1:]}")
            self.stack[row] = mat

    @property
    def ops(self) -> MappingProxyType:
        """Every index mapped to its row of the stack, read-only."""
        rows = self.stack.view()
        rows.flags.writeable = False
        return MappingProxyType(dict(zip(self.indices, rows)))

    def op_matrix(self, k: MultiIndex) -> np.ndarray:
        """A copy of D_k; ValueError for an index outside the table."""
        return self.stack[self.table.row(k)].copy()

    def op(self, k: MultiIndex) -> LinearOp:
        return LinearOp(self.op_matrix(k), self.source, self.target)

    def apply(self, k: MultiIndex, a) -> Element:
        return Element(self.target, self.stack[self.table.row(k)] @ _coords(a, self.source))

    def scale(self) -> float:
        return float(np.abs(self.stack).max())

    def isclose(self, other: "DerivativeSystem", tol: float = 1e-12) -> bool:
        if (self.mvars, self.order) != (other.mvars, other.order):
            return False
        return bool(np.abs(self.stack - other.stack).max() <= tol)

    def __repr__(self):
        return (f"<DerivativeSystem m={self.mvars} N={self.order} "
                f"{self.source.dim}->{self.target.dim}>")


class SystemReport:
    """Outcome of the axiom check; violations are data, not exceptions."""

    def __init__(self, violations: list[dict]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_residual(self) -> float:
        return max((v["residual"] for v in self.violations), default=0.0)

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        first = self.violations[0]
        return (f"{len(self.violations)} violation(s); first: axiom "
                f"{first['axiom']} at index {first['index']}, "
                f"residual {first['residual']:.2e}")

    def __repr__(self):
        return f"<SystemReport ok={self.ok} violations={len(self.violations)}>"


def verify_system(sys: DerivativeSystem, tol: float = 1e-9) -> SystemReport:
    """Checks the unit, involution, and binomial Leibniz axioms.

    All three are bilinear or antilinear in the algebra arguments, so
    checking them on basis vectors and basis pairs is exhaustive. The law
    kernel (algebra._law_residuals) takes the pairs l <= k of each k in runs
    by their place among the pairs of k, so each product D_{k-l}(e_i) D_l(e_j)
    is added into its k in the order of l. A Leibniz violation names the
    basis pair with the largest residual.
    """
    bound = _law_bound(tol, sys.scale())
    ks, ls, diffs = sys.table.pairs()
    coeffs = sys.table.binomials()[ls, ks]
    rank = np.arange(len(ks)) - np.searchsorted(ks, ks)
    runs = [(ks[p], ls[p], diffs[p], coeffs[p])
            for p in map(np.flatnonzero, (rank == r for r in range(rank.max() + 1)))]
    unit, star, worst, witness, _ = _law_residuals(sys.source, sys.target, sys.stack, runs)
    violations = []
    for axiom, residuals in (("unit", unit), ("involution", star.max(axis=1))):
        for r in np.flatnonzero(~(residuals <= bound)):
            violations.append({"axiom": axiom, "index": sys.indices[r], "pair": None,
                               "residual": float(residuals[r])})
    for r in np.flatnonzero(~(worst <= bound)):
        violations.append({"axiom": "leibniz", "index": sys.indices[r],
                           "pair": divmod(int(witness[r]), sys.source.dim),
                           "residual": float(worst[r])})
    return SystemReport(violations)


def _law_bound(tol: float, scale: float) -> float:
    """The residual bound tol * (1 + scale^2) of a system's laws, whose
    products have magnitude up to scale^2. NumericError if it is not finite:
    an infinite bound would pass every residual."""
    bound = tol * (1.0 + scale * scale)
    if not math.isfinite(bound):
        raise NumericError(f"the residual bound for operators of size {scale:.3g} "
                           f"is not finite")
    return bound


def _pack(sys: DerivativeSystem, tol: float) -> LinearOp:
    """The map a -> (D_k(a)/k!)_k of a verified system, checked as a
    homomorphism; NumericError if that check unexpectedly fails. The series
    basis puts the base index fastest, so this is a reshape of the stack."""
    ser = SeriesStructureAlgebra(sys.target, sys.table)
    h = (sys.stack / sys.table.factorials()[:, None, None]).reshape(ser.dim, -1)
    out = LinearOp(h, sys.source, ser)
    bad = out.hom_violations(_law_bound(tol, sys.scale()))
    if bad:
        raise NumericError(f"packed series map fails homomorphism check: {bad[0]}")
    return out


def to_homomorphism(sys: DerivativeSystem, tol: float = 1e-9) -> LinearOp:
    """Packs a valid system into the map a -> (D_k(a)/k!)_k.

    The target is the flattened truncated series algebra over B. Raises
    DomainError with the verification report when the axioms fail, and
    NumericError if the packed map unexpectedly fails the homomorphism
    check it is guaranteed to satisfy.
    """
    report = verify_system(sys, tol)
    if not report.ok:
        raise DomainError(f"not a derivative system: {report.summary()}")
    return _pack(sys, tol)


def from_homomorphism(h: LinearOp, tol: float = 1e-9) -> DerivativeSystem:
    """Unpacks a unital involutive multiplicative series map into a system.

    Inverse of to_homomorphism: D_k = k! times the k-th coefficient block.
    """
    ser = h.target
    if not isinstance(ser, SeriesStructureAlgebra):
        raise ValueError("target of the map must be a flattened series algebra")
    bad = h.hom_violations(_law_bound(tol, float(np.abs(h.matrix).max())))
    if bad:
        raise DomainError(f"series map is not a homomorphism: {bad[0]}")
    stack = h.matrix.reshape(ser.table.dim, ser.base.dim, -1)
    return DerivativeSystem(h.source, ser.base, ser.mvars, ser.order,
                            stack * ser.table.factorials()[:, None, None])


def taylor_system(mvars: int, order: int, point, degree: int | None = None) -> DerivativeSystem:
    """Classical partial derivatives at a point, with scalar values.

    The source is truncated_poly(mvars, degree) whose basis monomials are
    read as powers of (x - point); see monomial_about for writing absolute
    polynomials in that basis. Then D_k evaluates the k-th partial at the
    point: D_k((x-point)^a) = k! if a = k else 0. The returned system
    carries the point as the `point` attribute.
    """
    if degree is None:
        degree = order
    if degree < order:
        raise ValueError("source degree must be at least the system order")
    point = np.asarray(point, dtype=float).ravel()
    if point.shape != (mvars,):
        raise ValueError("point dimension mismatch")
    source = truncated_poly(mvars, degree)
    target = function_algebra(1)
    count = mi_count(mvars, order)
    rows = np.zeros((count, 1, source.dim), dtype=complex)
    rows[np.arange(count), 0, np.arange(count)] = source.table.factorials()[:count]
    sys = DerivativeSystem(source, target, mvars, order, rows)
    sys.point = point
    return sys


def monomial_about(source: PolyAlgebra, point, alpha) -> Element:
    """The absolute monomial x^alpha written in point-centered basis monomials.

    x^alpha = sum_{b <= alpha} binom(alpha, b) point^(alpha-b) (x-point)^b.
    """
    column = source.table.row(alpha)
    point = np.asarray(point, dtype=float).ravel()
    if point.shape != (source.mvars,):
        raise ValueError("dimension mismatch")
    return Element(source, source.table.shift(point)[:, column].astype(complex))
