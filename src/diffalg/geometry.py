"""Tangent and cotangent spaces of a commutative involutive algebra at a
character, and the pairing that makes them dual.

A tangent vector at a character s is a functional with the Leibniz rule
tau(ab) = s(a) tau(b) + tau(a) s(b); on A = C 1 + I_s, with I_s the kernel
ideal, that says exactly that tau kills 1 and span(I_s^2). The cotangent
space is I_s / span(I_s^2); pairing evaluates a tangent vector on any
representative of a class.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import (_DERIVATION_RUNS, _SCALARS, Character, StructureAlgebra, Subspace,
                      _coords, _law_residuals, subspace_product)
from .errors import DomainError, NumericError

__all__ = [
    "TangentVector",
    "CotangentClass",
    "tangent_space",
    "cotangent_space",
    "cotangent_class",
    "pairing",
    "pairing_matrix",
]


class TangentVector:
    """Leibniz functional at a base character."""

    __slots__ = ("algebra", "functional", "point", "real")

    def __init__(self, algebra: StructureAlgebra, functional, point: Character,
                 real: bool | None = None, tol: float = la.ZERO_TOL):
        self.algebra = algebra
        self.functional = np.asarray(functional, dtype=complex).ravel()
        if self.functional.shape != (algebra.dim,):
            raise ValueError("functional length mismatch")
        self.point = point
        self.real = bool(_realities(algebra, self.functional[None], tol)[0]
                         if real is None else real)

    def __call__(self, x) -> complex:
        return complex(self.functional @ _coords(x, self.algebra))

    def leibniz_residual(self) -> float:
        rows = np.stack([self.functional, self.point.functional])[:, None]
        return float(_law_residuals(self.algebra, _SCALARS, rows, _DERIVATION_RUNS)[2][0])

    def reality_residual(self) -> float:
        """Deviation from tau(a*) = conj(tau(a)), checked on the basis."""
        return float(_law_residuals(self.algebra, _SCALARS, self.functional[None, None])[1].max())

    def __repr__(self):
        return f"TangentVector({np.array_str(self.functional, precision=4)})"


class CotangentClass:
    """Element of I_s / span(I_s^2), kept with an explicit representative."""

    __slots__ = ("algebra", "point", "representative", "class_coords")

    def __init__(self, algebra: StructureAlgebra, point: Character,
                 representative, class_coords):
        self.algebra = algebra
        self.point = point
        self.representative = np.asarray(representative, dtype=complex).ravel()
        self.class_coords = np.asarray(class_coords, dtype=complex).ravel()

    def __repr__(self):
        return f"CotangentClass({np.array_str(self.class_coords, precision=4)})"


def _require_character(algebra: StructureAlgebra, s: Character):
    if s.algebra is not algebra:
        raise DomainError("character belongs to a different algebra")
    if not s.is_character():
        raise DomainError("functional is not a character")


def _realities(algebra: StructureAlgebra, rows: np.ndarray, tol: float) -> np.ndarray:
    """Which rows satisfy tau(a*) = conj(tau(a)) to tol relative to their size."""
    star = _law_residuals(algebra, _SCALARS, rows[:, None])[1].max(axis=1)
    return star <= tol * (1.0 + np.abs(rows).max(axis=1))


def _splitting(s: Character) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows K spanning I_s and Q spanning span(I_s^2)."""
    kernel = Subspace._from_orthonormal(s.algebra, la.null_space(s.functional[None]))
    return kernel.basis, subspace_product(kernel, kernel).basis


def _tangents(algebra: StructureAlgebra, s: Character, square: np.ndarray,
              real: bool) -> list[TangentVector]:
    """Tangent vectors at s: the null space of the unit and of square's rows."""
    rows = np.vstack([algebra.unit, square])
    if not real:
        basis = la.null_space(rows)
        flags = _realities(algebra, basis, la.ZERO_TOL)
        return [TangentVector(algebra, v, s, real=f) for v, f in zip(basis, flags)]
    # split tau = rho + i sigma: M tau = 0 becomes [Re M, -Im M; Im M, Re M] [rho; sigma] = 0;
    # tau S = conj(tau) becomes rho(S_r - I) - sigma S_i = 0 and rho S_i + sigma(S_r + I) = 0,
    # whose rows act from the right, so they are transposed
    d, sr, si = algebra.dim, algebra.involution.real, algebra.involution.imag
    basis = la.null_space(np.block([[rows.real, -rows.imag], [rows.imag, rows.real],
                                    [(sr - np.eye(d)).T, -si.T], [si.T, (sr + np.eye(d)).T]]))
    return [TangentVector(algebra, v[:d] + 1j * v[d:], s, real=True) for v in basis]


def _cotangents(algebra: StructureAlgebra, s: Character, kernel: np.ndarray, square: np.ndarray):
    """(classes, pi) from K projected off Q: orthonormal representatives orthogonal
    to span(I_s^2), so column j of pi is their inner products with e_j - s(e_j) 1."""
    reps = la.span_basis(kernel - (kernel @ square.conj().T) @ square)
    classes = [CotangentClass(algebra, s, r, e) for r, e in zip(reps, np.eye(len(reps)))]
    return classes, reps.conj() - np.outer(reps.conj() @ algebra.unit, s.functional)


def _duality(algebra: StructureAlgebra, s: Character, real: bool):
    """Tangent vectors, cotangent classes and their gram (0 x 0 if either is empty)."""
    kernel, square = _splitting(s)
    taus = _tangents(algebra, s, square, real)
    classes, _ = _cotangents(algebra, s, kernel, square)
    gram = _pairing_matrix(taus, classes, lambda point: square, 1e-9)
    return taus, classes, gram if gram.size else np.zeros((0, 0))


def tangent_space(algebra: StructureAlgebra, s: Character,
                  real: bool = False) -> list[TangentVector]:
    """Basis of the (complex or real) tangent space at a character.

    It is the null space of the unit and span(I_s^2). The real form adds
    the antilinear constraint tau(a*) = conj(tau(a)), which is only
    R-linear, so that solve runs over split real and imaginary parts.
    """
    _require_character(algebra, s)
    return _tangents(algebra, s, _splitting(s)[1], real)


def cotangent_space(algebra: StructureAlgebra, s: Character):
    """Quotient basis of I_s / span(I_s^2) and the projection matrix.

    Returns (classes, pi). The representatives of the classes are an
    orthonormal basis of the part of I_s orthogonal to span(I_s^2). pi
    maps a in the algebra to the class coordinates of a - s(a) 1.
    """
    _require_character(algebra, s)
    return _cotangents(algebra, s, *_splitting(s))


def cotangent_class(algebra: StructureAlgebra, s: Character, f,
                    tol: float = la.ZERO_TOL) -> CotangentClass:
    """Class of an element of the kernel ideal I_s."""
    _, pi = cotangent_space(algebra, s)
    v = _coords(f, algebra)
    if abs(complex(s.functional @ v)) > tol * (1.0 + np.abs(v).max()):
        raise DomainError("representative does not vanish at the base character")
    return CotangentClass(algebra, s, v, pi @ v)


def pairing(tau: TangentVector, xi: CotangentClass,
            tol: float = 1e-9) -> complex:
    """tau evaluated on a representative of xi: pairing_matrix of one pair."""
    return complex(pairing_matrix([tau], [xi], tol)[0, 0])


def pairing_matrix(taus, classes, tol: float = 1e-9) -> np.ndarray:
    """tau(xi) for each tangent vector tau and cotangent class xi, as a
    (len(taus), len(classes)) complex array.

    Representative independence requires each tau to kill span(I_s^2);
    that is re-verified here, once per tau, so a mismatched pair fails
    loudly instead of returning a representative-dependent number. The
    kernel square is built once per base character. Pairs are checked in
    row-major order, each tau against span(I_s^2) at its first class.
    """
    return _pairing_matrix(taus, classes, lambda point: _splitting(point)[1], tol)


def _pairing_matrix(taus, classes, square_of, tol: float) -> np.ndarray:
    """pairing_matrix, with square_of(point) the orthonormal rows of span(I_s^2)."""
    gram = np.empty((len(taus), len(classes)), dtype=complex)
    point = square = None
    for a, tau in enumerate(taus):
        for b, xi in enumerate(classes):
            if tau.algebra is not xi.algebra:
                raise DomainError("tangent vector and cotangent class disagree on the algebra")
            if np.abs(tau.point.functional - xi.point.functional).max() > 1e-8:
                raise DomainError("tangent vector and cotangent class sit at different points")
            if b == 0:
                if tau.point is not point:
                    point, square = tau.point, square_of(tau.point)
                vals = np.abs(square @ tau.functional)
                if vals.max(initial=0.0) > tol * (1.0 + np.abs(tau.functional).max()):
                    raise NumericError("functional does not vanish on kernel-squared; "
                                       "pairing would depend on the representative")
            gram[a, b] = complex(tau.functional @ xi.representative)
    return gram
