"""Tangent and cotangent spaces of a commutative involutive algebra at a
character, and the pairing that makes them dual.

A tangent vector at a character s is a functional with the Leibniz rule
tau(ab) = s(a) tau(b) + tau(a) s(b); it automatically kills the unit and
every product of two elements of the kernel ideal I_s. The cotangent space
is the linear quotient I_s / span(I_s^2), and pairing a tangent vector
with a cotangent class evaluates the functional on any representative.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import Character, Element, StructureAlgebra, Subspace, subspace_product
from .errors import DomainError, NumericError

__all__ = [
    "TangentVector",
    "CotangentClass",
    "tangent_space",
    "cotangent_space",
    "cotangent_class",
    "pairing",
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
        if real is None:
            real = self.reality_residual() <= tol * (1.0 + np.abs(self.functional).max())
        self.real = bool(real)

    def __call__(self, x) -> complex:
        v = x.coords if isinstance(x, Element) else np.asarray(x, dtype=complex).ravel()
        return complex(self.functional @ v)

    def leibniz_residual(self) -> float:
        c = self.algebra.structure
        s = self.point.functional
        t = self.functional
        vals = np.einsum("ijk,k->ij", c, t) - np.outer(s, t) - np.outer(t, s)
        return float(np.abs(vals).max())

    def reality_residual(self) -> float:
        """Deviation from tau(a*) = conj(tau(a)), checked on the basis."""
        lhs = self.functional @ self.algebra.involution
        return float(np.abs(lhs - np.conj(self.functional)).max())

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


def tangent_space(algebra: StructureAlgebra, s: Character, real: bool = False,
                  tol: float = la.RANK_TOL) -> list[TangentVector]:
    """Basis of the (complex or real) tangent space at a character.

    The Leibniz constraints are one stacked linear system over the
    functional's coordinates. The real form adds the antilinear constraint
    tau(a*) = conj(tau(a)), which is only R-linear, so that solve runs over
    split real and imaginary parts.
    """
    _require_character(algebra, s)
    d = algebra.dim
    c = algebra.structure
    sv = s.functional
    # rows indexed by basis pairs (i, j), unknowns tau_k
    rows = c.reshape(d * d, d).copy()
    eye = np.eye(d)
    rows -= np.einsum("i,jk->ijk", sv, eye).reshape(d * d, d)
    rows -= np.einsum("ik,j->ijk", eye, sv).reshape(d * d, d)
    if not real:
        basis = la.null_space(rows)
        return [TangentVector(algebra, v, s) for v in basis]
    # split tau = rho + i sigma; complex rows M tau = 0 become
    # [Re M, -Im M; Im M, Re M] [rho; sigma] = 0
    top = np.hstack([rows.real, -rows.imag])
    bot = np.hstack([rows.imag, rows.real])
    sr, si = algebra.involution.real, algebra.involution.imag
    # tau S = conj(tau): real part rho(S_r - I) - sigma S_i = 0,
    # imaginary part rho S_i + sigma(S_r + I) = 0; rows act from the right,
    # so transpose into column form
    real_rows = np.hstack([(sr - np.eye(d)).T, -si.T])
    imag_rows = np.hstack([si.T, (sr + np.eye(d)).T])
    stacked = np.vstack([top, bot, real_rows, imag_rows])
    basis = la.null_space(stacked)
    out = []
    for v in basis:
        tau = v[:d] + 1j * v[d:]
        out.append(TangentVector(algebra, tau, s, real=True))
    return out


def cotangent_space(algebra: StructureAlgebra, s: Character,
                    tol: float = la.ZERO_TOL):
    """Quotient basis of I_s / span(I_s^2) and the projection matrix.

    Returns (classes, pi). The classes are cotangent basis vectors whose
    representatives are greedily chosen rows of the kernel basis that stay
    independent modulo span(I_s^2). pi maps a in the algebra to the class
    coordinates of a - s(a) 1.
    """
    _require_character(algebra, s)
    d = algebra.dim
    kernel = s.kernel()
    square = subspace_product(kernel, kernel)
    reps = []
    for v in kernel.basis:
        stack = np.vstack([square.basis] + [r.reshape(1, -1) for r in reps]
                          + [v.reshape(1, -1)])
        if la.rank(stack) > square.dim + len(reps):
            reps.append(v)
    q = len(reps)
    classes = [CotangentClass(algebra, s, reps[i], np.eye(q)[i]) for i in range(q)]
    # class coordinates of any kernel element by solving against [reps; square]
    if q:
        frame = np.vstack([np.array(reps), square.basis]).T
    else:
        frame = square.basis.T
    # column j is e_j - s(e_j) 1
    shifted = np.eye(d) - np.outer(algebra.unit, s.functional)
    sol, *_ = np.linalg.lstsq(frame, shifted, rcond=None)
    resid = np.abs(frame @ sol - shifted).max(axis=0)
    if (resid > 1e-7 * (1.0 + np.abs(shifted).max(axis=0))).any():
        raise NumericError("kernel frame failed to express a shifted basis vector")
    return classes, sol[:q]


def cotangent_class(algebra: StructureAlgebra, s: Character, f,
                    tol: float = la.ZERO_TOL) -> CotangentClass:
    """Class of an element of the kernel ideal I_s."""
    _require_character(algebra, s)
    v = f.coords if isinstance(f, Element) else np.asarray(f, dtype=complex).ravel()
    if abs(complex(s.functional @ v)) > tol * (1.0 + np.abs(v).max()):
        raise DomainError("representative does not vanish at the base character")
    classes, pi = cotangent_space(algebra, s, tol)
    return CotangentClass(algebra, s, v, pi @ v)


def pairing(tau: TangentVector, xi: CotangentClass,
            tol: float = 1e-9) -> complex:
    """tau evaluated on a representative of xi.

    Representative independence requires tau to kill span(I_s^2); that is
    re-verified here so a mismatched pair fails loudly instead of returning
    a representative-dependent number.
    """
    if tau.algebra is not xi.algebra:
        raise DomainError("tangent vector and cotangent class disagree on the algebra")
    if np.abs(tau.point.functional - xi.point.functional).max() > 1e-8:
        raise DomainError("tangent vector and cotangent class sit at different points")
    kernel = tau.point.kernel()
    square = subspace_product(kernel, kernel)
    if square.dim:
        vals = np.abs(square.basis @ tau.functional)
        if vals.max() > tol * (1.0 + np.abs(tau.functional).max()):
            raise NumericError("functional does not vanish on kernel-squared; "
                               "pairing would depend on the representative")
    return complex(tau.functional @ xi.representative)
