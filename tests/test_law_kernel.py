"""The law kernel against the checks it replaced.

`algebra._law_residuals` computes the unit, involution and Leibniz
residuals of a stack of linear maps, and every law check of a map between
algebras reads it: homomorphisms, characters, derivative systems,
derivations, tangent vectors and the stabilization precondition. The
earlier per-caller contractions of `is_derivation`,
`TangentVector.leibniz_residual` / `reality_residual` and the
stabilization's involution residual are kept below, verbatim, as the
references (the homomorphism, character and derivative-system references
are `reference_hom_violations`, `reference_is_character` and
`ref_verify_system`). They are compared on exact, perturbed, NaN-injected
and complex maps, into targets of dimension 1 and above 1.
"""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import (Character, DomainError, LinearOp, RelativeOp, TangentVector,
                     algebra_from_name, check_stabilization, characters, function_algebra,
                     is_derivation, matrix_algebra, subalgebra, tangent_space,
                     truncated_poly)
from diffalg import _linalg as la
from diffalg.algebra import _character_mask
from diffalg.diffcalc import derivative_op

from test_basis_change import change_basis, unitary
from test_characters_reference import reference_is_character


# --- the replaced checks, verbatim ---------------------------------------

def ref_is_derivation(d: RelativeOp, tol: float = la.ZERO_TOL) -> bool:
    """True iff D(x*) = D(x)* and D(xy) = D(x) phi(y) + phi(x) D(y)."""
    a, b = d.source, d.target
    dm, pm = d.op.matrix, d.action.matrix
    scale = (1.0 + float(np.abs(dm).max())) * (1.0 + float(np.abs(pm).max()))
    star = np.abs(dm @ a.involution - b.involution @ np.conj(dm)).max()
    if star > tol * scale:
        return False
    lhs = a.structure @ dm.T
    rhs = b.mul_pairs(dm.T, pm.T) + b.mul_pairs(pm.T, dm.T)
    return bool(np.abs(lhs - rhs).max() <= tol * scale)


def ref_leibniz_residual(self) -> float:
    c = self.algebra.structure
    s = self.point.functional
    t = self.functional
    vals = np.einsum("ijk,k->ij", c, t) - np.outer(s, t) - np.outer(t, s)
    return float(np.abs(vals).max())


def ref_reality_residual(self) -> float:
    """Deviation from tau(a*) = conj(tau(a)), checked on the basis."""
    lhs = self.functional @ self.algebra.involution
    return float(np.abs(lhs - np.conj(self.functional)).max())


def _involution_residual(phi: LinearOp) -> float:
    lhs = phi.matrix @ phi.source.involution
    rhs = phi.target.involution @ np.conj(phi.matrix)
    return float(np.abs(lhs - rhs).max())


# --- maps to compare on ----------------------------------------------------

def _variants(mat, seed):
    """The matrix, perturbed, with one NaN, turned complex and bumped."""
    rng = np.random.default_rng(seed)
    noisy = mat + 1e-6 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
    nan = mat.astype(complex)
    nan[tuple(rng.integers(0, n) for n in mat.shape)] = np.nan
    bumped = mat.astype(complex)
    bumped[tuple(rng.integers(0, n) for n in mat.shape)] += 1.0
    return [mat, noisy, nan, mat * (1.0 + 1e-3j), bumped]


def _skew(alg, seed):
    """x - x* for a random x: an element with a* = -a."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return x - alg.star_coords(x)


def _derivations():
    """Relative operators that are derivations, into dimension 1 and above."""
    out = [derivative_op(truncated_poly(2, 4), 0), derivative_op(truncated_poly(3, 3), 2)]
    # inner derivations [a, .] by a skew element, in a complex basis
    for name, seed in (("matrix:2", 0), ("matrix:3", 1)):
        alg = change_basis(algebra_from_name(name), unitary(seed, algebra_from_name(name).dim))
        a = _skew(alg, seed)
        op = LinearOp(alg.left_mul_matrix(a) - alg.right_mul_matrix(a), alg, alg)
        out.append(RelativeOp(op, LinearOp.identity(alg), check=False))
    # point derivations d/dx_i at the origin, into the scalars
    poly, scalars = truncated_poly(2, 3), function_algebra(1)
    origin = LinearOp(np.eye(1, poly.dim), poly, scalars)
    for i in (1, 2):
        op = LinearOp(np.eye(1, poly.dim, poly.exp_index[(i == 1, i == 2)]), poly, scalars)
        out.append(RelativeOp(op, origin, check=False))
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-5])
def test_is_derivation_matches_reference(tol):
    seen = set()
    for n, d in enumerate(_derivations()):
        for mat in _variants(d.op.matrix, seed=n):
            op = RelativeOp(LinearOp(mat, d.source, d.target), d.action, check=False)
            want = ref_is_derivation(op, tol)
            assert is_derivation(op, tol) == want
            seen.add((d.target.dim == 1, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _tangent_vectors():
    """Tangent vectors at characters, and functionals that are none."""
    out = []
    for alg in (truncated_poly(2, 3), change_basis(truncated_poly(1, 3), unitary(3, 4))):
        for ch in characters(alg):
            out += tangent_space(alg, ch)
    rng = np.random.default_rng(4)
    group = change_basis(algebra_from_name("group:2x3"), unitary(5, 6))
    for ch in characters(group)[:2]:
        out.append(TangentVector(group, rng.standard_normal(6) + 1j * rng.standard_normal(6),
                                 ch))
    return out


def _same_residual(got, want, scale):
    if np.isnan(want):
        return np.isnan(got)
    return abs(got - want) <= 1e-13 * scale


def test_tangent_residuals_match_reference():
    taus = _tangent_vectors()
    assert any(t.leibniz_residual() > 1e-3 for t in taus)
    for n, tau in enumerate(taus):
        for vec in _variants(tau.functional, seed=n):
            t = TangentVector(tau.algebra, vec, tau.point, real=False)
            scale = 1.0 + np.nanmax(np.abs(vec)) * (1.0 + np.abs(t.point.functional).max())
            assert _same_residual(t.leibniz_residual(), ref_leibniz_residual(t), scale)
            assert _same_residual(t.reality_residual(), ref_reality_residual(t), scale)


def _actions():
    """Maps into dimension 1 (characters) and above 1 (inclusions)."""
    m3 = matrix_algebra(3)
    _, incl = subalgebra(m3, [np.eye(3).reshape(-1), np.diag([1.0, 2.0, 3.0]).reshape(-1),
                              np.diag([1.0, 4.0, 9.0]).reshape(-1)])
    alg = change_basis(algebra_from_name("matrix:2"), unitary(6, 4))
    group = algebra_from_name("group:4")
    chars = [LinearOp(ch.functional[None], group, function_algebra(1))
             for ch in characters(group)]
    return [incl, LinearOp.identity(alg), *chars]


def test_stabilization_residual_matches_reference():
    for n, phi in enumerate(_actions()):
        for mat in _variants(phi.matrix, seed=n):
            op = LinearOp(mat, phi.source, phi.target)
            want = _involution_residual(op)
            if np.isnan(want):
                with pytest.raises(DomainError, match="residual nan"):
                    check_stabilization(op, 2)
                continue
            got = check_stabilization(op, 2, enforce_preconditions=False)
            assert got["involution_residual"] == want


def test_character_mask_reads_the_same_laws():
    """is_character and the batched mask agree row by row, also on NaN."""
    alg = change_basis(algebra_from_name("group:2x2"), unitary(7, 4))
    rows = np.array([ch.functional for ch in characters(alg)])
    for n, row in enumerate(rows):
        cands = _variants(row, seed=n)
        mask = _character_mask(alg, np.array(cands), 1e-8)
        assert list(mask) == [Character(alg, c).is_character() for c in cands]
        assert list(mask) == [reference_is_character(Character(alg, c)) for c in cands]
