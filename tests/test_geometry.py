"""Tangent and cotangent spaces at characters, and their duality pairing.

The cotangent projection matrix, now one least-squares solve against all
shifted basis vectors, is compared with the per-column solves it replaces
(kept below as the reference) on every character of a set of algebras.
"""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import (
    Character,
    CotangentClass,
    DomainError,
    NumericError,
    TangentVector,
    algebra_from_name,
    characters,
    cotangent_class,
    cotangent_space,
    cusp_algebra,
    direct_sum,
    function_algebra,
    matrix_algebra,
    pairing,
    subspace_product,
    tangent_space,
    truncated_poly,
)
from diffalg import _linalg as la
from test_basis_change import change_basis, unitary


def _delta(alg):
    return Character(alg, np.eye(alg.dim)[0])


def test_tangent_space_of_poly_has_coordinate_derivations():
    for m in (1, 2, 3):
        alg = truncated_poly(m, 3)
        taus = tangent_space(alg, _delta(alg))
        assert len(taus) == m
        # each basis vector reads one first-order coefficient
        span = np.array([t.functional for t in taus])
        for i in range(m):
            e = [0] * m
            e[i] = 1
            col = np.zeros(alg.dim)
            col[alg.exp_index[tuple(e)]] = 1.0
            sol, *_ = np.linalg.lstsq(span.T, col.astype(complex), rcond=None)
            assert np.abs(span.T @ sol - col).max() < 1e-9
        for t in taus:
            assert t.leibniz_residual() < 1e-9
            assert abs(t(alg.unit)) < 1e-12


def test_tangent_space_of_points_is_zero():
    f3 = function_algebra(3)
    for i in range(3):
        s = Character(f3, np.eye(3)[i])
        assert tangent_space(f3, s) == []
        classes, pi = cotangent_space(f3, s)
        assert classes == []
        assert pi.shape == (0, 3)


def test_cusp_algebra_has_two_dimensional_tangent():
    c = cusp_algebra()
    s = _delta(c)
    taus = tangent_space(c, s)
    classes, pi = cotangent_space(c, s)
    # degrees 2 and 3 are not products of kernel elements; 4 = 2+2, 5 = 2+3,
    # 6 = 3+3 all are
    assert len(taus) == 2
    assert len(classes) == 2
    gram = np.array([[pairing(t, x) for x in classes] for t in taus])
    assert abs(np.linalg.det(gram)) > 1e-8


def test_duality_dims_and_gram_for_poly():
    for m in (1, 2, 3):
        alg = truncated_poly(m, 2)
        s = _delta(alg)
        taus = tangent_space(alg, s)
        classes, pi = cotangent_space(alg, s)
        assert len(taus) == len(classes) == m
        gram = np.array([[pairing(t, x) for x in classes] for t in taus])
        assert np.linalg.matrix_rank(gram) == m


def test_pairing_is_representative_independent():
    alg = truncated_poly(1, 3)
    s = _delta(alg)
    tau = tangent_space(alg, s)[0]
    x_rep = np.zeros(alg.dim)
    x_rep[1] = 1.0
    xi = cotangent_class(alg, s, x_rep)
    shifted = x_rep.copy()
    shifted[2] += 5.0  # differs by an element of I^2
    xi2 = CotangentClass(alg, s, shifted.astype(complex), xi.class_coords)
    assert pairing(tau, xi) == pytest.approx(pairing(tau, xi2))


def test_pairing_guards():
    alg = truncated_poly(1, 3)
    s = _delta(alg)
    tau = tangent_space(alg, s)[0]
    other = truncated_poly(2, 2)
    xi_other = cotangent_class(other, _delta(other), np.eye(other.dim)[1])
    with pytest.raises(DomainError):
        pairing(tau, xi_other)
    # functional that does not kill kernel-squared: reading x^2
    fake = TangentVector(alg, np.eye(alg.dim)[2], s)
    xi = cotangent_class(alg, s, np.eye(alg.dim)[1])
    with pytest.raises(NumericError):
        pairing(fake, xi)


def test_cotangent_class_requires_vanishing_representative():
    alg = truncated_poly(1, 2)
    with pytest.raises(DomainError):
        cotangent_class(alg, _delta(alg), alg.unit)


def test_character_validation_guards():
    alg = truncated_poly(1, 2)
    not_char = Character(alg, np.array([1.0, 0.7, 0.49]))
    with pytest.raises(DomainError):
        tangent_space(alg, not_char)
    m2 = matrix_algebra(2)
    with pytest.raises(DomainError):
        tangent_space(m2, Character(m2, m2.unit))


def test_real_tangent_space():
    alg = truncated_poly(2, 2)
    s = _delta(alg)
    real_taus = tangent_space(alg, s, real=True)
    # the involution fixes the basis monomials, so real tangent vectors
    # are exactly the real spans of the coordinate readings
    assert len(real_taus) == len(tangent_space(alg, s))
    for t in real_taus:
        assert t.reality_residual() < 1e-9
        assert t.leibniz_residual() < 1e-9


def test_projection_recovers_class_coordinates():
    alg = truncated_poly(2, 2)
    s = _delta(alg)
    classes, pi = cotangent_space(alg, s)
    for xi in classes:
        assert np.abs(pi @ xi.representative - xi.class_coords).max() < 1e-9
    # the unit projects to zero
    assert np.abs(pi @ alg.unit).max() < 1e-10


def reference_cotangent_pi(algebra, s):
    """The projection matrix of cotangent_space as it was built before: the
    same greedy representatives, then one least-squares solve per shifted
    basis vector e_j - s(e_j) 1."""
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
    frame = np.vstack([np.array(reps), square.basis]).T if q else square.basis.T
    pi = np.zeros((q, d), dtype=complex)
    for j in range(d):
        shifted = np.eye(d)[j] - s.functional[j] * algebra.unit
        sol, *_ = np.linalg.lstsq(frame, shifted, rcond=None)
        pi[:, j] = sol[:q]
        resid = frame @ sol - shifted
        if np.abs(resid).max() > 1e-7 * (1.0 + np.abs(shifted).max()):
            raise NumericError("kernel frame failed to express a shifted basis vector")
    return pi


def _point_characters():
    """Every character of algebras with and without tangent directions, in
    the standard basis and in complex-unitary ones."""
    algs = [(name, algebra_from_name(name))
            for name in ["poly:1:3", "poly:1:4", "poly:2:2", "poly:2:3", "poly:3:2",
                         "cusp", "func:3", "group:2x2"]]
    algs.append(("cusp+poly:1:2", direct_sum(cusp_algebra(), truncated_poly(1, 2))))
    for seed, name in enumerate(["poly:2:2", "cusp", "func:3"]):
        alg = algebra_from_name(name)
        algs.append((f"{name}/u{seed}", change_basis(alg, unitary(seed, alg.dim))))
    return [(f"{name}@{i}", alg, s) for name, alg in algs
            for i, s in enumerate(characters(alg))]


CHARACTERS = _point_characters()


@pytest.mark.parametrize("index", range(len(CHARACTERS)), ids=[c[0] for c in CHARACTERS])
def test_projection_matches_per_column_solves(index):
    """The one-solve projection equals the per-column reference within 1e-12."""
    _, alg, s = CHARACTERS[index]
    classes, pi = cotangent_space(alg, s)
    want = reference_cotangent_pi(alg, s)
    assert pi.shape == want.shape == (len(classes), alg.dim)
    if want.size:
        assert np.abs(pi - want).max() <= 1e-12
