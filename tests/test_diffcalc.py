"""Relative differential operators, centralizer towers, and the
equivalence between order bounds, tower membership, and commutant
membership for derivative systems."""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import (
    Character,
    DerivativeSystem,
    DomainError,
    LinearOp,
    RelativeOp,
    SeriesElement,
    Subspace,
    check_diffsys_characterization,
    check_stabilization,
    commutator,
    derivative_op,
    diff_order,
    from_homomorphism,
    function_algebra,
    is_derivation,
    left_multiply,
    matrix_algebra,
    mi_enumerate,
    multiplication_matrix,
    ser_mul,
    ser_unit,
    series_algebra,
    series_to_coords,
    tangent_of_derivation,
    taylor_system,
    truncated_poly,
    truncation_hom,
    z_tower,
    z_tower_from_images,
)
from diffalg._linalg import null_space


def _poly_gens(alg):
    """Coordinate variables as a generating set."""
    gens = []
    for i in range(alg.mvars):
        e = [0] * alg.mvars
        e[i] = 1
        v = np.zeros(alg.dim)
        v[alg.exp_index[tuple(e)]] = 1.0
        gens.append(v)
    return gens


def test_derivative_is_order_one_derivation():
    p = truncated_poly(1, 4)
    d = derivative_op(p, 0)
    assert is_derivation(d)
    assert diff_order(d, _poly_gens(p), 3) == 1
    # [d/dx, x] = truncation, exactly
    c = commutator(d, _poly_gens(p)[0])
    assert np.abs(c.matrix - d.action.matrix).max() < 1e-12


def test_multiplication_operator_has_order_zero():
    p = truncated_poly(1, 4)
    q = truncated_poly(1, 3)
    tr = truncation_hom(p, q)
    mult = RelativeOp(LinearOp(multiplication_matrix(p, q, {(1,): 1.0}), p, q), tr, check=False)
    assert diff_order(mult, _poly_gens(p), 2) == 0
    assert not is_derivation(mult)


def ref_multiplication_matrix(source, target, g):
    """The alpha x beta tuple loop that multiplication_matrix replaces."""
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    for alpha, j in source.exp_index.items():
        for beta, coeff in g.items():
            beta = tuple(int(t) for t in beta)
            up = tuple(x + y for x, y in zip(alpha, beta))
            if sum(up) <= target.degree:
                mat[target.exp_index[up], j] += coeff
    return mat


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_source,n_target", [(0, 0), (2, 3), (3, 3), (4, 2), (1, 4)])
def test_multiplication_matrix_matches_tuple_loop(m, n_source, n_target):
    """Bit for bit, with terms above the target degree and sources of
    higher and lower degree than the target."""
    rng = np.random.default_rng(31 * m + 7 * n_source + n_target)
    source, target = truncated_poly(m, n_source), truncated_poly(m, n_target)
    betas = mi_enumerate(m, n_target + 1)
    picks = rng.choice(len(betas), size=min(5, len(betas)), replace=False)
    g = {betas[i]: complex(rng.standard_normal(), rng.standard_normal()) for i in picks}
    got = multiplication_matrix(source, target, g)
    assert np.array_equal(got, ref_multiplication_matrix(source, target, g))


@pytest.mark.parametrize("beta", [(1,), (1, -1), (1, 0, 0), (-1, 2), (5, -1), (1.0, 0)])
def test_multiplication_matrix_refuses_malformed_exponents(beta):
    """Read by the target's MonomialTable.row, whatever the exponent's order."""
    with pytest.raises(ValueError, match="outside the indices|not a sequence of integers"):
        multiplication_matrix(truncated_poly(2, 2), truncated_poly(2, 3), {beta: 1.0})


def test_second_order_composite():
    p = truncated_poly(1, 5)
    d1 = derivative_op(p, 0)
    dd = derivative_op(d1.target, 0)
    # x (d/dx)^2 as a relative operator against double truncation
    second = dd.op.compose(d1.op)
    xmul = multiplication_matrix(dd.target, dd.target, {(1,): 1.0})
    op = LinearOp(xmul @ second.matrix, p, dd.target)
    act = dd.action.compose(d1.action)
    rel = RelativeOp(op, act, check=False)
    assert diff_order(rel, _poly_gens(p), 4) == 2


def test_diff_order_gen_set_invariance():
    p = truncated_poly(2, 3)
    d = derivative_op(p, 1)
    gens = _poly_gens(p)
    full_basis = list(np.eye(p.dim))
    assert diff_order(d, gens, 3) == diff_order(d, full_basis, 3) == 1


def test_diff_order_none_when_exceeding_bound():
    p = truncated_poly(1, 4)
    d = derivative_op(p, 0)
    dd = derivative_op(d.target, 0)
    comp = RelativeOp(dd.op.compose(d.op), dd.action.compose(d.action), check=False)
    assert diff_order(comp, _poly_gens(p), 1) is None
    assert diff_order(comp, _poly_gens(p), 2) == 2


def test_relative_op_validates_shapes():
    p = truncated_poly(1, 3)
    q = truncated_poly(1, 2)
    d = derivative_op(p, 0)
    with pytest.raises(Exception):
        RelativeOp(d.op, LinearOp.identity(p))  # action target mismatch
    with pytest.raises(ValueError):
        diff_order(d, [], 2)


# -- towers -------------------------------------------------------------------


def test_tower_of_star_inclusion_stabilizes_immediately():
    m2 = matrix_algebra(2)
    diag = function_algebra(2)
    mat = np.zeros((4, 2))
    mat[0, 0] = mat[3, 1] = 1.0
    phi = LinearOp(mat, diag, m2)
    tower = z_tower(phi, 3)
    assert tower.dims() == [0, 2, 2, 2]
    assert tower.monotone()
    rep = check_stabilization(phi)
    assert rep["stabilized"] and rep["involutive"]
    assert rep["z1_dim"] == rep["z2_dim"] == 2
    assert rep["mutual_containment"] == [True, True]


def _nonstar_phi():
    m2 = matrix_algebra(2)
    dn = truncated_poly(1, 1)
    mat = np.zeros((4, 2), dtype=complex)
    mat[:, 0] = [1, 0, 0, 1]
    mat[:, 1] = [0, 1, 0, 0]  # x maps to E12: image not star closed
    return LinearOp(mat, dn, m2)


def test_tower_without_star_closure_grows():
    phi = _nonstar_phi()
    tower = z_tower(phi, 3)
    assert tower.dims() == [0, 2, 3, 4]
    # frozen oracle: Z^1 is the commutant of {1, E12}, found as the null
    # space of b -> [b, E12] without going through the tower code
    m2 = phi.target
    e12 = phi.matrix[:, 1]
    z1_expected = null_space(m2.left_mul_matrix(e12) - m2.right_mul_matrix(e12))
    assert tower.level(1).equals(Subspace(m2, z1_expected))
    # Z^2 is the upper triangular subalgebra
    upper = np.eye(4)[[0, 1, 3]]
    assert tower.level(2).equals(Subspace(m2, upper))


def test_tower_refuses_images_of_another_algebra_or_length():
    m2, f2 = matrix_algebra(2), function_algebra(2)
    # two func:2 elements once read as one matrix:2 vector
    with pytest.raises(DomainError, match="different algebra"):
        z_tower_from_images(m2, [f2.basis_element(0), f2.basis_element(1)], 2)
    for images in ([np.ones(2), np.ones(2)], [np.ones(8)], np.ones((3, 2))):
        with pytest.raises(ValueError, match="dimension 4"):
            z_tower_from_images(m2, images, 2)
    assert z_tower_from_images(m2, [], 2).dims() == [0, 4, 4]


def test_check_stabilization_gates_on_preconditions():
    phi = _nonstar_phi()
    with pytest.raises(DomainError):
        check_stabilization(phi)
    rep = check_stabilization(phi, enforce_preconditions=False)
    assert not rep["stabilized"]
    assert rep["dims"] == [0, 2, 3, 4]
    assert rep["involution_residual"] > 0.1


def test_tower_levels_multiply_into_higher_levels(rng):
    # Z^p . Z^q lands in Z^{p+q} for the nonstar example
    phi = _nonstar_phi()
    tower = z_tower(phi, 4)
    m2 = phi.target
    for p in (1, 2):
        for q in (1, 2):
            lvl = tower.level(min(p + q, 4))
            for x in tower.level(p).basis:
                for y in tower.level(q).basis:
                    assert lvl.contains(m2.mul_coords(x, y), 1e-8)


def test_left_multiply_by_tower_level_bounds_order():
    phi = _nonstar_phi()
    tower = z_tower(phi, 3)
    relphi = RelativeOp(phi, phi, check=False)
    gens = list(np.eye(2))
    for lvl in (1, 2, 3):
        for b in tower.level(lvl).basis:
            assert diff_order(left_multiply(b, relphi), gens, 3) <= lvl - 1
    # sharp converse: E11 sits in Z^2 \ Z^1 and gives order exactly 1
    e11 = np.eye(4)[0]
    assert tower.level(2).contains(e11) and not tower.level(1).contains(e11)
    assert diff_order(left_multiply(e11, relphi), gens, 3) == 1


# -- the three-way characterization ------------------------------------------


def test_characterization_positive_taylor():
    sys = taylor_system(1, 3, [0.25])
    rep = check_diffsys_characterization(sys, _poly_gens(sys.source))
    assert rep["agree"]
    assert all(rep["predicates"].values())
    assert rep["commutator_residual"] < 1e-10
    assert rep["orders"][(2,)] <= 2


def test_characterization_positive_matrix_valued():
    rng = np.random.default_rng(7)
    base = matrix_algebra(2)
    ser = series_algebra(base, 1, 2)
    u = SeriesElement(base, 1, 2)
    for k in mi_enumerate(1, 2):
        if sum(k) == 0:
            continue
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u[k] = (c + base.star_coords(c)) / 2
    src = truncated_poly(1, 2)
    cols = []
    power = ser_unit(base, 1, 2)
    for _ in range(3):
        cols.append(series_to_coords(ser, power))
        power = ser_mul(power, u)
    sys = from_homomorphism(LinearOp(np.stack(cols, axis=1), src, ser))
    rep = check_diffsys_characterization(sys, _poly_gens(src))
    assert rep["agree"] and all(rep["predicates"].values())
    assert rep["commutator_residual"] < 1e-9


def _twisted_system(b, q):
    """Unit-preserving, involutive, Leibniz-satisfying system whose D_1, D_2
    values escape every tower level of D_0."""
    f2 = function_algebra(2)
    m2 = matrix_algebra(2)
    ser = series_algebra(m2, 1, 2)
    e11 = np.array([1, 0, 0, 0], dtype=complex)
    p1 = np.array([0, b, np.conj(b), 0], dtype=complex)
    p2 = np.array([-abs(b) ** 2, q, np.conj(q), abs(b) ** 2], dtype=complex)
    h = np.zeros((ser.dim, 2), dtype=complex)
    h[0:4, 0] = e11
    h[4:8, 0] = p1
    h[8:12, 0] = p2
    h[0:4, 1] = m2.unit - e11
    h[4:8, 1] = -p1
    h[8:12, 1] = -p2
    return from_homomorphism(LinearOp(h, f2, ser))


def test_characterization_negative_case():
    sys = _twisted_system(1.0, 0.5j)
    gens = list(np.eye(2))
    rep = check_diffsys_characterization(sys, gens)
    assert rep["agree"]
    assert not any(rep["predicates"].values())
    assert rep["witnesses"]
    assert rep["commutator_residual"] < 1e-10


def test_characterization_rejects_invalid_input():
    sys = taylor_system(1, 2, [0.0])
    bad_ops = {k: m.copy() for k, m in sys.ops.items()}
    bad_ops[(1,)] = 2.0 * bad_ops[(1,)]
    with pytest.raises(DomainError):
        check_diffsys_characterization(
            DerivativeSystem(sys.source, sys.target, 1, 2, bad_ops), _poly_gens(sys.source))


# -- derivations to tangent functionals --------------------------------------


def test_tangent_of_derivation_pulls_back():
    p = truncated_poly(1, 3)
    d = derivative_op(p, 0)
    t = Character(d.target, np.eye(d.target.dim)[0])
    tau = tangent_of_derivation(d, t)
    assert np.allclose(tau.functional.real, [0, 1, 0, 0])
    assert tau.leibniz_residual() < 1e-12


def test_tangent_of_derivation_rejects_nonderivation():
    p = truncated_poly(1, 4)
    q = truncated_poly(1, 3)
    mult = RelativeOp(
        LinearOp(multiplication_matrix(p, q, {(1,): 1.0}), p, q), truncation_hom(p, q), check=False)
    with pytest.raises(DomainError):
        tangent_of_derivation(mult, Character(q, np.eye(q.dim)[0]))


def test_truncation_hom_is_homomorphism():
    p, q = truncated_poly(2, 3), truncated_poly(2, 2)
    tr = truncation_hom(p, q)
    assert tr.is_homomorphism(1e-12)
    with pytest.raises(Exception):
        truncation_hom(q, p)  # cannot truncate upward
