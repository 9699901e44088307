"""Derivative systems and their packed series-homomorphism form."""
from __future__ import annotations

import math

import numpy as np
import pytest

from diffalg import (
    DerivativeSystem,
    DomainError,
    LinearOp,
    SeriesElement,
    from_homomorphism,
    function_algebra,
    matrix_algebra,
    mi_enumerate,
    monomial_about,
    ser_involve,
    ser_mul,
    ser_unit,
    series_algebra,
    series_to_coords,
    taylor_system,
    to_homomorphism,
    truncated_poly,
    verify_system,
)


def _nilpotent_u_system(base, m, order, seed):
    """Valid system from h(a) = sum_j coeff_j(a) u^j with u nilpotent Hermitian."""
    rng = np.random.default_rng(seed)
    src = truncated_poly(1, order)
    ser = series_algebra(base, m, order)
    u = SeriesElement(base, m, order)
    for k in mi_enumerate(m, order):
        if sum(k) == 0:
            continue
        c = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
        u[k] = (c + base.star_coords(c)) / 2.0
    cols = []
    power = ser_unit(base, m, order)
    for _ in range(order + 1):
        cols.append(series_to_coords(ser, power))
        power = ser_mul(power, u)
    h = LinearOp(np.stack(cols, axis=1), src, ser)
    return from_homomorphism(h), h


def test_taylor_system_reads_centered_monomials():
    sys = taylor_system(1, 3, [2.0])
    # D_k applied to the k-th centered basis monomial is k!
    for k in range(4):
        out = sys.op_matrix((k,)) @ np.eye(4)[k]
        assert out[0] == pytest.approx(float(math.factorial(k)))
    assert verify_system(sys).ok
    # absolute x^2 about point 2: (x-2)^2 + 4(x-2) + 4
    x2 = monomial_about(sys.source, [2.0], (2,))
    assert np.allclose(x2.coords.real, [4.0, 4.0, 1.0, 0.0])
    assert (sys.op_matrix((1,)) @ x2.coords)[0] == pytest.approx(4.0)  # d/dx x^2 at 2
    assert (sys.op_matrix((2,)) @ x2.coords)[0] == pytest.approx(2.0)


def test_taylor_system_multivariate():
    sys = taylor_system(2, 2, [1.0, -1.0])
    rep = verify_system(sys)
    assert rep.ok and rep.max_residual == 0.0
    f = monomial_about(sys.source, [1.0, -1.0], (1, 1))  # x*y centered at (1,-1)
    assert (sys.op_matrix((1, 1)) @ f.coords)[0] == pytest.approx(1.0)
    assert (sys.op_matrix((0, 1)) @ f.coords)[0] == pytest.approx(1.0)  # d/dy = x at the point
    assert (sys.op_matrix((0, 0)) @ f.coords)[0] == pytest.approx(-1.0)


def test_operator_shape_and_index_validation():
    src = truncated_poly(1, 1)
    tgt = function_algebra(1)
    with pytest.raises(ValueError):
        DerivativeSystem(src, tgt, 1, 1, {(2,): np.zeros((1, 2))})
    with pytest.raises(ValueError):
        DerivativeSystem(src, tgt, 1, 1, {(1,): np.zeros((2, 2))})


def test_verify_flags_each_axiom():
    sys = taylor_system(1, 2, [0.0])
    # scale D_1: breaks Leibniz but not unit/involution
    bad_ops = {k: m.copy() for k, m in sys.ops.items()}
    bad_ops[(1,)] = 2.0 * bad_ops[(1,)]
    bad = DerivativeSystem(sys.source, sys.target, 1, 2, bad_ops)
    rep = verify_system(bad)
    assert not rep.ok
    assert {v["axiom"] for v in rep.violations} == {"leibniz"}
    assert "leibniz" in rep.summary()

    # complex-scale D_2: the involution axiom D_k(a*) = D_k(a)* breaks
    bad_ops2 = {k: m.copy() for k, m in sys.ops.items()}
    bad_ops2[(2,)] = 1j * bad_ops2[(2,)]
    rep2 = verify_system(DerivativeSystem(sys.source, sys.target, 1, 2, bad_ops2))
    assert any(v["axiom"] == "involution" for v in rep2.violations)

    # wreck D_0 on the unit
    bad_ops3 = {k: m.copy() for k, m in sys.ops.items()}
    bad_ops3[(0,)] = 0.0 * bad_ops3[(0,)]
    rep3 = verify_system(DerivativeSystem(sys.source, sys.target, 1, 2, bad_ops3))
    assert any(v["axiom"] == "unit" for v in rep3.violations)


@pytest.mark.parametrize("base_name,m,order", [("f1", 1, 3), ("m2", 1, 2), ("m2", 2, 2), ("f2", 2, 2)])
def test_roundtrip_through_homomorphism(base_name, m, order):
    base = {"f1": function_algebra(1), "m2": matrix_algebra(2), "f2": function_algebra(2)}[base_name]
    sys, h = _nilpotent_u_system(base, m, order, seed=hash((base_name, m, order)) % 2**32)
    assert verify_system(sys).ok
    h2 = to_homomorphism(sys)
    assert np.abs(h2.matrix - h.matrix).max() < 1e-12
    sys2 = from_homomorphism(h2)
    assert sys2.isclose(sys, 1e-12)
    assert h2.is_homomorphism(1e-9)


def test_to_homomorphism_rejects_invalid_system():
    sys = taylor_system(1, 2, [0.0])
    bad_ops = {k: m.copy() for k, m in sys.ops.items()}
    bad_ops[(1,)] = 3.0 * bad_ops[(1,)]
    bad = DerivativeSystem(sys.source, sys.target, 1, 2, bad_ops)
    with pytest.raises(DomainError):
        to_homomorphism(bad)


def test_from_homomorphism_rejects_nonmultiplicative():
    src = truncated_poly(1, 1)
    ser = series_algebra(function_algebra(1), 1, 1)
    mat = np.array([[1.0, 1.0], [0.0, 1.0]])  # not an algebra map
    with pytest.raises(DomainError):
        from_homomorphism(LinearOp(mat, src, ser))
    with pytest.raises(ValueError):
        from_homomorphism(LinearOp(np.eye(2), src, function_algebra(2)))


def test_taylor_packs_to_series_of_shifted_argument():
    # h(f) coefficient at k is f^(k)(s)/k!: the Taylor expansion itself
    s = 0.5
    sys = taylor_system(1, 2, [s])
    h = to_homomorphism(sys)
    f = monomial_about(sys.source, [s], (2,))  # absolute x^2
    coeffs = h.matrix @ f.coords
    assert np.allclose(coeffs.real, [s * s, 2 * s, 1.0])


def test_monomial_about_binomial_expansion():
    p = truncated_poly(2, 3)
    e = monomial_about(p, [1.0, 2.0], (2, 1))
    # x^2 y = sum binom((2,1),(b1,b2)) 1^(2-b1) 2^(1-b2) (x-1)^b1 (y-2)^b2
    assert e.coords[p.exp_index[(0, 0)]] == pytest.approx(2.0)
    assert e.coords[p.exp_index[(1, 0)]] == pytest.approx(4.0)
    assert e.coords[p.exp_index[(0, 1)]] == pytest.approx(1.0)
    assert e.coords[p.exp_index[(2, 1)]] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        monomial_about(p, [0.0, 0.0], (4, 0))


def test_scale_and_isclose():
    sys = taylor_system(1, 2, [0.0])
    assert sys.scale() >= 2.0  # D_2 row carries 2!
    other = taylor_system(1, 2, [0.0])
    assert sys.isclose(other)
    bumped_ops = {k: m.copy() for k, m in sys.ops.items()}
    bumped_ops[(1,)] = bumped_ops[(1,)] + 1e-6
    assert not sys.isclose(DerivativeSystem(sys.source, sys.target, 1, 2, bumped_ops), 1e-9)


def _reference_leibniz(sys):
    """(index, pair, residual) per failing index, from the three-operand einsum."""
    from diffalg.multiindex import mi_le, mi_sub

    a, b = sys.source, sys.target
    out = []
    for k in sys.indices:
        lhs = np.einsum("ba,ija->ijb", sys.op_matrix(k), a.structure)
        rhs = np.zeros_like(lhs)
        for l in sys.indices:
            if mi_le(l, k):
                rhs += math.prod(map(math.comb, k, l)) * np.einsum(
                    "bi,cj,bcd->ijd", sys.op_matrix(mi_sub(k, l)), sys.op_matrix(l), b.structure)
        gap = np.abs(lhs - rhs)
        i, j = np.unravel_index(np.argmax(gap.max(axis=2)), (a.dim, a.dim))
        out.append((k, (int(i), int(j)), float(gap[i, j].max())))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leibniz_witness_matches_einsum_reference(seed):
    good, _ = _nilpotent_u_system(matrix_algebra(2), 2, 2, seed)
    rng = np.random.default_rng(seed)
    ops = {k: good.op_matrix(k) for k in good.indices}
    ops[(1, 0)] = ops[(1, 0)] + 1e-3 * rng.standard_normal(ops[(1, 0)].shape)
    bad = DerivativeSystem(good.source, good.target, 2, 2, ops)
    rep = verify_system(bad)
    got = [(v["index"], v["pair"], v["residual"]) for v in rep.violations
           if v["axiom"] == "leibniz"]
    scale = 1.0 + bad.scale() ** 2
    want = [w for w in _reference_leibniz(bad) if w[2] > 1e-9 * scale]
    assert [g[:2] for g in got] == [w[:2] for w in want] and got
    assert np.allclose([g[2] for g in got], [w[2] for w in want], rtol=1e-9, atol=0)
