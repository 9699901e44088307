"""Formal power series with coefficients in an involutive algebra.

Covers the ring laws, the antimultiplicative conjugate-linear star, the
degree-truncation behaviour, and agreement between the element API and
the flattened structure-constant form.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (
    DomainError,
    SeriesElement,
    coords_to_series,
    function_algebra,
    matrix_algebra,
    mi_enumerate,
    ser_involve,
    ser_mul,
    ser_unit,
    series_algebra,
    series_to_coords,
)

BASES = {
    "scalar": function_algebra(1),
    "m2": matrix_algebra(2),
    "f3": function_algebra(3),
}


def _random_series(rng, base, m, n):
    x = SeriesElement(base, m, n)
    for k in mi_enumerate(m, n):
        x[k] = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    return x


@given(
    st.sampled_from(sorted(BASES)),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
@settings(max_examples=30)
def test_ring_laws(base_name, m, n, seed):
    base = BASES[base_name]
    rng = np.random.default_rng(seed)
    x, y, z = (_random_series(rng, base, m, n) for _ in range(3))
    assoc = ser_mul(ser_mul(x, y), z) - ser_mul(x, ser_mul(y, z))
    assert assoc.norm() < 1e-9
    dist = ser_mul(x, y + z) - (ser_mul(x, y) + ser_mul(x, z))
    assert dist.norm() < 1e-12
    one = ser_unit(base, m, n)
    assert ser_mul(one, x).isclose(x) and ser_mul(x, one).isclose(x)


@given(st.sampled_from(sorted(BASES)), st.integers(1, 2), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=30)
def test_star_is_antimultiplicative_involution(base_name, m, n, seed):
    base = BASES[base_name]
    rng = np.random.default_rng(seed)
    x = _random_series(rng, base, m, n)
    y = _random_series(rng, base, m, n)
    assert ser_involve(ser_involve(x)).isclose(x)
    lhs = ser_involve(ser_mul(x, y))
    rhs = ser_mul(ser_involve(y), ser_involve(x))
    assert (lhs - rhs).norm() < 1e-9
    # conjugate linearity
    assert ser_involve(2j * x).isclose(-2j * ser_involve(x))


def test_multiplication_convolves_indices():
    base = function_algebra(1)
    x = SeriesElement(base, 1, 3)
    x[(1,)] = [1.0]
    one = ser_unit(base, 1, 3)
    p = one + x  # 1 + t
    q = one - x
    prod = ser_mul(p, q)  # 1 - t^2
    assert np.allclose(prod[(0,)], [1.0])
    assert np.allclose(prod[(1,)], [0.0])
    assert np.allclose(prod[(2,)], [-1.0])
    # powers beyond the order silently truncate
    cube = ser_mul(ser_mul(x, x), ser_mul(x, x))
    assert cube.norm() == 0.0


def test_coefficients_multiply_in_the_base():
    m2 = matrix_algebra(2)
    x = SeriesElement(m2, 1, 2)
    y = SeriesElement(m2, 1, 2)
    a = np.array([0.0, 1.0, 0.0, 0.0])  # E12
    b = np.array([0.0, 0.0, 1.0, 0.0])  # E21
    x[(1,)] = a
    y[(1,)] = b
    prod = ser_mul(x, y)
    assert np.allclose(prod[(2,)], m2.mul_coords(a, b))  # E12*E21 = E11
    assert np.allclose(prod[(0,)], 0.0)


def test_index_bounds_are_enforced():
    x = SeriesElement(function_algebra(1), 2, 2)
    with pytest.raises(Exception):
        x[(3, 0)]
    with pytest.raises(Exception):
        x[(1,)] = [1.0]


def test_series_above_the_size_bound_is_refused_before_allocation():
    base = function_algebra(1)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="847660528 coefficients; at most 256"):
            SeriesElement(base, 10, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_results_share_the_table_of_their_operand(rng):
    base = matrix_algebra(2)
    x, y = _random_series(rng, base, 2, 2), _random_series(rng, base, 2, 2)
    assert x.coeffs.shape == (6, 4)
    for z in (x + y, x - y, -x, 2 * x, ser_mul(x, y), ser_involve(x), x.copy()):
        assert z.table is x.table
    alg = series_algebra(base, 2, 2)
    assert coords_to_series(alg, series_to_coords(alg, x)).table is alg.table


def test_flattened_algebra_matches_element_api(rng):
    alg = series_algebra(matrix_algebra(2), 1, 2)
    assert alg.axiom_violations(1e-9) == []
    x = _random_series(rng, alg.base, 1, 2)
    y = _random_series(rng, alg.base, 1, 2)
    xv, yv = series_to_coords(alg, x), series_to_coords(alg, y)
    direct = series_to_coords(alg, ser_mul(x, y))
    assert np.abs(alg.mul_coords(xv, yv) - direct).max() < 1e-10
    assert np.abs(alg.star_coords(xv) - series_to_coords(alg, ser_involve(x))).max() < 1e-12
    back = coords_to_series(alg, xv)
    assert back.isclose(x)
    assert np.allclose(alg.unit, series_to_coords(alg, ser_unit(alg.base, 1, 2)))


def test_scalar_base_of_order_n_matches_truncated_poly(rng):
    from diffalg import truncated_poly

    alg = series_algebra(function_algebra(1), 1, 3)
    p = truncated_poly(1, 3)
    assert np.abs(alg.structure - p.structure).max() < 1e-12
