"""Finite abelian harmonic analysis, value bundles over central
subalgebras, and kernel-ideal identities for commutative-source maps."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from diffalg import (
    Character,
    DomainError,
    FiniteAbelianGroup,
    LinearOp,
    StructureAlgebra,
    Subspace,
    characters,
    dauns_hofmann_check,
    direct_sum,
    fourier_check,
    fourier_matrix,
    function_algebra,
    group_algebra,
    kernel_ideal_check,
    matrix_algebra,
    parse_group_spec,
    truncated_poly,
    value_bundle,
)
from diffalg import spectra


# -- groups and transforms ----------------------------------------------------


def test_parse_group_spec():
    assert parse_group_spec("Z4xZ2") == (4, 2)
    assert parse_group_spec("4x2") == (4, 2)
    assert parse_group_spec("z12") == (12,)
    with pytest.raises(ValueError):
        parse_group_spec("Z0")
    with pytest.raises(ValueError):
        parse_group_spec("abc")


def test_group_tables():
    g = FiniteAbelianGroup((4, 2))
    assert g.order == 8
    t = g.addition_table()
    # closure and commutativity
    assert t.shape == (8, 8)
    assert np.array_equal(t, t.T)
    # row of the identity is the identity permutation
    assert list(t[0]) == list(range(8))
    neg = g.negation()
    for i in range(8):
        assert t[i, neg[i]] == 0
    assert g.index(g.add((3, 1), (1, 1))) == g.index((0, 0))


def test_convolution_matches_group_algebra(rng):
    g = FiniteAbelianGroup((3, 2))
    alg = group_algebra([3, 2])
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.abs(g.convolve(a, b) - alg.mul_coords(a, b)).max() < 1e-12
    assert np.abs(g.involve(a) - alg.star_coords(a)).max() < 1e-12
    # delta_1 * delta_1 = delta_2 in Z4
    z4 = FiniteAbelianGroup((4,))
    assert np.allclose(z4.convolve(np.eye(4)[1], np.eye(4)[1]), np.eye(4)[2])


@pytest.mark.parametrize("factors", [(4, 8), (8, 8), (16, 16), (16, 16, 16)])
def test_convolution_is_bit_identical_to_the_whole_table(factors):
    """Row blocks of the addition table add in the same order as the whole
    table at once."""
    group = FiniteAbelianGroup(factors)
    rng = np.random.default_rng(len(factors))
    a, b = rng.standard_normal((2, group.order)) + 1j * rng.standard_normal((2, group.order))
    whole = np.zeros(group.order, dtype=complex)
    np.add.at(whole, group.addition_table().ravel(), np.outer(a, b).ravel())
    np.testing.assert_array_equal(group.convolve(a, b), whole)


def test_convolution_peak_stays_small():
    group = FiniteAbelianGroup((16, 16, 16))
    a = np.ones(group.order, dtype=complex)
    tracemalloc.start()
    try:
        group.convolve(a, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_fourier_matrix_rows_are_characters():
    g = FiniteAbelianGroup((2, 2))
    phi = fourier_matrix(g)
    assert np.abs(phi.imag).max() < 1e-12  # Z2 x Z2 characters are +-1
    alg = group_algebra([2, 2])
    for row in phi:
        assert Character(alg, row).is_character(1e-10)
    assert np.abs(phi @ phi.conj().T - 4 * np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("spec", ["Z2", "Z4", "Z2xZ2", "Z6", "Z4xZ2", "Z3x3"])
def test_fourier_check_small_groups(spec):
    rep = fourier_check(spec)
    assert rep["ok"]
    assert rep["characters_expected"] == rep["order"]
    assert rep["extracted_matched"] is True
    assert rep["convolution_residual"] < 1e-10
    assert rep["unitary_residual"] < 1e-10


def test_fourier_check_large_order_path():
    rep = fourier_check([8, 8, 8])  # 512 > 256: sampled path
    assert rep["ok"]
    assert rep["extracted_count"] is None
    with pytest.raises(DomainError):
        fourier_check([64, 64, 2])  # 8192 over the bound


def reference_greedy_matches(rows, phi):
    """The loop fourier_check matched extracted characters with before one
    closeness matrix replaced it: each row takes the first free close j."""
    matched = 0
    used = set()
    for row in rows:
        for j in range(len(phi)):
            if j in used:
                continue
            if np.abs(row - phi[j]).max() <= 1e-7:
                used.add(j)
                matched += 1
                break
    return matched


@pytest.mark.parametrize("seed", range(8))
def test_greedy_matches_agree_with_loop_reference(seed):
    rng = np.random.default_rng(seed)
    phi = fourier_matrix(FiniteAbelianGroup((4, 2)))
    d = len(phi)
    # permuted rows, repeats, rows just inside and just outside 1e-7, a
    # NaN row and a duplicated dual row, so rows compete for the same j
    phi = np.vstack([phi, phi[:1]])
    pick = rng.integers(0, d + 1, size=int(rng.integers(0, 2 * d)))
    rows = phi[pick] + rng.choice([0.0, 5e-8, 2e-7], size=(len(pick), 1))
    if len(rows) and seed % 2:
        rows[0, 0] = np.nan
    expected = reference_greedy_matches(rows, phi)
    assert spectra._greedy_matches(rows, phi) == expected
    assert spectra._greedy_matches(phi[:d], phi[:d]) == d


def test_greedy_matches_take_the_first_free_row():
    # a is close to both dual rows and takes the first, so b, close only
    # to that one, is left unmatched
    x = np.ones(3, dtype=complex)
    phi = np.vstack([x, x + 1.5e-7])
    rows = [x + 0.75e-7, x - 0.5e-7]
    assert spectra._greedy_matches(rows, phi) == reference_greedy_matches(rows, phi) == 1


# -- value bundles ------------------------------------------------------------


def test_value_bundle_of_identity_splits_into_points():
    f3 = function_algebra(3)
    vb = value_bundle(LinearOp.identity(f3))
    assert vb.fiber_dims == [1, 1, 1]
    assert vb.total.dim == 3
    assert np.abs(sorted(np.abs(np.linalg.eigvals(vb.section.matrix)))[0]) > 1e-8


def test_value_bundle_over_scalars_is_whole_algebra():
    m3 = matrix_algebra(3)
    one = function_algebra(1)
    emb = LinearOp(m3.unit.reshape(-1, 1), one, m3)
    vb = value_bundle(emb)
    assert vb.fiber_dims == [9]


def test_value_bundle_refuses_noncommutative_base():
    m2 = matrix_algebra(2)
    with pytest.raises(DomainError):
        value_bundle(LinearOp.identity(m2))


def _swapped_points():
    """C^2 with the swap as involution: a valid *-algebra without *-characters."""
    f2 = function_algebra(2)
    return StructureAlgebra(f2.structure, np.array([[0, 1], [1, 0]]), f2.unit)


def test_value_bundle_refuses_base_without_characters():
    alg = _swapped_points()
    assert characters(alg) == []
    with pytest.raises(DomainError, match=r"no \*-characters"):
        value_bundle(LinearOp.identity(alg))
    with pytest.raises(DomainError, match=r"no \*-characters"):
        dauns_hofmann_check(alg)


def test_dauns_hofmann_center_of_block_sum():
    alg = direct_sum(matrix_algebra(2), function_algebra(2))
    rep = dauns_hofmann_check(alg)
    assert rep["ok"]
    assert rep["central_dim"] == 3
    assert sorted(rep["fiber_dims"]) == [1, 1, 4]
    assert rep["section_rank"] == alg.dim == rep["total_dim"]


def test_dauns_hofmann_matrix_algebra_trivial_center():
    rep = dauns_hofmann_check(matrix_algebra(3))
    assert rep["ok"]
    assert rep["central_dim"] == 1
    assert rep["fiber_dims"] == [9]


def test_dauns_hofmann_proper_central_subalgebras():
    # C^4 over the diagonal pairing subalgebra {(a,a,b,b)}
    f4 = function_algebra(4)
    basis = [np.array([1.0, 1.0, 0, 0]), np.array([0, 0, 1.0, 1.0])]
    rep = dauns_hofmann_check(f4, central=basis)
    assert rep["ok"]
    assert rep["characters"] == 2
    assert sorted(rep["fiber_dims"]) == [2, 2]
    # full scalars as the smallest case
    rep2 = dauns_hofmann_check(f4, central=[np.ones(4)])
    assert rep2["ok"] and rep2["fiber_dims"] == [4]


def test_dauns_hofmann_rejects_noncentral():
    m2 = matrix_algebra(2)
    with pytest.raises(DomainError):
        dauns_hofmann_check(m2, central=[m2.unit, np.eye(4)[0]])  # E11 not central


def test_dauns_hofmann_rejects_nonsubalgebra():
    alg = direct_sum(function_algebra(2), function_algebra(2))
    # central but not unital: span of a single projection misses the unit
    with pytest.raises(DomainError):
        dauns_hofmann_check(alg, central=[np.array([1.0, 1.0, 0.0, 0.0])])


def test_fiber_dims_sum_to_algebra_dim():
    cases = [
        direct_sum(matrix_algebra(2), matrix_algebra(3)),
        direct_sum(function_algebra(2), matrix_algebra(2)),
        function_algebra(5),
    ]
    for alg in cases:
        rep = dauns_hofmann_check(alg)
        assert sum(rep["fiber_dims"]) == alg.dim
        assert rep["ok"]


# -- kernel ideals ------------------------------------------------------------


def test_kernel_ideal_identity_map():
    f3 = function_algebra(3)
    rep = kernel_ideal_check(LinearOp.identity(f3))
    assert rep["ok"]
    assert rep["image_characters"] == 3
    assert rep["matched_count"] == 3
    assert all(e["spans_equal"] for e in rep["part_i"])


def test_kernel_ideal_with_unmatched_character():
    # drop the last coordinate: C^3 -> C^2; the third character of the
    # source generates everything
    f3, f2 = function_algebra(3), function_algebra(2)
    proj = LinearOp(np.array([[1.0, 0, 0], [0, 1.0, 0]]), f3, f2)
    rep = kernel_ideal_check(proj)
    assert rep["ok"]
    assert rep["matched_count"] == 2
    unmatched = [e for e in rep["part_ii"] if not e["matched"]]
    assert len(unmatched) == 1
    assert unmatched[0]["full"]
    assert unmatched[0]["witness_invertible"] and unmatched[0]["witness_in_ideal"]


def test_kernel_ideal_into_matrix_target():
    # diagonal embedding of C^2 into M2
    f2, m2 = function_algebra(2), matrix_algebra(2)
    mat = np.zeros((4, 2))
    mat[0, 0] = mat[3, 1] = 1.0
    rep = kernel_ideal_check(LinearOp(mat, f2, m2))
    assert rep["ok"]
    assert rep["image_characters"] == 2
    assert rep["matched_count"] == 2


def test_kernel_ideal_rejects_bad_inputs():
    m2 = matrix_algebra(2)
    with pytest.raises(DomainError):
        kernel_ideal_check(LinearOp.identity(m2))  # noncommutative source
    f2 = function_algebra(2)
    with pytest.raises(DomainError):
        kernel_ideal_check(LinearOp(np.array([[1.0, 1.0], [0.0, 1.0]]), f2, f2))


def test_kernel_ideal_nilpotent_source_characters():
    # truncated polynomials have a unique character; mapping onto scalars
    # matches it and part (ii) has nothing unmatched
    p = truncated_poly(1, 2)
    f1 = function_algebra(1)
    ev0 = LinearOp(np.array([[1.0, 0.0, 0.0]]), p, f1)
    rep = kernel_ideal_check(ev0)
    assert rep["ok"]
    assert rep["matched_count"] == 1


def test_dauns_hofmann_computes_the_centre_once(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return centralizer(*args, **kw)

    centralizer = spectra.centralizer
    monkeypatch.setattr(spectra, "centralizer", counted)
    rep = dauns_hofmann_check(direct_sum(matrix_algebra(2), function_algebra(2)))
    assert rep["ok"]
    assert len(calls) == 1


def _reference_ideal_generators(phi, t):
    """The loop the generated ideal replaces: phi(v) * e_j for each kernel
    basis vector v of t and each basis index j, one product at a time."""
    eye = np.eye(phi.target.dim)
    return np.array([phi.target.mul_coords(phi.matrix @ v, eye[j])
                     for v in t.kernel().basis for j in range(phi.target.dim)])


def _inclusions():
    """Inclusions of commutative algebras into named and dense targets."""
    f2, m2 = function_algebra(2), matrix_algebra(2)
    diag = np.zeros((4, 2))
    diag[0, 0] = diag[3, 1] = 1.0
    block = direct_sum(matrix_algebra(2), function_algebra(3))
    out = {"identity-func:3": LinearOp.identity(function_algebra(3)),
           "diagonal-matrix:2": LinearOp(diag, f2, m2),
           "dense-diagonal": LinearOp(diag, f2, StructureAlgebra(m2.structure, m2.involution,
                                                                  m2.unit)),
           "group:4x2": LinearOp.identity(group_algebra([4, 2]))}
    centre = spectra.centralizer(block, Subspace.whole(block))
    out["centre-of-matrix:2+func:3"] = spectra.subalgebra(block, centre.basis)[1]
    return out


@pytest.mark.parametrize("name", list(_inclusions()))
def test_generated_ideals_match_the_product_loop(name):
    phi = _inclusions()[name]
    for t in characters(phi.source):
        want = _reference_ideal_generators(phi, t)
        got = spectra._generated_ideal(phi, t)
        assert Subspace(phi.target, want).equals(got)
        # the same generators, up to the rounding of one product per vector
        rows = phi.target.left_mul_matrix(t.kernel().basis @ phi.matrix.T).swapaxes(1, 2)
        np.testing.assert_allclose(rows.reshape(want.shape), want, rtol=0, atol=1e-14)
