"""Finite abelian harmonic analysis, value bundles over central
subalgebras, and kernel-ideal identities for commutative-source maps."""
from __future__ import annotations

import importlib.util
import math
import os
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
from test_basis_change import change_basis, unitary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- groups and transforms ----------------------------------------------------


def test_parse_group_spec():
    assert parse_group_spec("Z4xZ2") == (4, 2)
    assert parse_group_spec("4x2") == (4, 2)
    assert parse_group_spec("z12") == (12,)
    with pytest.raises(ValueError):
        parse_group_spec("Z0")
    with pytest.raises(ValueError):
        parse_group_spec("abc")



@pytest.mark.parametrize("spec", ["4x2", "Z4xZ2", "z4xz2", " 4 x 2 ", "z12", "04", "4X2"])
def test_group_names_read_the_group_spec(spec):
    """One grammar: a group: name has the factors parse_group_spec reads,
    which spectra and diffalg export as the one in algebra.py."""
    import diffalg
    from diffalg import algebra, algebra_from_name

    assert spectra.parse_group_spec is algebra.parse_group_spec is diffalg.parse_group_spec
    assert algebra_from_name(f"group:{spec}").dim == math.prod(parse_group_spec(spec))


@pytest.mark.parametrize("spec", ["+4", "zz4", "Z 4", "-4", "0x3", "4x", "x4", "\u0664"])
def test_group_names_refuse_what_the_group_spec_refuses(spec):
    from diffalg import algebra_from_name

    with pytest.raises(ValueError, match="is not a positive integer"):
        parse_group_spec(spec)
    with pytest.raises(ValueError, match="bad algebra name .*is not a positive integer"):
        algebra_from_name(f"group:{spec}")

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


# -- stacked sampled identities against the per-pair loops ----------------------


def reference_fourier_residuals(factors, seed=0, pairs=10) -> dict:
    """The sampled identities of fourier_check as they ran before the pairs
    were drawn and checked as one stack: one pair at a time, the
    convolution over the whole addition table, residuals folded with the
    builtin max. Above order 256 the round-trip draws come first."""
    group = FiniteAbelianGroup(factors)
    d = group.order
    rng = np.random.default_rng(seed)
    phi = fourier_matrix(group)
    out = {}
    if d > 256:
        round_trip = 0.0
        for _ in range(8):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = phi.conj().T @ (phi @ x) / d
            round_trip = max(round_trip, float(np.abs(y - x).max() / np.abs(x).max()))
        out["round_trip_residual"] = round_trip
    table, neg = group.addition_table().ravel(), group.negation()
    conv_res = inv_res = 0.0
    for _ in range(pairs):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.abs(a).max()
        b /= np.abs(b).max()
        fa, fb = phi @ a, phi @ b
        ab = np.zeros(d, dtype=complex)
        np.add.at(ab, table, np.outer(a, b).ravel())
        scale = 1.0 + float(np.abs(fa).max() * np.abs(fb).max())
        conv_res = max(conv_res, float(np.abs(phi @ ab - fa * fb).max()) / scale)
        inv_res = max(inv_res, float(np.abs(phi @ np.conj(a[neg]) - np.conj(fa)).max())
                      / (1.0 + float(np.abs(fa).max())))
    out["convolution_residual"] = conv_res
    out["involution_residual"] = inv_res
    out["state"] = rng.bit_generator.state
    return out


def reference_dauns_hofmann_residuals(algebra, seed=0, pairs=20) -> dict:
    """The sampled identities of dauns_hofmann_check one pair at a time,
    with the products and involutions written out on the tensors."""
    center = spectra.centralizer(algebra, Subspace.whole(algebra))
    bundle = value_bundle(spectra.subalgebra(algebra, center.basis)[1])
    v, total = bundle.section.matrix, bundle.total

    def mul(alg, x, y):
        d = alg.dim
        return y @ (x @ alg.structure.reshape(d, d * d)).reshape(d, d)

    rng = np.random.default_rng(seed)
    mult_res = star_res = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        y = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        x /= np.abs(x).max()
        y /= np.abs(y).max()
        mult_res = max(mult_res, float(np.abs(v @ mul(algebra, x, y)
                                              - mul(total, v @ x, v @ y)).max()))
        star_res = max(star_res, float(np.abs(v @ (algebra.involution @ np.conj(x))
                                              - total.involution @ np.conj(v @ x)).max()))
    return {"mult_residual": mult_res, "star_residual": star_res,
            "state": rng.bit_generator.state}


def _recording_rng(monkeypatch):
    """Patches np.random.default_rng so that the generators made are kept."""
    made = []
    default_rng = np.random.default_rng

    def recording(*args, **kw):
        made.append(default_rng(*args, **kw))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


FOURIER_GROUPS = [(2,), (3,), (4,), (2, 2), (6,), (4, 2), (3, 3), (8, 2), (5, 7),
                  (4, 4, 2), (8, 8)]


@pytest.mark.parametrize("factors", FOURIER_GROUPS + [(16, 16), (8, 8, 8)])
@pytest.mark.parametrize("seed,pairs", [(0, 10), (5, 10), (3, 1), (0, 0)])
def test_fourier_residuals_equal_the_per_pair_loop(factors, seed, pairs, monkeypatch):
    want = reference_fourier_residuals(factors, seed, pairs)
    made = _recording_rng(monkeypatch)
    rep = fourier_check(list(factors), seed=seed, pairs=pairs)
    for key in ("convolution_residual", "involution_residual", "round_trip_residual"):
        if key in want:
            assert rep[key] == want[key], key
    if math.prod(factors) <= 64:  # nothing is drawn after the pairs
        assert made[0].bit_generator.state == want["state"]
    if pairs == 0:
        assert rep["convolution_residual"] == rep["involution_residual"] == 0.0
    assert rep["ok"]


def _corpus_block_algebras():
    """The block algebras of the dauns-hofmann requests of perfbench's
    dense-laws corpus, in each block order."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    orders = [[2, 2, 1], [2, 1, 2], [1, 2, 2], [2, 3], [3, 2]]
    return {"blocks-" + "-".join(map(str, o)):
            StructureAlgebra.from_dict(workloads._block_algebra(o)) for o in orders}


def _dauns_hofmann_algebras():
    out = _corpus_block_algebras()
    # the four algebras of selftest's spectra_checks
    out["matrix:2+matrix:3"] = direct_sum(matrix_algebra(2), matrix_algebra(3))
    out["matrix:3"] = matrix_algebra(3)
    out["func:4"] = function_algebra(4)
    out["matrix:2+func:2"] = direct_sum(matrix_algebra(2), function_algebra(2))
    out["conjugated matrix:2+func:2"] = change_basis(out["matrix:2+func:2"], unitary(3, 6))
    return out


DH_ALGEBRAS = _dauns_hofmann_algebras()


@pytest.mark.parametrize("name", list(DH_ALGEBRAS))
@pytest.mark.parametrize("seed,pairs", [(0, 20), (7, 20), (2, 1), (0, 0)])
def test_dauns_hofmann_residuals_equal_the_per_pair_loop(name, seed, pairs, monkeypatch):
    algebra = DH_ALGEBRAS[name]
    want = reference_dauns_hofmann_residuals(algebra, seed, pairs)
    made = _recording_rng(monkeypatch)
    rep = dauns_hofmann_check(algebra, seed=seed, pairs=pairs)
    assert rep["mult_residual"] == want["mult_residual"]
    assert rep["star_residual"] == want["star_residual"]
    assert made[-1].bit_generator.state == want["state"]
    if pairs == 0:
        assert rep["mult_residual"] == rep["star_residual"] == 0.0
    assert rep["ok"]


def test_stacked_products_equal_one_pair_at_a_time(rng):
    alg = change_basis(direct_sum(matrix_algebra(2), function_algebra(1)), unitary(1, 5))
    x, y = rng.standard_normal((2, 3, 2, 5)) + 1j * rng.standard_normal((2, 3, 2, 5))
    pairs = list(zip(x.reshape(-1, 5), y.reshape(-1, 5)))
    np.testing.assert_array_equal(alg.mul_coords(x, y).reshape(-1, 5),
                                  [alg.mul_coords(a, b) for a, b in pairs])
    np.testing.assert_array_equal(alg.star_coords(x).reshape(-1, 5),
                                  [alg.star_coords(a) for a, _ in pairs])
    group = FiniteAbelianGroup((4, 3))
    x, y = rng.standard_normal((2, 4, 12)) + 1j * rng.standard_normal((2, 4, 12))
    np.testing.assert_array_equal(group.convolve(x, y), [group.convolve(a, b) for a, b in zip(x, y)])
    np.testing.assert_array_equal(group.involve(x), [group.involve(a) for a in x])


def test_a_nan_product_fails_the_fourier_check(monkeypatch):
    """The builtin max(0.0, nan) is 0.0, so the per-pair loop dropped a NaN
    residual and could report ok; the stacked maximum keeps it."""
    assert max(0.0, float("nan")) == 0.0
    convolve = FiniteAbelianGroup.convolve

    def nan_in_one_pair(self, alpha, beta):
        out = convolve(self, alpha, beta)
        out[..., -1, 0] = np.nan
        return out

    monkeypatch.setattr(FiniteAbelianGroup, "convolve", nan_in_one_pair)
    rep = fourier_check("Z4xZ2")
    assert math.isnan(rep["convolution_residual"])
    assert rep["involution_residual"] <= 1e-10
    assert rep["ok"] is False


def test_a_nan_product_fails_the_dauns_hofmann_check(monkeypatch):
    alg = direct_sum(matrix_algebra(2), function_algebra(2))
    products = alg.mul_coords

    def nan_in_one_pair(x, y):
        out = products(x, y)
        out[..., -1, 0] = np.nan
        return out

    monkeypatch.setattr(alg, "mul_coords", nan_in_one_pair)
    rep = dauns_hofmann_check(alg)
    assert math.isnan(rep["mult_residual"])
    assert rep["star_residual"] <= 1e-8
    assert rep["ok"] is False


def test_convolve_blocks_count_the_whole_stack(monkeypatch):
    """Each scatter holds at most _CONVOLVE_BLOCK addition-table entries
    over the whole stack, and the scatters cover every pair once."""
    sizes = []

    class RecordingAdd:
        @staticmethod
        def at(out, at, values):
            sizes.append(values.size)
            np.add.at(out, at, values)

    class RecordingNumpy:
        add = RecordingAdd

        def __getattr__(self, name):
            return getattr(np, name)

    group = FiniteAbelianGroup((16, 8))
    monkeypatch.setattr(spectra, "np", RecordingNumpy())
    for block, pairs in ((1000, 5), (100, 5), (4096, 40)):
        monkeypatch.setattr(spectra, "_CONVOLVE_BLOCK", block)
        sizes.clear()
        stack = np.ones((pairs, group.order), dtype=complex)
        out = group.convolve(stack, stack)
        assert max(sizes) <= max(block, group.order)
        assert sum(sizes) == pairs * group.order ** 2
        np.testing.assert_array_equal(out, np.full((pairs, group.order), float(group.order)))
