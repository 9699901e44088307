"""Structure-constant algebras: constructors, axioms, characters, quotients.

The named constructors build their tensors exactly and skip the axiom
self-check (O(d^3) memory; time O(d^5) for a dense tensor, O(d^3) for a
semigroup algebra), so this file is where the axioms actually get
verified for each family at small dimension. The law checkers are also
compared, message for message, with plain loop implementations kept here
as references, and the table and slab kernels of the axioms with each
other.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (
    Character,
    DomainError,
    LinearOp,
    StructureAlgebra,
    Subspace,
    algebra_from_name,
    centralizer,
    characters,
    cusp_algebra,
    direct_sum,
    function_algebra,
    group_algebra,
    matrix_algebra,
    mul,
    quotient,
    re_im,
    subalgebra,
    subspace_product,
    truncated_poly,
)
from diffalg import algebra as algebra_module
from test_product_table import BROKEN, NAMED, table_algebra, twin

FAMILIES = [
    matrix_algebra(2),
    matrix_algebra(3),
    function_algebra(1),
    function_algebra(4),
    truncated_poly(1, 4),
    truncated_poly(2, 3),
    truncated_poly(3, 2),
    direct_sum(matrix_algebra(2), function_algebra(2)),
    group_algebra([4]),
    group_algebra([2, 2]),
    cusp_algebra(),
]


@pytest.mark.parametrize("alg", FAMILIES, ids=lambda a: repr(a))
def test_named_constructors_satisfy_axioms(alg):
    assert alg.axiom_violations() == []


def test_unit_and_labels():
    m2 = matrix_algebra(2)
    assert m2.labels == ["E11", "E12", "E21", "E22"]
    assert np.allclose(m2.unit, [1, 0, 0, 1])
    p = truncated_poly(2, 2)
    assert p.labels[:3] == ["1", "x1", "x2"]
    assert function_algebra(3).labels == ["e1", "e2", "e3"]
    c = cusp_algebra()
    assert c.dim == 6
    assert np.allclose(c.unit, np.eye(6)[0])


def test_matrix_algebra_multiplies_like_matrices(rng):
    m3 = matrix_algebra(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = m3.element(a.reshape(-1))
    y = m3.element(b.reshape(-1))
    assert np.abs((x * y).coords - (a @ b).reshape(-1)).max() < 1e-12
    assert np.abs(x.star().coords - a.conj().T.reshape(-1)).max() < 1e-12


def test_function_algebra_is_pointwise(rng):
    f4 = function_algebra(4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4)
    assert np.abs((f4.element(a) * f4.element(b)).coords - a * b).max() < 1e-12
    assert np.abs(f4.element(a).star().coords - a.conj()).max() < 1e-12


def test_poly_multiplication_truncates():
    p = truncated_poly(1, 3)
    x = p.basis_element(1)
    x3 = x * x * x
    assert np.allclose(x3.coords, np.eye(4)[3])
    assert (x3 * x).norm() == 0.0  # degree 4 falls off the end
    assert p.evaluate((x * x).coords, [0.5]) == pytest.approx(0.25)


def test_cusp_algebra_skips_degree_one():
    c = cusp_algebra()
    assert c.labels == ["1", "x^2", "x^3", "x^4", "x^5", "x^6"]
    t2 = c.basis_element(1)
    t3 = c.basis_element(2)
    assert np.allclose((t2 * t3).coords, np.eye(6)[4])  # t2*t3 = t5
    assert (t2 * t2 * t3).norm() == 0.0  # degree 7 truncates away


def test_group_algebra_convolves():
    g = group_algebra([4])
    d1 = g.basis_element(1)
    assert np.allclose((d1 * d1).coords, np.eye(4)[2])
    assert np.allclose((d1 * d1 * d1 * d1).coords, g.unit)
    assert np.allclose(d1.star().coords, np.eye(4)[3])  # involution inverts
    z22 = group_algebra([2, 2])
    assert z22.labels == ["d(0, 0)", "d(0, 1)", "d(1, 0)", "d(1, 1)"]


def test_direct_sum_is_componentwise(rng):
    a, b = function_algebra(2), matrix_algebra(2)
    s = direct_sum(a, b)
    assert s.dim == 6
    x = rng.standard_normal(6)
    y = rng.standard_normal(6)
    got = s.element(x) * s.element(y)
    left = (a.element(x[:2]) * a.element(y[:2])).coords
    right = (b.element(x[2:]) * b.element(y[2:])).coords
    assert np.abs(got.coords - np.concatenate([left, right])).max() < 1e-12


def test_element_re_im_decomposition(rng):
    m2 = matrix_algebra(2)
    x = m2.element(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    h, k = re_im(x)
    assert h.isclose(h.star())
    assert k.isclose(k.star())
    assert (h + m2.element(1j * k.coords)).isclose(x)


def test_axiom_violations_detects_breakage():
    m2 = matrix_algebra(2)
    bad = StructureAlgebra(m2.structure, m2.involution, np.eye(4)[1], check=False)
    assert any("unit" in v for v in bad.axiom_violations())
    tweaked = m2.structure.copy()
    tweaked[1, 1, 0] = 1.0
    bad2 = StructureAlgebra(tweaked, m2.involution, m2.unit, check=False)
    assert bad2.axiom_violations() != []


def test_constructor_check_flag_raises():
    m2 = matrix_algebra(2)
    tweaked = m2.structure.copy()
    tweaked[1, 1, 0] = 1.0
    with pytest.raises(DomainError):
        StructureAlgebra(tweaked, m2.involution, m2.unit, check=True)


def test_serialization_roundtrip():
    for alg in (matrix_algebra(2), cusp_algebra()):
        back = StructureAlgebra.from_dict(alg.to_dict(), check=False)
        assert np.abs(back.structure - alg.structure).max() == 0.0
        assert np.abs(back.involution - alg.involution).max() == 0.0
        assert np.abs(back.unit - alg.unit).max() == 0.0
        assert back.labels == alg.labels


def test_algebra_from_name():
    assert algebra_from_name("matrix:3").dim == 9
    assert algebra_from_name("func:4").dim == 4
    assert isinstance(algebra_from_name("poly:2:3").dim, int)
    assert algebra_from_name("poly:2:3").dim == 10
    assert algebra_from_name("group:4x2").dim == 8
    assert algebra_from_name("group:Z4xZ2").dim == 8
    assert algebra_from_name("cusp").dim == 6
    with pytest.raises(ValueError):
        algebra_from_name("nonsense:7")


# -- characters ---------------------------------------------------------------


def test_characters_of_function_algebra():
    f3 = function_algebra(3)
    chars = characters(f3)
    assert len(chars) == 3
    table = sorted(tuple(np.round(c.functional.real).astype(int)) for c in chars)
    assert table == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for c in chars:
        assert c.is_character()


def test_characters_of_truncated_poly_is_evaluation_at_origin():
    # truncation kills high products, so evaluation away from 0 is not
    # multiplicative; the origin functional is the only character
    p = truncated_poly(1, 2)
    chars = characters(p)
    assert len(chars) == 1
    assert np.abs(chars[0].functional - np.eye(3)[0]).max() < 1e-8
    s = Character(p, np.array([1.0, 0.7, 0.49]))  # "evaluate at 0.7"
    assert not s.is_character()
    assert len(characters(cusp_algebra())) == 1


def test_characters_of_group_algebra_are_unitary_table():
    g = group_algebra([4])
    chars = characters(g)
    assert len(chars) == 4
    for c in chars:
        vals = c.functional
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-8
        assert c.is_character()


def test_characters_reject_noncommutative():
    with pytest.raises(DomainError):
        characters(matrix_algebra(2))


def test_characters_with_radical_summand():
    # C^2 plus a nilpotent part: characters factor through the semisimple quotient
    alg = direct_sum(function_algebra(2), truncated_poly(1, 2))
    chars = characters(alg)
    assert len(chars) == 3  # two points plus one origin evaluation


# -- subspaces, quotients, subalgebras ---------------------------------------


def test_subspace_operations():
    m2 = matrix_algebra(2)
    upper = Subspace(m2, [np.eye(4)[0], np.eye(4)[1], np.eye(4)[3]])
    assert upper.dim == 3
    assert upper.contains(np.array([1.0, 2.0, 0.0, -1.0]))
    assert not upper.contains(np.eye(4)[2])
    assert not upper.star_closed()
    diag = Subspace(m2, [np.eye(4)[0], np.eye(4)[3]])
    assert diag.star_closed()
    assert upper.contains_subspace(diag)
    assert upper.add(Subspace(m2, [np.eye(4)[2]])).dim == 4
    prod = subspace_product(diag, upper)
    assert prod.dim == 3


def test_quotient_by_ideal():
    p = truncated_poly(1, 3)
    ideal = Subspace(p, np.eye(4)[2:])  # span{x^2, x^3}
    q, pi = quotient(p, ideal)
    assert q.dim == 2
    assert q.axiom_violations() == []
    assert pi.source is p and pi.target is q
    x = np.eye(4)[1]
    xx = p.mul_coords(x, x)
    assert np.abs(pi.matrix @ xx).max() < 1e-10  # x^2 dies in the quotient
    # projection is an algebra map
    assert np.abs(pi.matrix @ p.mul_coords(x, p.unit) - q.mul_coords(pi.matrix @ x, pi.matrix @ p.unit)).max() < 1e-10


def test_quotient_rejects_nonideal():
    p = truncated_poly(1, 3)
    notideal = Subspace(p, [np.eye(4)[1]])  # span{x} is not closed under mult by x
    with pytest.raises(DomainError):
        quotient(p, notideal)


@pytest.mark.parametrize("name", ["func:3", "matrix:2"])
def test_quotient_by_the_whole_algebra_is_refused(name):
    # the one ideal that contains the unit; its quotient would have no basis
    for alg in (NAMED[name], twin(NAMED[name])):
        with pytest.raises(DomainError, match="ideal contains the unit"):
            quotient(alg, Subspace.whole(alg))


@pytest.mark.parametrize("check", [True, False])
def test_a_zero_dimensional_algebra_is_refused(check):
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        StructureAlgebra(np.zeros((0, 0, 0)), np.zeros((0, 0)), np.zeros(0), check=check)


def test_centralizer_oracle():
    m2 = matrix_algebra(2)
    z = centralizer(m2, Subspace(m2, [np.eye(4)[0] + np.eye(4)[3]]))
    assert z.dim == 4  # everything commutes with the identity
    z2 = centralizer(m2, Subspace.whole(m2))
    assert z2.dim == 1  # center of M2 is the scalars
    e12 = Subspace(m2, [np.eye(4)[1]])
    z3 = centralizer(m2, e12)
    assert z3.dim == 2
    assert z3.contains(np.eye(4)[1])


def test_centralizer_refuses_a_subspace_of_another_algebra():
    # a subspace of func:4 has vectors of length 4, as matrix:2 has
    with pytest.raises(DomainError, match="different algebra"):
        centralizer(matrix_algebra(2), Subspace(function_algebra(4), [np.eye(4)[0]]))


def test_subalgebra_constructs_closed_inclusion(rng):
    m3 = matrix_algebra(3)
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 2
    powers = [np.linalg.matrix_power(h, k).reshape(-1) for k in range(3)]
    sub, incl = subalgebra(m3, powers)
    assert incl.is_homomorphism(1e-8)
    assert sub.axiom_violations(1e-8) == []
    assert incl.source is sub and incl.target is m3
    assert incl.image().contains(np.eye(3).reshape(-1))


def test_subalgebra_rejects_unclosed_span():
    m2 = matrix_algebra(2)
    with pytest.raises(DomainError):
        subalgebra(m2, [np.eye(4)[0] + np.eye(4)[3], np.eye(4)[1]])  # not star closed


def test_linear_op_hom_violations():
    f2 = function_algebra(2)
    swap = LinearOp(np.array([[0.0, 1.0], [1.0, 0.0]]), f2, f2)
    assert swap.is_homomorphism()
    shear = LinearOp(np.array([[1.0, 1.0], [0.0, 1.0]]), f2, f2)
    assert not shear.is_homomorphism()
    assert any("multiplicative" in v or "unit" in v for v in shear.hom_violations())
    comp = swap.compose(swap)
    assert np.abs(comp.matrix - np.eye(2)).max() < 1e-12


def test_quotient_names_first_failing_product():
    p = truncated_poly(1, 3)
    with pytest.raises(DomainError, match=r"basis 1 \* \(ideal basis 0\) leaves"):
        quotient(p, Subspace(p, [np.eye(4)[1]]))


# -- law checkers against loop references ------------------------------------


def _ref_mul(alg, x, y):
    return np.einsum("i,j,ijk->k", x, y, alg.structure)


def reference_axiom_violations(alg, tol):
    """Loop form of StructureAlgebra.axiom_violations (d^4 intermediate)."""
    out = []
    d = alg.dim
    c = alg.structure
    left = np.einsum("ijl,lkm->ijkm", c, c)
    right = np.einsum("jkl,ilm->ijkm", c, c)
    bad = np.abs(left - right)
    if bad.max() > tol:
        i, j, k = np.unravel_index(np.argmax(bad.max(axis=3)), (d, d, d))
        out.append(f"associativity fails at basis triple ({i},{j},{k}), "
                   f"residual {bad[i, j, k].max():.2e}")
    for i in range(d):
        e = np.eye(d, dtype=complex)[i]
        if np.abs(_ref_mul(alg, alg.unit, e) - e).max() > tol:
            out.append(f"left unit law fails at basis {i}")
        if np.abs(_ref_mul(alg, e, alg.unit) - e).max() > tol:
            out.append(f"right unit law fails at basis {i}")
    s = alg.involution
    if np.abs(s @ np.conj(s) - np.eye(d)).max() > tol:
        out.append("involution is not an involution: S conj(S) != I")
    if np.abs(s @ np.conj(alg.unit) - alg.unit).max() > tol:
        out.append("unit is not involution-fixed")
    for i in range(d):
        for j in range(d):
            lhs = s @ np.conj(c[i, j])
            rhs = _ref_mul(alg, s[:, j], s[:, i])
            if np.abs(lhs - rhs).max() > tol:
                out.append(f"(xy)* = y*x* fails at basis pair ({i},{j})")
    return out


def reference_hom_violations(op, tol):
    """Loop form of LinearOp.hom_violations."""
    out = []
    src, tgt, h = op.source, op.target, op.matrix
    if np.abs(h @ src.unit - tgt.unit).max() > tol:
        out.append("does not preserve the unit")
    for i in range(src.dim):
        if np.abs(h @ src.involution[:, i] - tgt.involution @ np.conj(h[:, i])).max() > tol:
            out.append(f"does not intertwine involutions at basis {i}")
            break
    for i in range(src.dim):
        for j in range(src.dim):
            if np.abs(h @ src.structure[i, j] - _ref_mul(tgt, h[:, i], h[:, j])).max() > tol:
                out.append(f"not multiplicative at basis pair ({i},{j})")
                return out
    return out


def _noise(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _perturbations(alg, seed):
    """The algebra itself plus four broken copies, none of them checked."""
    rng = np.random.default_rng(seed)
    d = alg.dim
    c, s, u = alg.structure, alg.involution, alg.unit
    bumped = c.copy()
    bumped[tuple(rng.integers(0, d, size=3))] += 1.0
    return {
        "exact": alg,
        "bumped": StructureAlgebra(bumped, s, u, check=False),
        "involution-noise": StructureAlgebra(c, s + _noise(rng, (d, d), 4e-6), u, check=False),
        "unit-noise": StructureAlgebra(c, s, u + _noise(rng, d, 4e-6), check=False),
        "tensor-noise": StructureAlgebra(c + _noise(rng, c.shape, 1e-6), s, u, check=False),
    }


def _product_count(c):
    """Products of two nonzero constants on both sides of associativity,
    counted by contraction."""
    nz = (c != 0).astype(int)
    return int(np.einsum("ijl,lkm->", nz, nz) + np.einsum("jkl,ilm->", nz, nz))


def _sparse_around_bound(d, seed):
    """Two random integer tensors one nonzero apart, with T products just
    below and just above 2 d^3 and several products per basis pair: sparse
    tensors that are not product tables."""
    rng = np.random.default_rng(seed)
    c = np.zeros((d, d, d))
    while _product_count(c) <= 2 * d ** 3:
        below = c.copy()
        c[tuple(rng.integers(0, d, size=3))] = rng.integers(1, 4)
    return [StructureAlgebra(t, np.eye(d), np.eye(d)[0], check=False) for t in (below, c)]


# Beyond FAMILIES: larger semigroup algebras and sparse random tensors that
# are not tables; the dense tensor-noise copies and those take the slabs
LAW_CASES = FAMILIES + [matrix_algebra(5), truncated_poly(2, 5), group_algebra([4, 4, 2]),
                        *_sparse_around_bound(7, seed=3)]


@pytest.mark.parametrize("tol", [1e-9, 1e-5])
@pytest.mark.parametrize("index", range(len(LAW_CASES)), ids=lambda i: repr(LAW_CASES[i]))
def test_axiom_violations_match_loop_reference(index, tol):
    for kind, alg in _perturbations(LAW_CASES[index], seed=index).items():
        assert alg.axiom_violations(tol) == reference_axiom_violations(alg, tol), kind


def _dense(t, star, unit):
    """The tensor-built copy of the table algebra (t, star, unit)."""
    return twin(table_algebra(t, star, unit))


def test_axioms_of_a_tensor_read_its_table_only_when_it_is_one(monkeypatch):
    """A tensor whose nonzero constants and involution entries are all
    exactly 1, one product per basis pair and one image per column of S,
    goes to the table kernel; any other to the slabs."""
    taken = []
    for name in ("_table_associativity", "_associativity_slabs"):
        route = getattr(algebra_module, name)
        monkeypatch.setattr(algebra_module, name,
                            lambda *a, _n=name, _f=route: taken.append(_n) or _f(*a))
    base = matrix_algebra(3)
    c, s = base.structure, base.involution
    i, j, k = 1, 3, base._product.table[1, 3]  # E12 E21 = E11

    def changed(array, at, value):
        out = array.copy()
        out[at] = value
        return out

    cases = {
        "semigroup": (c, s, "_table_associativity"),
        "constant 2.0": (changed(c, (i, j, k), 2.0), s, "_associativity_slabs"),
        "constant 1j": (changed(c, (i, j, k), 1j), s, "_associativity_slabs"),
        "NaN constant": (changed(c, (i, j, k), np.nan), s, "_associativity_slabs"),
        "two products in one pair": (changed(c, (i, j, k + 1), 1.0), s,
                                     "_associativity_slabs"),
        "-1 in the involution": (c, changed(s, (base._product.star[4], 4), -1.0),
                                 "_associativity_slabs"),
    }
    for label, (tensor, involution, route) in cases.items():
        taken.clear()
        StructureAlgebra(tensor, involution, base.unit, check=False).axiom_violations()
        assert taken == [route], label


def _both_kernels(alg, tol):
    """axiom_violations through the table kernel, which alg must reach, and
    through the slabs."""
    assert algebra_module._semigroup_table(alg.structure, alg.involution)[0] is not None
    got = alg.axiom_violations(tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "_semigroup_table", lambda c, s: (None, None))
        return got, alg.axiom_violations(tol)


# the named tables of dimension up to 16 and the tables that break one law
_TABLES = {name: (alg._product.table, alg._product.star, np.flatnonzero(alg.unit))
           for name, alg in NAMED.items() if alg.dim <= 16} | BROKEN


@pytest.mark.parametrize("tol", [1e-9, 1.0])
@pytest.mark.parametrize("name", _TABLES)
def test_table_and_slab_kernels_give_the_reference_on_tables(name, tol):
    """Dense copies of the named tables and of the broken ones."""
    alg = _dense(*_TABLES[name])
    want = reference_axiom_violations(alg, tol)
    assert _both_kernels(alg, tol) == (want, want)


_SMALL = [t for t in _TABLES.values() if len(t[1]) <= 9]


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(range(len(_SMALL))), seed=st.integers(0, 2 ** 32 - 1),
       bumps=st.integers(0, 6), tol=st.sampled_from([1e-9, 1.0]))
def test_table_and_slab_kernels_give_the_reference_on_bumped_tables(base, seed, bumps, tol):
    """Tables with entries, star images and unit indices moved at random:
    many broken laws and ties at the largest residual, and star maps that
    are not permutations."""
    rng = np.random.default_rng(seed)
    t, star, unit = (x.copy() for x in _SMALL[base])
    d = len(star)
    for _ in range(bumps):
        kind = rng.integers(3)
        if kind == 0:
            t[tuple(rng.integers(0, d, size=2))] = rng.integers(-1, d)
        elif kind == 1:
            star[rng.integers(d)] = rng.integers(d)
        else:
            unit[rng.integers(len(unit))] = rng.integers(d)
    alg = _dense(t, star, unit)
    want = reference_axiom_violations(alg, tol)
    assert _both_kernels(alg, tol) == (want, want)


def test_perturbations_break_the_laws():
    # the reference comparison above is only worth something if the
    # perturbed copies actually produce witnesses of every kind
    seen = set()
    for index, alg in enumerate(FAMILIES):
        for kind, bad in _perturbations(alg, seed=index).items():
            msgs = bad.axiom_violations(1e-9)
            assert (kind == "exact") == (not msgs)
            seen.update(m.split(" fails")[0].split(" is ")[0] for m in msgs)
    assert {"associativity", "left unit law", "right unit law", "(xy)* = y*x*",
            "involution", "unit"} <= seen


def _hom_cases():
    p = truncated_poly(1, 3)
    q, proj = quotient(p, Subspace(p, np.eye(4)[2:]))
    m3 = matrix_algebra(3)
    sub, incl = subalgebra(m3, [np.eye(3).reshape(-1), np.diag([1.0, 2.0, 3.0]).reshape(-1),
                                np.diag([1.0, 4.0, 9.0]).reshape(-1)])
    g = group_algebra([2, 2])
    return [proj, incl, LinearOp.identity(g), LinearOp.identity(m3)]


@pytest.mark.parametrize("tol", [1e-9, 1e-5])
def test_hom_violations_match_loop_reference(tol):
    rng = np.random.default_rng(11)
    for op in _hom_cases():
        h = op.matrix
        variants = [h, h + _noise(rng, h.shape, 1e-6), h * (1.0 + 1e-3j)]
        bumped = h.copy()
        bumped[tuple(rng.integers(0, s) for s in h.shape)] += 1.0
        variants.append(bumped)
        for m in variants:
            broken = LinearOp(m, op.source, op.target)
            assert broken.hom_violations(tol) == reference_hom_violations(broken, tol)


def test_hom_violations_first_witness():
    f2 = function_algebra(2)
    shear = LinearOp(np.array([[1.0, 1.0], [0.0, 1.0]]), f2, f2)
    assert shear.hom_violations() == ["does not preserve the unit",
                                      "not multiplicative at basis pair (0,1)"]
    twist = LinearOp(np.diag([1.0, 1j]), f2, f2)
    assert twist.hom_violations() == ["does not preserve the unit",
                                      "does not intertwine involutions at basis 1",
                                      "not multiplicative at basis pair (1,1)"]


def test_axiom_violations_memory_is_cubic():
    m6 = matrix_algebra(6)  # d = 36: the d^4 intermediate alone took 26 MiB
    tracemalloc.start()
    try:
        assert m6.axiom_violations() == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("factors,mib", [([4, 4, 2], 2.02), ([10, 10], 61.0)])
def test_axiom_violations_memory_of_the_product_route(factors, mib):
    # d = 32 and d = 100, the group algebra and its tensor-built copy: both
    # read a product table; the bounds are the peaks traced with the slab
    # loop
    g = group_algebra(factors)
    for alg in (g, StructureAlgebra(g.structure, g.involution, g.unit, check=False)):
        tracemalloc.start()
        try:
            assert alg.axiom_violations() == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20


def test_a_dense_tensor_is_turned_away_without_a_copy_of_its_nonzeros():
    # d = 36 and every constant nonzero: the table is refused on the counts
    # per pair, so the peak is that of the complex slabs and involution
    # products, 2.5 MiB (3.2 MiB when the nonzeros were listed first)
    m6 = matrix_algebra(6)
    alg = StructureAlgebra(m6.structure + 1e-3j, m6.involution, m6.unit, check=False)
    tracemalloc.start()
    try:
        assert alg.axiom_violations()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_residuals_fail_every_law(value):
    f2 = function_algebra(2)
    c = f2.structure.copy()
    c[0, 0, 0] = value
    msgs = StructureAlgebra(c, f2.involution, f2.unit, check=False).axiom_violations()
    assert msgs[0] == f"associativity fails at basis triple (0,0,0), residual {np.nan:.2e}"
    # the same tensor made dense takes the slab route, which fails it too
    dense = c + 1e-3
    msgs = StructureAlgebra(dense, f2.involution, f2.unit, check=False).axiom_violations()
    assert msgs[0].startswith("associativity fails at basis triple (0,0,0), residual ")
    s = f2.involution.copy()
    s[1, 1] = value
    u = f2.unit.copy()
    u[1] = value
    assert StructureAlgebra(f2.structure, s, u, check=False).axiom_violations() == [
        "left unit law fails at basis 0", "right unit law fails at basis 0",
        "left unit law fails at basis 1", "right unit law fails at basis 1",
        "involution is not an involution: S conj(S) != I",
        "unit is not involution-fixed", *(f"(xy)* = y*x* fails at basis pair ({i},{j})"
                                          for i in range(2) for j in range(2))]


def reference_is_commutative(alg, tol):
    c = alg.structure
    return bool(np.abs(c - c.transpose(1, 0, 2)).max() <= tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-5])
@pytest.mark.parametrize("index", range(len(FAMILIES)), ids=lambda i: repr(FAMILIES[i]))
def test_is_commutative_matches_reference(index, tol):
    for kind, alg in _perturbations(FAMILIES[index], seed=index).items():
        assert alg.is_commutative(tol) is reference_is_commutative(alg, tol), kind


def test_is_commutative_sees_the_last_block():
    # d = 64 compares slices in blocks of 16; the only asymmetric entries,
    # c[62, 63, 63] against c[63, 62, 63], both lie in the last block
    g = group_algebra([8, 8])
    c = g.structure.copy()
    c[62, 63, 63] += 1e-6
    lopsided = StructureAlgebra(c, g.involution, g.unit, check=False)
    assert g.is_commutative()
    for tol in (1e-9, 1e-5):
        assert lopsided.is_commutative(tol) is reference_is_commutative(lopsided, tol)
    assert not lopsided.is_commutative(1e-9) and lopsided.is_commutative(1e-5)


def test_is_commutative_memory_is_quadratic():
    g = group_algebra([16, 16])  # d = 256: a transposed difference took 384 MiB
    tracemalloc.start()
    try:
        assert g.is_commutative()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_characters_memory_below_the_tensor():
    # d = 144: the trace-form gram once copied the whole transposed tensor
    g = group_algebra([12, 12])
    tracemalloc.start()
    try:
        assert len(characters(g)) == 144
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * g.structure.nbytes


def test_multiplication_maps_agree_with_products(rng):
    alg = direct_sum(matrix_algebra(2), truncated_poly(2, 2))
    d = alg.dim
    a, x = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    prod = _ref_mul(alg, a, x)
    assert np.abs(alg.mul_coords(a, x) - prod).max() < 1e-12
    assert np.abs(alg.left_mul_matrix(a) @ x - prod).max() < 1e-12
    assert np.abs(alg.right_mul_matrix(x) @ a - prod).max() < 1e-12
    pairs = alg.mul_pairs(np.stack([a, x]), np.stack([x, a, a]))
    assert pairs.shape == (2, 3, d)
    assert np.abs(pairs[0, 0] - prod).max() < 1e-12
    assert np.abs(pairs[1, 2] - _ref_mul(alg, x, a)).max() < 1e-12


# -- constructor arguments and the size guard ---------------------------------


@pytest.mark.parametrize("build", [matrix_algebra, function_algebra])
@pytest.mark.parametrize("n", [0, -1])
def test_constructors_reject_nonpositive_size(build, n):
    with pytest.raises(ValueError, match=rf"n must be >= 1, got {n}"):
        build(n)


@pytest.mark.parametrize("name, dim", [("matrix:17", 289), ("group:64x64", 4096),
                                       ("poly:10:10", 184756)])
def test_oversized_names_refused_before_allocation(name, dim):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"dimension {dim} exceeds 256.* {16 * dim ** 3} bytes"):
            algebra_from_name(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_oversized_direct_sum_refused_before_allocation():
    a, b = function_algebra(129), function_algebra(129)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"dimension 258 exceeds 256.* {16 * 258 ** 3} bytes"):
            direct_sum(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_guard_leaves_corpus_sizes_and_argument_errors_alone():
    assert algebra_from_name("group:8x8").dim == 64
    assert algebra_from_name("poly:3:6").dim == 84
    with pytest.raises(ValueError, match="positive"):
        algebra_from_name("group:0x300")
