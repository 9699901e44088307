"""Commutator calculus on stacks against the per-operator loops it replaces.

The references below are the earlier implementations, kept as the
equality gate:

- `diff_order` as one `RelativeOp` per commutator, two left
  multiplication matrices each, and the random cross-check drawn one
  sample and one level at a time;
- the centralizer tower with one `ad` matrix and one projected product
  per image element;
- the commutator identity of `check_diffsys_characterization` as a loop
  over basis elements.

`diff_order` must return the same order on every case derived from
`test_algebra.FAMILIES`, on a hypothesis property and on cases whose
cross-check fails, and must leave its generator where the loop left it:
the next draw after each call is compared. Tower levels must span the same
subspaces, and the commutator residuals must agree.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffalg import (
    LinearOp,
    PolyAlgebra,
    RelativeOp,
    Subspace,
    algebra_from_name,
    check_diffsys_characterization,
    derivative_op,
    diff_order,
    function_algebra,
    matrix_algebra,
    multiplication_matrix,
    taylor_system,
    truncated_poly,
    z_tower,
    z_tower_from_images,
)
from diffalg import _linalg as la
from diffalg import diffcalc
from diffalg.algebra import Element
from diffalg.diffcalc import derivative_matrix
from test_algebra import FAMILIES


def reference_commutator(p: RelativeOp, av) -> RelativeOp:
    left_a = p.source.left_mul_matrix(av)
    left_phi = p.target.left_mul_matrix(p.action.matrix @ av)
    mat = p.op.matrix @ left_a - left_phi @ p.op.matrix
    return RelativeOp(LinearOp(mat, p.source, p.target), p.action, check=False)


def reference_diff_order(p: RelativeOp, gens, max_n: int, tol: float = 1e-8,
                         samples: int = 100, seed: int = 0):
    gvecs = [np.asarray(g, dtype=complex).ravel() for g in gens]
    base = 1.0 + p.norm()
    rng = np.random.default_rng(seed)
    d = p.source.dim

    current = [p]
    for depth in range(1, max_n + 2):
        nxt = [reference_commutator(q, g) for q in current for g in gvecs]
        if all(q.norm() <= tol * base for q in nxt):
            ok = True
            for _ in range(samples):
                q = p
                for _level in range(depth):
                    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    a /= np.linalg.norm(a)
                    q = reference_commutator(q, a)
                if q.norm() > tol * base:
                    ok = False
                    break
            if ok:
                return depth - 1
        current = nxt
    return None


def reference_z_tower_from_images(target, images, depth: int) -> list[Subspace]:
    cvecs = [np.asarray(c.coords if isinstance(c, Element) else c,
                        dtype=complex).ravel() for c in images]
    d = target.dim
    ad = [target.right_mul_matrix(c) - target.left_mul_matrix(c) for c in cvecs]
    levels = [Subspace.zero(target)]
    for _ in range(depth):
        prev = levels[-1].basis
        off = np.eye(d) - prev.T @ prev.conj()
        stacked = np.vstack([off @ m for m in ad])
        levels.append(Subspace(target, la.null_space(stacked)))
    return levels


def reference_commutator_residual(sys) -> float:
    a, b = sys.source, sys.target
    phi = LinearOp(sys.op_matrix((0,) * sys.mvars), a, b)
    comm_res = 0.0
    binom, sub = sys.table.binomials(), sys.table.sub
    for r, k in enumerate(sys.indices):
        if not 1 <= sum(k) <= 3:
            continue
        dk = sys.op_matrix(k)
        lower = [l for l in np.flatnonzero(sub[r] >= 0) if l != r]
        for i in range(a.dim):
            e = np.eye(a.dim)[i]
            lhs = dk @ a.left_mul_matrix(e) - b.left_mul_matrix(phi.matrix @ e) @ dk
            rhs = np.zeros_like(lhs)
            for l in lower:
                val = sys.op_matrix(sys.indices[sub[r, l]]) @ e
                rhs = rhs + binom[l, r] * (b.left_mul_matrix(val)
                                           @ sys.op_matrix(sys.indices[l]))
            comm_res = max(comm_res, float(np.abs(lhs - rhs).max()))
    return comm_res


@pytest.fixture
def generators(monkeypatch):
    """Every generator `np.random.default_rng` hands out, in order."""
    made = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


def assert_same_order(generators, p, gens, max_n, **kw):
    """Equal orders, and the same next draw from each run's generator."""
    want = reference_diff_order(p, gens, max_n, **kw)
    after_reference = generators[-1].standard_normal(3)
    got = diff_order(p, gens, max_n, **kw)
    after = generators[-1].standard_normal(3)
    assert got == want
    np.testing.assert_array_equal(after, after_reference)
    return got


def _operator(alg, kind: str, rng) -> RelativeOp:
    d = alg.dim
    b, c = (rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))
    ad_b = alg.right_mul_matrix(b) - alg.left_mul_matrix(b)
    mats = {
        "mult": lambda: alg.left_mul_matrix(b),
        "inner": lambda: ad_b,
        "inner2": lambda: ad_b @ (alg.right_mul_matrix(c) - alg.left_mul_matrix(c)),
        "random": lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
    }
    return RelativeOp(LinearOp(mats[kind](), alg, alg), LinearOp.identity(alg), check=False)


KINDS = ["mult", "inner", "inner2", "random"]


@pytest.mark.parametrize("index", range(len(FAMILIES)), ids=lambda i: repr(FAMILIES[i]))
def test_families_match_reference(generators, index):
    alg = FAMILIES[index]
    rng = np.random.default_rng([index, 17])
    for kind in KINDS:
        p = _operator(alg, kind, rng)
        assert_same_order(generators, p, list(np.eye(alg.dim)), 2)


POLY_FAMILIES = [i for i, alg in enumerate(FAMILIES) if isinstance(alg, PolyAlgebra)]


@pytest.mark.parametrize("index", POLY_FAMILIES, ids=lambda i: repr(FAMILIES[i]))
def test_poly_families_reach_higher_orders(generators, index):
    """Against the identity action, d/dx_1 on a truncated polynomial
    algebra has a finite order above 1; x d/dx_1 has order 1 and x^2
    d^2/dx_1^2 order 2. The coordinates generate."""
    p = FAMILIES[index]
    coords = [np.eye(p.dim)[p.exp_index[tuple(int(t == i) for t in range(p.mvars))]]
              for i in range(p.mvars)]
    dx = derivative_matrix(p, p, 0)
    x = p.left_mul_matrix(coords[0])
    rng = np.random.default_rng(index)
    orders = []
    for mat in (dx, dx @ dx, x @ dx, x @ x @ dx @ dx, rng.standard_normal((p.dim, p.dim))):
        op = RelativeOp(LinearOp(mat, p, p), LinearOp.identity(p), check=False)
        orders.append(assert_same_order(generators, op, coords, 6))
    assert orders[2:4] == [1, 2]


@pytest.mark.parametrize("mvars,degree", [(1, 4), (2, 3), (3, 2)])
def test_derivatives_match_reference(generators, mvars, degree):
    p = truncated_poly(mvars, degree)
    coords = [np.eye(p.dim)[p.exp_index[tuple(int(t == i) for t in range(mvars))]]
              for i in range(mvars)]
    d = derivative_op(p, mvars - 1)
    assert assert_same_order(generators, d, coords, 3) == 1
    assert assert_same_order(generators, d, list(np.eye(p.dim)), 3) == 1
    if degree >= 2:
        dd = derivative_op(d.target, 0)
        comp = RelativeOp(dd.op.compose(d.op), dd.action.compose(d.action), check=False)
        assert assert_same_order(generators, comp, coords, 3) == 2
        assert assert_same_order(generators, comp, coords, 1) is None


@given(name=st.sampled_from(["func:3", "poly:1:3", "group:3", "matrix:2", "cusp"]),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1),
       max_n=st.integers(0, 2), gen_count=st.integers(1, 4))
def test_property_matches_reference(name, kind, seed, max_n, gen_count):
    made = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    alg = algebra_from_name(name)
    rng = real(seed)
    p = _operator(alg, kind, rng)
    gens = list(rng.standard_normal((gen_count, alg.dim)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", spy)
        assert_same_order(made, p, gens, max_n, seed=seed % 1000)


def _failing_cross_check(first: int):
    """(1 + i x) d/dx (order 1, complex, so that swapping the real and
    imaginary parts of a sample changes its commutator norm) with only the
    unit as generator, so every generator level is zero, and a tolerance
    between the first `first` sampled depth-1 commutator norms and a
    later one: the cross-check passes samples 0..first-1 and fails at a
    later sample."""
    p = truncated_poly(1, 4)
    dx = derivative_op(p, 0)
    x = multiplication_matrix(dx.target, dx.target, {(1,): 1.0})
    op = dx.matrix + 1j * (x @ dx.matrix)
    d = RelativeOp(LinearOp(op, p, dx.target), dx.action, check=False)
    rng = np.random.default_rng(0)
    norms = []
    for _ in range(100):
        a = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
        a /= np.linalg.norm(a)
        norms.append(reference_commutator(d, a).norm())
    bound = max(norms[:first]) * (1 + 1e-9)
    fail = int(np.argmax(np.array(norms) > bound))
    assert fail >= first and norms[fail] > bound
    return d, [p.unit], bound / (1.0 + d.norm()), fail


@pytest.mark.parametrize("block", [None, 3, 1], ids=["one-block", "three-per-block", "one-per-block"])
def test_failing_cross_check_leaves_generator_in_place(generators, monkeypatch, block):
    d, gens, tol, fail = _failing_cross_check(5)
    if block is not None:
        per = d.source.dim ** 2 + d.target.dim ** 2 + 3 * d.source.dim * d.target.dim
        monkeypatch.setattr(diffcalc, "_BLOCK_ENTRIES", block * per)
    assert fail >= 5
    # depth 1 fails the cross-check at sample `fail`; depth 2 is exact
    assert assert_same_order(generators, d, gens, 3, tol=tol) == 1
    assert assert_same_order(generators, d, gens, 0, tol=tol) is None


def test_too_small_generating_set_is_caught(generators):
    """The unit alone passes every generator level; the samples see the
    derivative."""
    p = truncated_poly(2, 3)
    d = derivative_op(p, 0)
    assert assert_same_order(generators, d, [p.unit], 3) == 1
    assert assert_same_order(generators, d, [p.unit], 3, samples=1) == 1


def _star_hom(n: int, seed: int) -> LinearOp:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    cols = [np.outer(u[:, i], u[:, i].conj()).reshape(-1) for i in range(n)]
    return LinearOp(np.column_stack(cols), function_algebra(n), matrix_algebra(n))


@pytest.mark.parametrize("phi", [
    *(LinearOp.identity(alg) for alg in FAMILIES),
    _star_hom(3, 1), _star_hom(4, 2),
    LinearOp(np.column_stack([np.eye(2).reshape(-1),
                              np.array([[0, 1], [0, 0]]).reshape(-1)]),
             truncated_poly(1, 1), matrix_algebra(2)),
], ids=lambda phi: f"{phi.source.dim}->{phi.target.dim}")
def test_tower_levels_match_reference(phi):
    tower = z_tower(phi, 3)
    want = reference_z_tower_from_images(phi.target, phi.matrix.T, 3)
    assert tower.dims() == [s.dim for s in want]
    for got, ref in zip(tower.levels, want):
        assert got.equals(ref)
    rows = z_tower_from_images(phi.target, list(phi.matrix.T), 3)
    assert rows.dims() == tower.dims()


@pytest.mark.parametrize("mvars,order", [(1, 3), (2, 2), (3, 2)])
def test_commutator_residual_matches_reference(mvars, order):
    rng = np.random.default_rng(mvars)
    sys = taylor_system(mvars, order, rng.standard_normal(mvars) * 0.5)
    coords = [np.eye(sys.source.dim)[sys.source.exp_index[
        tuple(int(t == i) for t in range(mvars))]] for i in range(mvars)]
    rep = check_diffsys_characterization(sys, coords)
    want = reference_commutator_residual(sys)
    assert abs(rep["commutator_residual"] - want) <= 1e-13
    assert rep["commutator_residual"] < 1e-10


def _level_cases():
    """(id, operator, generators, max_n) for d/dx on poly:1:4 against the
    truncation action:
    - zero: the coordinate alone as generator, so level 2 is zero;
    - nonzero: d^2/dx^2, whose level 2 is nonzero and level 3 zero;
    - split: d^2/dx^2 with eight unit generators before the coordinate,
      so level 2 has nine rows of which only the last is nonzero, and the
      first nonzero block is not the first block."""
    p = truncated_poly(1, 4)
    x = np.eye(p.dim)[p.exp_index[(1,)]]
    d = derivative_op(p, 0)
    dd = derivative_op(d.target, 0)
    d2 = RelativeOp(dd.op.compose(d.op), dd.action.compose(d.action), check=False)
    return [("zero", d, [x], 3), ("nonzero", d2, [x], 3),
            ("split", d2, [p.unit] * 8 + [x], 3)]


LEVEL_CASES = _level_cases()


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1-row-blocks", "7-row-blocks"])
@pytest.mark.parametrize("index", range(len(LEVEL_CASES)), ids=[c[0] for c in LEVEL_CASES])
def test_level_blocks_give_the_same_order(generators, monkeypatch, index, rows):
    """A level is tested in one buffer, block by block, and stored only
    when the next depth reads it; blocks of 1 and 7 rows of the previous
    level give the reference's order and generator state."""
    name, p, gens, max_n = LEVEL_CASES[index]
    if rows is not None:
        row = len(gens) * p.target.dim * p.source.dim
        monkeypatch.setattr(diffcalc, "_LEVEL_ENTRIES", rows * row)
    want = {"zero": 1, "nonzero": 2, "split": 2}[name]
    assert assert_same_order(generators, p, gens, max_n) == want
    assert assert_same_order(generators, p, gens, want - 1) is None
