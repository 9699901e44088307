"""Character extraction from one eigendecomposition against the per-cluster
eigenspace route it replaces.

The reference below is the earlier extraction, kept as the equality gate:
one eigenspace SVD per eigenvalue cluster of the transposed generic
multiplication, every space refined by every transposed basis
multiplication, and one Character check per leaf (the earlier unit,
multiplicativity and involution tests, also kept here). The new route
must give the same number of characters in the same order, with every
functional within 1e-9, on the commutative members of
`test_algebra.FAMILIES`, on algebras with a radical (the quotient path),
on group algebras up to Z8 x Z8, on complex-unitary changes of basis and
and on a first generic element chosen so that its eigenvalues repeat:
the reference splits the clusters by refinement, the new route draws
the next element. When every draw repeats, the new route refuses with
NumericError (exit 4 through the CLI). Non-commutative input is refused
by both.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffalg import (
    Character,
    DomainError,
    NumericError,
    Subspace,
    algebra_from_name,
    characters,
    cusp_algebra,
    direct_sum,
    function_algebra,
    group_algebra,
    quotient,
    truncated_poly,
)
from diffalg import _linalg as la
from diffalg import algebra as algebra_module
from diffalg import cli
from test_algebra import FAMILIES
from test_basis_change import change_basis, unitary
from test_linalg import cluster_values


def reference_is_character(ch: Character, tol: float = 1e-8) -> bool:
    a = ch.algebra
    d = a.dim
    s = ch.functional
    if abs(complex(s @ a.unit) - 1.0) > tol:
        return False
    vals = (a.structure.reshape(d * d, d) @ s).reshape(d, d) - np.outer(s, s)
    if float(np.abs(vals).max()) > tol:
        return False
    return bool(np.abs(s @ a.involution - np.conj(s)).max() <= tol)


def _refine(basis_cols: np.ndarray, op: np.ndarray, tol: float) -> list[np.ndarray]:
    """Split an op-invariant column subspace into eigen-sub-subspaces."""
    k = basis_cols.shape[1]
    if k == 1:
        return [basis_cols]
    restricted, *_ = np.linalg.lstsq(basis_cols, op @ basis_cols, rcond=None)
    eigvals = np.linalg.eigvals(restricted)
    reps = cluster_values(eigvals, tol)
    if len(reps) == 1:
        return [basis_cols]
    out = []
    for lam in reps:
        sub = la.eigenspace(restricted, lam, tol)
        if sub.shape[0]:
            out.append(basis_cols @ sub.T)
    return out


def reference_semisimple_characters(algebra, tol: float) -> list[Character]:
    d = algebra.dim
    cluster_tol = 1e-7
    rng = np.random.default_rng(7)
    generic = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    ops = algebra.structure
    m = algebra.left_mul_matrix(generic).T

    spaces = []
    for lam in cluster_values(np.linalg.eigvals(m), cluster_tol):
        sub = la.eigenspace(m, lam, cluster_tol)
        if sub.shape[0]:
            spaces.append(sub.T)
    for op in ops:
        spaces = [piece for v in spaces for piece in _refine(v, op, cluster_tol)]

    chars = []
    for v in spaces:
        vec = v[:, 0]
        nv = vec.conj() @ vec
        tup = ((ops @ vec) @ vec.conj()) / nv
        ch = Character(algebra, tup)
        if not reference_is_character(ch, tol):
            continue
        dupe = False
        for known in chars:
            delta = np.abs(known.functional - ch.functional).max()
            if delta <= cluster_tol:
                dupe = True
                break
            if cluster_tol < delta <= 10 * cluster_tol:
                raise AssertionError("eigen-cluster ambiguity in the reference")
        if not dupe:
            chars.append(ch)
    return chars


def reference_characters(algebra, tol: float = 1e-8) -> list[Character]:
    if not algebra.is_commutative():
        raise DomainError("character extraction requires a commutative algebra")
    d = algebra.dim
    c = algebra.structure
    gram = c.reshape(d, d * d) @ c.transpose(2, 1, 0).reshape(d * d, d)
    rad = la.null_space(gram)
    if rad.shape[0]:
        qalg, proj = quotient(algebra, Subspace(algebra, rad))
        chars = [Character(algebra, c.functional @ proj.matrix)
                 for c in reference_semisimple_characters(qalg, tol)]
        chars = [c for c in chars if reference_is_character(c, tol)]
    else:
        chars = reference_semisimple_characters(algebra, tol)
    chars.sort(key=lambda c: tuple(np.round(c.functional.view(float), 9)))
    return chars


def assert_same_characters(alg):
    want = np.array([ch.functional for ch in reference_characters(alg)])
    got = np.array([ch.functional for ch in characters(alg)])
    assert got.shape == want.shape
    if want.size:
        assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("index", range(len(FAMILIES)), ids=lambda i: repr(FAMILIES[i]))
def test_families_match_reference(index):
    alg = FAMILIES[index]
    if not alg.is_commutative():
        with pytest.raises(DomainError):
            characters(alg)
        return
    assert_same_characters(alg)


RADICAL = {
    "poly:1:4": lambda: truncated_poly(1, 4),
    "poly:2:3": lambda: truncated_poly(2, 3),
    "poly:3:2": lambda: truncated_poly(3, 2),
    "cusp": cusp_algebra,
    "cusp+func:3": lambda: direct_sum(cusp_algebra(), function_algebra(3)),
    "poly:1:3+group:4": lambda: direct_sum(truncated_poly(1, 3), group_algebra([4])),
}


@pytest.mark.parametrize("name", sorted(RADICAL))
def test_quotient_path_matches_reference(name):
    alg = RADICAL[name]()
    assert_same_characters(alg)
    assert characters(alg)


@pytest.mark.parametrize("shape", [[1], [2], [5], [2, 3], [2, 2, 2], [3, 5],
                                   [4, 4], [4, 4, 2], [2] * 5, [8, 8]],
                         ids=lambda s: "x".join(map(str, s)))
def test_group_algebras_match_reference(shape):
    alg = group_algebra(shape)
    assert_same_characters(alg)
    assert len(characters(alg)) == alg.dim


@given(name=st.sampled_from(["func:4", "group:2x3", "group:4", "cusp", "poly:2:2"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_unitary_bases_match_reference(name, seed):
    alg = algebra_from_name(name)
    assert_same_characters(change_basis(alg, unitary(seed, alg.dim)))


class _FlatGenerator:
    """Stands in for the seeded generator that picks the generic element:
    every draw is ones, so the element is (1 + i) times the sum of the
    basis."""

    def standard_normal(self, size):
        return np.ones(size)


class _FlatFirstGenerator:
    """The first generic element is the flat one of _FlatGenerator (its
    real and imaginary parts are the first two draws); later draws are
    random. Counts its draws."""

    def __init__(self):
        self.rng = np.random.Generator(np.random.PCG64(11))
        self.draws = 0

    def standard_normal(self, size):
        self.draws += 1
        return np.ones(size) if self.draws <= 2 else self.rng.standard_normal(size)


@pytest.mark.parametrize("shape", [[4], [2, 3], [2, 2, 2]], ids=lambda s: "x".join(map(str, s)))
def test_repeated_eigenvalues_match_reference(monkeypatch, shape):
    """On a group algebra the sum of the group elements is d times the
    trivial character's idempotent, so every other character takes the
    value 0 there: one cluster of multiplicity d - 1. The reference splits
    it by eigenspace refinement; the extraction discards that element and
    takes the next draw, which gives the same characters."""
    made = []

    def default_rng(seed=None):
        made.append(_FlatFirstGenerator())
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    alg = group_algebra(shape)
    assert_same_characters(alg)
    assert len(characters(alg)) == alg.dim
    # the reference took the flat element alone, the extraction a second one
    assert [g.draws for g in made] == [2, 4, 4]


@pytest.mark.parametrize("name", ["group:4", "group:2x3", "func:3"])
def test_flat_draws_are_refused(monkeypatch, capsys, name):
    """When every generic element repeats an eigenvalue, the extraction
    refuses: NumericError from characters(), exit 4 with a numeric
    violation and nothing on stderr from the CLI."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _FlatGenerator())
    with pytest.raises(NumericError, match="eigen-cluster ambiguity"):
        characters(algebra_from_name(name))
    code = cli.main(["dauns-hofmann", name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (4, "")
    violations = json.loads(captured.out)["violations"]
    assert [v["type"] for v in violations] == ["numeric"]
    assert violations[0]["message"].startswith("eigen-cluster ambiguity")


def test_mask_agrees_with_reference_check():
    """The batched kernel's verdict on perturbed candidates equals the
    one-at-a-time checks on either side of the tolerance."""
    alg = group_algebra([2, 3])
    rng = np.random.default_rng(3)
    for ch in characters(alg):
        for scale in (0.0, 1e-10, 1e-7, 1e-3):
            row = ch.functional + scale * (rng.standard_normal(alg.dim)
                                           + 1j * rng.standard_normal(alg.dim))
            cand = Character(alg, row)
            assert cand.is_character() == reference_is_character(cand)


@pytest.mark.parametrize("seed", range(12))
def test_apart_agrees_with_greedy_clustering(seed):
    """The generic draw is kept when no two eigenvalues lie within the
    cluster tolerance: exactly when the greedy clustering keeps every
    value as its own representative."""
    rng = np.random.default_rng(seed)
    tol = 1e-7
    n = int(rng.integers(1, 12))
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # some values moved next to others, at, inside or outside tol
    for i in rng.choice(n, size=int(rng.integers(0, n)), replace=True):
        j = int(rng.integers(0, n))
        vals[i] = vals[j] + rng.choice([0.0, 0.5 * tol, tol, 1.5 * tol]) * np.exp(2j * rng.random())
    if seed % 3 == 0:
        vals[0] = np.nan
    assert algebra_module._apart(vals, tol) == (len(cluster_values(vals, tol)) == n)


def test_values_exactly_tol_apart_are_a_cluster():
    tol = 2.0 ** -23
    for vals in ([0.5, 0.5 + tol, 3.0], [0.5j, 1.0, 0.5j - tol * 1j]):
        vals = np.array(vals, dtype=complex)
        assert len(cluster_values(vals, tol)) == 2
        assert not algebra_module._apart(vals, tol)
        assert algebra_module._apart(vals, tol / 2)


def reference_dedupe(tuples, cluster_tol=1e-7):
    """The loop that kept the first of each group of repeated candidates
    before one closeness mask decided them: each candidate is compared with
    the kept ones, and a repeat within 10 cluster_tol must lie within
    cluster_tol."""
    known = []
    for tup in tuples:
        delta = [np.abs(k - tup).max() for k in known]
        near = [i for i, x in enumerate(delta) if x <= 10 * cluster_tol]
        if near:
            if delta[near[0]] > cluster_tol:
                raise NumericError("eigen-cluster ambiguity")
            continue
        known.append(tup)
    return known


@pytest.mark.parametrize("seed", range(60))
def test_repeated_candidates_are_dropped_as_the_loop_dropped_them(monkeypatch, seed):
    """Candidates are repeats of earlier ones at 0, 0.3, 0.8, 3 and 30
    cluster tolerances, some of repeats, so a candidate can be near a
    dropped one only; kept characters and ambiguity refusals match the
    loop."""
    rng = np.random.default_rng(seed)
    alg = function_algebra(3)
    rows = [rng.standard_normal(3) + 1j * rng.standard_normal(3)]
    for _ in range(int(rng.integers(0, 9))):
        if rng.random() < 0.3:
            rows.append(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        else:
            step = rng.choice([0.0, 0.3e-7, 0.8e-7, 3e-7, 3e-6], p=[0.3, 0.3, 0.1, 0.1, 0.2])
            step = step * rng.choice([-1, 1], size=3)
            rows.append(rows[int(rng.integers(0, len(rows)))] + step)
    tuples = np.array(rows)
    monkeypatch.setattr(algebra_module, "_rayleigh_tuples", lambda algebra, vecs: tuples)
    monkeypatch.setattr(algebra_module, "_character_mask",
                        lambda algebra, rows, tol: np.ones(len(rows), dtype=bool))
    try:
        want = reference_dedupe(tuples)
    except NumericError:
        with pytest.raises(NumericError, match="eigen-cluster ambiguity"):
            algebra_module._semisimple_characters(alg, 1e-8)
        return
    got = algebra_module._semisimple_characters(alg, 1e-8)
    assert len(got) == len(want)
    for ch, row in zip(got, want):
        np.testing.assert_array_equal(ch.functional, row)


def test_a_candidate_near_a_dropped_one_only_is_kept(monkeypatch):
    """t1 repeats t0 and is dropped; t2 lies within 10 cluster_tol of t1
    but not of t0, and only kept candidates decide, so t2 is kept."""
    t0 = np.array([1.0, 2.0, 3.0j])
    tuples = np.array([t0, t0 + 0.9e-7, t0 + 10.4e-7])
    monkeypatch.setattr(algebra_module, "_rayleigh_tuples", lambda algebra, vecs: tuples)
    monkeypatch.setattr(algebra_module, "_character_mask",
                        lambda algebra, rows, tol: np.ones(len(rows), dtype=bool))
    got = algebra_module._semisimple_characters(function_algebra(3), 1e-8)
    assert len(reference_dedupe(tuples)) == len(got) == 2
    np.testing.assert_array_equal([ch.functional for ch in got], tuples[[0, 2]])


@pytest.mark.parametrize("seed", range(10))
def test_character_order_is_the_tuple_key_sort(monkeypatch, seed):
    """characters() orders by the (re, im) coordinates rounded to 9 digits,
    as the sort with tuple keys did: ties keep their order, -0.0 equals
    0.0, and values equal after rounding tie."""
    rng = np.random.default_rng(seed)
    alg = function_algebra(3)
    parts = [0.0, -0.0, -1e-12, 1e-12, 0.5, 0.5 + 1e-11, 0.5000000004, 0.5000000006, -0.25]
    rows = rng.choice(parts, size=(int(rng.integers(0, 24)), 3, 2))
    found = [Character(alg, r[:, 0] + 1j * r[:, 1]) for r in rows]
    for ch, r in zip(found, rows):  # keep every -0.0 the draw made
        ch.functional.real[:], ch.functional.imag[:] = r[:, 0], r[:, 1]
    monkeypatch.setattr(algebra_module, "_semisimple_characters", lambda algebra, tol: list(found))
    want = sorted(found, key=lambda c: tuple(np.round(c.functional.view(float), 9)))
    assert [id(c) for c in characters(alg)] == [id(c) for c in want]
