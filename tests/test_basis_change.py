"""Structural answers do not depend on the basis.

`change_basis(alg, U)` rewrites an algebra in the basis whose vectors are
the columns of U (old coordinates = U @ new coordinates). The character
count, the tangent and cotangent dimensions at every character, the
centre dimension, the Dauns-Hofmann verdict, the sorted fiber
dimensions, the centralizer tower dimensions of the identity and the
differential order of fixed operators (carried over as U^-1 P U, with
the new basis as generators) must come out the same for a random complex
unitary U and for 0.1 U and 10 U. Ill-conditioned U are out of scope: the
absolute tolerances of the axiom check reject them.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffalg import (
    LinearOp,
    PolyAlgebra,
    RelativeOp,
    StructureAlgebra,
    Subspace,
    algebra_from_name,
    centralizer,
    characters,
    cotangent_space,
    dauns_hofmann_check,
    diff_order,
    direct_sum,
    tangent_space,
    z_tower,
)
from diffalg.diffcalc import derivative_matrix


def change_basis(alg: StructureAlgebra, u: np.ndarray) -> StructureAlgebra:
    """The same algebra in the basis f_a = sum_i u[i, a] e_i.

    c'[a, b] = u^-1 (f_a f_b), S' = u^-1 S conj(u), unit' = u^-1 unit.
    """
    inv = np.linalg.inv(u)
    c = np.einsum("ia,jb,ijk,lk->abl", u, u, alg.structure, inv)
    return StructureAlgebra(c, inv @ alg.involution @ np.conj(u), inv @ alg.unit)


def unitary(seed: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


MEMBERS = {
    "func:3": lambda: algebra_from_name("func:3"),
    "func:4": lambda: algebra_from_name("func:4"),
    "group:4": lambda: algebra_from_name("group:4"),
    "group:2x3": lambda: algebra_from_name("group:2x3"),
    "group:2x2": lambda: algebra_from_name("group:2x2"),
    "matrix:2": lambda: algebra_from_name("matrix:2"),
    "matrix:3": lambda: algebra_from_name("matrix:3"),
    "cusp": lambda: algebra_from_name("cusp"),
    "poly:1:4": lambda: algebra_from_name("poly:1:4"),
    "poly:2:2": lambda: algebra_from_name("poly:2:2"),
    "matrix:2+func:2": lambda: direct_sum(algebra_from_name("matrix:2"),
                                          algebra_from_name("func:2")),
    "cusp+group:3": lambda: direct_sum(algebra_from_name("cusp"),
                                       algebra_from_name("group:3")),
}


def operators(alg: StructureAlgebra) -> list[np.ndarray]:
    """Matrices in the original basis: a right multiplication (order 0),
    an inner derivation and a product of two (order 1 and at most 2 on a
    commutative algebra, often none on a matrix algebra), and on a
    polynomial algebra x d/dx and x^2 d^2/dx^2 (orders 1 and 2)."""
    rng = np.random.default_rng(alg.dim)
    b, c = rng.standard_normal((2, alg.dim)) + 1j * rng.standard_normal((2, alg.dim))
    ad_b = alg.right_mul_matrix(b) - alg.left_mul_matrix(b)
    ad_c = alg.right_mul_matrix(c) - alg.left_mul_matrix(c)
    mats = [alg.right_mul_matrix(b), ad_b, ad_b @ ad_c]
    if isinstance(alg, PolyAlgebra):
        dx = derivative_matrix(alg, alg, 0)
        x = alg.left_mul_matrix(np.eye(alg.dim)[alg.exp_index[(1,) + (0,) * (alg.mvars - 1)]])
        mats += [x @ dx, x @ x @ dx @ dx]
    return mats


def orders(alg: StructureAlgebra, mats) -> list:
    """diff_order of each matrix against the identity action, with the
    basis of alg as generators."""
    ident = LinearOp.identity(alg)
    return [diff_order(RelativeOp(LinearOp(m, alg, alg), ident, check=False),
                       list(np.eye(alg.dim)), 2) for m in mats]


def invariants(alg: StructureAlgebra) -> dict:
    dh = dauns_hofmann_check(alg)
    out = {"centre_dim": centralizer(alg, Subspace.whole(alg)).dim,
           "dauns_hofmann_ok": dh["ok"],
           "fiber_dims": sorted(dh["fiber_dims"]),
           "tower_dims": z_tower(LinearOp.identity(alg), 3).dims()}
    if alg.is_commutative():
        chars = characters(alg)
        out["characters"] = len(chars)
        out["tangent_cotangent_dims"] = sorted(
            (len(tangent_space(alg, ch)), len(cotangent_space(alg, ch)[0]))
            for ch in chars)
    return out


@functools.lru_cache(maxsize=None)
def original(name: str) -> tuple[StructureAlgebra, dict]:
    alg = MEMBERS[name]()
    return alg, invariants(alg)


@functools.lru_cache(maxsize=None)
def original_orders(name: str) -> list:
    alg = original(name)[0]
    return orders(alg, operators(alg))


@pytest.mark.parametrize("scale", [1.0, 0.1, 10.0])
@given(name=st.sampled_from(sorted(MEMBERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_invariants_survive_unitary_change(scale, name, seed):
    alg, want = original(name)
    u = scale * unitary(seed, alg.dim)
    moved = change_basis(alg, u)
    assert invariants(moved) == want
    if "characters" in want:
        # characters are the old ones read in the new coordinates, s' = s u
        found = np.array([ch.functional for ch in characters(moved)])
        for ch in characters(alg):
            assert np.abs(found - ch.functional @ u).max(axis=1).min() < 1e-7


@pytest.mark.parametrize("scale", [1.0, 0.1, 10.0])
@given(name=st.sampled_from(sorted(MEMBERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_diff_orders_survive_unitary_change(scale, name, seed):
    alg = original(name)[0]
    u = scale * unitary(seed, alg.dim)
    inv = np.linalg.inv(u)
    moved = change_basis(alg, u)
    assert orders(moved, [inv @ m @ u for m in operators(alg)]) == original_orders(name)


# members with a nilpotent radical: the section map is not injective there
RADICAL = {"cusp", "cusp+group:3", "poly:1:4", "poly:2:2"}


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_members_exercise_every_invariant(name):
    """Characters exist wherever the algebra is commutative, and the
    Dauns-Hofmann verdict is PASS exactly on the semisimple members."""
    alg, want = original(name)
    assert want["dauns_hofmann_ok"] == (name not in RADICAL)
    assert want["fiber_dims"]
    assert want.get("characters", 1) >= 1


def test_change_basis_round_trip():
    alg = MEMBERS["matrix:2+func:2"]()
    u = 10.0 * unitary(3, alg.dim)
    back = change_basis(change_basis(alg, u), np.linalg.inv(u))
    assert np.abs(back.structure - alg.structure).max() < 1e-12
    assert np.abs(back.involution - alg.involution).max() < 1e-12
    assert np.abs(back.unit - alg.unit).max() < 1e-12
