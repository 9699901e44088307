"""Tangent and cotangent data from the splitting A = C 1 + I_s.

On that splitting the Leibniz rule at a character s says exactly that a
functional kills the unit and span(I_s^2). `tangent_space` is therefore
the null space of those rows, and the cotangent representatives are the
kernel basis projected off span(I_s^2). The earlier `tangent_space` (one
(d^2, d) Leibniz system) and `cotangent_space` (greedy kernel rows, one
rank decision per row, then a least-squares frame) are kept below,
verbatim, as the references. On every member of
`tests/test_basis_change.py`, in its own basis, a unitary one and a
skewed one, at every character, both forms must give the same dimensions
and span the same spaces. A `tangent` request checks its character once
and the realities of all its tangent vectors in one law-kernel call.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from diffalg import (Character, CotangentClass, NumericError, TangentVector, characters,
                     cli, cotangent_space, pairing_matrix, subspace_product, tangent_space)
from diffalg import _linalg as la
from diffalg import algebra as algebra_module
from diffalg import geometry
from diffalg.geometry import _require_character

from test_basis_change import MEMBERS, change_basis, unitary


# --- the replaced constructions, verbatim ----------------------------------

def reference_tangent_space(algebra, s, real=False):
    _require_character(algebra, s)
    d = algebra.dim
    c = algebra.structure
    sv = s.functional
    # rows indexed by basis pairs (i, j), unknowns tau_k
    rows = c.reshape(d * d, d).copy()
    eye = np.eye(d)
    rows -= np.einsum("i,jk->ijk", sv, eye).reshape(d * d, d)
    rows -= np.einsum("ik,j->ijk", eye, sv).reshape(d * d, d)
    if not real:
        basis = la.null_space(rows)
        return [TangentVector(algebra, v, s) for v in basis]
    # split tau = rho + i sigma; complex rows M tau = 0 become
    # [Re M, -Im M; Im M, Re M] [rho; sigma] = 0
    top = np.hstack([rows.real, -rows.imag])
    bot = np.hstack([rows.imag, rows.real])
    sr, si = algebra.involution.real, algebra.involution.imag
    # tau S = conj(tau): real part rho(S_r - I) - sigma S_i = 0,
    # imaginary part rho S_i + sigma(S_r + I) = 0; rows act from the right,
    # so transpose into column form
    real_rows = np.hstack([(sr - np.eye(d)).T, -si.T])
    imag_rows = np.hstack([si.T, (sr + np.eye(d)).T])
    stacked = np.vstack([top, bot, real_rows, imag_rows])
    basis = la.null_space(stacked)
    out = []
    for v in basis:
        tau = v[:d] + 1j * v[d:]
        out.append(TangentVector(algebra, tau, s, real=True))
    return out


def reference_cotangent_space(algebra, s):
    _require_character(algebra, s)
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
    classes = [CotangentClass(algebra, s, reps[i], np.eye(q)[i]) for i in range(q)]
    # class coordinates of any kernel element by solving against [reps; square]
    if q:
        frame = np.vstack([np.array(reps), square.basis]).T
    else:
        frame = square.basis.T
    # column j is e_j - s(e_j) 1
    shifted = np.eye(d) - np.outer(algebra.unit, s.functional)
    sol, *_ = np.linalg.lstsq(frame, shifted, rcond=None)
    resid = np.abs(frame @ sol - shifted).max(axis=0)
    if (resid > 1e-7 * (1.0 + np.abs(shifted).max(axis=0))).any():
        raise NumericError("kernel frame failed to express a shifted basis vector")
    return classes, sol[:q]


# --- the cases ---------------------------------------------------------------

def _characters(alg):
    """Every character: extracted on a commutative algebra, else the
    coordinate functionals that are characters (the commutative summand
    of a direct sum)."""
    if alg.is_commutative():
        return characters(alg)
    found = [Character(alg, e) for e in np.eye(alg.dim)]
    return [s for s in found if s.is_character()]


def _cases():
    """(id, algebra, character) for every member of the basis-change
    suite, in its own basis, in a seeded unitary one and in a skewed one
    (the unitary times a diagonal from 1 to 3). In the skewed basis the
    unit is not orthogonal to the kernel ideal, so the shift a - s(a) 1
    of the projection shows."""
    out = []
    for seed, name in enumerate(sorted(MEMBERS)):
        alg = MEMBERS[name]()
        u = unitary(seed, alg.dim)
        skew = u @ np.diag(np.linspace(1.0, 3.0, alg.dim))
        variants = [(name, alg, np.eye(alg.dim)), (f"{name}/u{seed}", change_basis(alg, u), u),
                    (f"{name}/k{seed}", change_basis(alg, skew), skew)]
        for i, s in enumerate(_characters(alg)):
            out += [(f"{label}@{i}", moved, Character(moved, s.functional @ m))
                    for label, moved, m in variants]
    return out


CASES = _cases()
IDS = [c[0] for c in CASES]


def _rows(vectors, d: int) -> np.ndarray:
    return np.array(vectors, dtype=complex).reshape(-1, d)


def _same_span(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Do the rows of a and b span the same space? Each basis is measured
    against an orthonormal basis of the other's span."""
    if a.shape != b.shape:
        return False
    if not len(a):
        return True
    return bool((la.span_residuals(a, la.span_basis(b)) <= tol).all()
                and (la.span_residuals(b, la.span_basis(a)) <= tol).all())


def _real_form(taus, d: int) -> np.ndarray:
    """Real tangent vectors as rows [Re tau, Im tau] of R^2d, whose real
    span is the real form."""
    f = _rows([t.functional for t in taus], d)
    return np.hstack([f.real, f.imag]).astype(complex)


def _square(s) -> np.ndarray:
    kernel = s.kernel()
    return subspace_product(kernel, kernel).basis


def test_cases_cover_tangent_directions_and_reduced_points():
    dims = {len(reference_tangent_space(alg, s)) for _, alg, s in CASES}
    assert 0 in dims and max(dims) >= 2
    assert any(name.startswith("matrix:2+func:2") for name in IDS)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_tangent_space_matches_reference(index):
    _, alg, s = CASES[index]
    got, want = tangent_space(alg, s), reference_tangent_space(alg, s)
    assert len(got) == len(want)
    assert _same_span(_rows([t.functional for t in got], alg.dim),
                      _rows([t.functional for t in want], alg.dim))
    # the batched reality flags follow the one-vector rule
    assert [t.real for t in got] == [
        t.reality_residual() <= la.ZERO_TOL * (1.0 + np.abs(t.functional).max()) for t in got]


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_real_tangent_space_matches_reference(index):
    _, alg, s = CASES[index]
    got, want = tangent_space(alg, s, real=True), reference_tangent_space(alg, s, real=True)
    assert len(got) == len(want) == len(tangent_space(alg, s))
    assert _same_span(_real_form(got, alg.dim), _real_form(want, alg.dim))
    for t in got:
        assert t.real and t.reality_residual() <= 1e-9 and t.leibniz_residual() <= 1e-9


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_cotangent_space_matches_reference(index):
    """Both sets of representatives, taken modulo span(I_s^2), span the
    same complement: the new ones are that complement's orthonormal basis,
    the reference's greedy kernel rows project onto it."""
    _, alg, s = CASES[index]
    (got, pi), (want, _) = cotangent_space(alg, s), reference_cotangent_space(alg, s)
    assert len(got) == len(want)
    assert pi.shape == (len(got), alg.dim)
    square = _square(s)
    reps = _rows([x.representative for x in got], alg.dim)
    greedy = _rows([x.representative for x in want], alg.dim)
    off = greedy - (greedy @ square.conj().T) @ square if len(square) else greedy
    assert _same_span(reps, off)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_representatives_are_orthonormal_and_orthogonal_to_the_square(index):
    _, alg, s = CASES[index]
    classes, _ = cotangent_space(alg, s)
    reps = _rows([x.representative for x in classes], alg.dim)
    if not len(reps):
        return
    assert np.abs(reps @ reps.conj().T - np.eye(len(reps))).max() <= 1e-12
    assert np.abs(reps @ s.functional).max() <= 1e-12
    square = _square(s)
    if len(square):
        assert np.abs(reps @ square.conj().T).max() <= 1e-12


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_projection_gives_class_coordinates(index):
    """pi reads the class coordinates of a - s(a) 1: the unit class of
    each representative, zero on the unit and on span(I_s^2), and on a
    random kernel element the coefficients it was built with."""
    _, alg, s = CASES[index]
    classes, pi = cotangent_space(alg, s)
    reps = _rows([x.representative for x in classes], alg.dim)
    if not len(reps):
        return
    assert np.abs(pi @ reps.T - np.eye(len(reps))).max() <= 1e-10
    assert np.abs(pi @ alg.unit).max() <= 1e-10
    square = _square(s)
    if len(square):
        assert np.abs(pi @ square.T).max() <= 1e-10
    rng = np.random.default_rng(index)
    coeffs = rng.standard_normal(len(reps)) + 1j * rng.standard_normal(len(reps))
    mixed = rng.standard_normal(len(square)) @ square if len(square) else 0.0
    a = coeffs @ reps + mixed + 2.5 * alg.unit
    assert np.abs(pi @ a - coeffs).max() <= 1e-9 * (1.0 + np.abs(a).max())


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_pairing_is_invertible(index):
    _, alg, s = CASES[index]
    taus = tangent_space(alg, s)
    classes, _ = cotangent_space(alg, s)
    gram = pairing_matrix(taus, classes)
    assert gram.shape == (len(taus), len(classes))
    if gram.size:
        assert la.rank(gram) == len(taus)


def test_pairing_matrix_refuses_a_functional_that_does_not_kill_the_square():
    for _, alg, s in CASES:
        classes, _ = cotangent_space(alg, s)
        square = _square(s)
        if not (classes and len(square)):
            continue
        # a functional that is 1 on the first square direction
        fake = TangentVector(alg, square[0].conj(), s, real=False)
        with pytest.raises(NumericError, match="does not vanish on kernel-squared"):
            pairing_matrix([fake], classes)
        break
    else:
        pytest.fail("no case has both cotangent classes and a kernel square")


@pytest.mark.parametrize("real,calls", [(False, 2), (True, 1)])
def test_tangent_request_checks_the_character_once(tmp_path, monkeypatch, capsys, real, calls):
    """The character check and, for the complex form, one batched reality
    check: no other law-kernel call."""
    seen = []
    kernel = algebra_module._law_residuals

    def counting(*args, **kwargs):
        seen.append(args[2].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "_law_residuals", counting)
    monkeypatch.setattr(geometry, "_law_residuals", counting)
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps({"algebra": "poly:3:3", "character": [1.0] + [0.0] * 19,
                                "real": real}))
    assert cli.main(["tangent", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["tangent_dim"] == report["results"]["cotangent_dim"] == 3
    assert len(seen) == calls
    if not real:
        assert seen[1] == (3, 1, 20)
