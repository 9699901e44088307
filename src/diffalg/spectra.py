"""Fiberwise decomposition over characters of a central subalgebra, the
kernel-ideal identities behind it, and the finite abelian Fourier analogue.

The main statement verified here: a finite-dimensional *-algebra F with a
central commutative unital *-subalgebra C decomposes as the direct sum of
the quotients of F by the ideals generated by the character kernels of C,
and the section map into that sum is a unital *-isomorphism.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import _linalg as la
from .algebra import (Character, LinearOp, StructureAlgebra, Subspace,
                      _character_mask, _CyclicGroup, centralizer, characters,
                      direct_sum, group_algebra, parse_group_spec, quotient, subalgebra)
from .errors import DomainError

__all__ = [
    "FiniteAbelianGroup",
    "parse_group_spec",
    "fourier_matrix",
    "fourier_check",
    "ValueBundle",
    "value_bundle",
    "dauns_hofmann_check",
    "kernel_ideal_check",
]


# Addition-table entries per block of FiniteAbelianGroup.convolve.
_CONVOLVE_BLOCK = 2 ** 16


class FiniteAbelianGroup(_CyclicGroup):
    """Product of cyclic groups; elements are residue tuples in lex order.

    The element order matches the delta basis of group_algebra(factors),
    so coefficient vectors can be moved between the two without halting
    to permute.
    """

    def index(self, g) -> int:
        return int(self._sum_index(np.array(g, dtype=np.int64)))

    def add(self, g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g):
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def convolve(self, alpha, beta) -> np.ndarray:
        """(alpha * beta)[g+h] += alpha[g] beta[h]; no algebra tensor needed.
        Stacks (..., order) of alphas and betas convolve row by row.

        The addition table is built a block of rows g at a time and shared
        by a chunk of the stack's pairs: at most _CONVOLVE_BLOCK entries
        over the chunk, or one row g of one pair where a row is longer.
        Each product accumulates over g and h in the same order as over the
        whole table of one pair, so the result is the same to the last bit.
        """
        alpha = np.asarray(alpha, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        d = self.order
        lead = np.broadcast_shapes(alpha.shape[:-1], beta.shape[:-1])
        alpha = np.broadcast_to(alpha, lead + (d,)).reshape(-1, d)
        beta = np.broadcast_to(beta, lead + (d,)).reshape(-1, d)
        n = len(alpha)
        out = np.zeros(n * d, dtype=complex)  # pair p, coordinate k at p * d + k
        offsets = d * np.arange(n)[:, None, None]
        chunk = max(1, min(n, _CONVOLVE_BLOCK // d))
        step = max(1, _CONVOLVE_BLOCK // (d * chunk))
        for lo in range(0, d, step):
            table = self._sum_index(self._digits[:, lo:lo + step, None], self._digits[:, None, :])
            for p in range(0, n, chunk):
                pairs = slice(p, p + chunk)
                np.add.at(out, (table + offsets[pairs]).ravel(),
                          (alpha[pairs, lo:lo + step, None] * beta[pairs, None, :]).ravel())
        return out.reshape(lead + (d,))

    def involve(self, alpha) -> np.ndarray:
        """alpha*(g) = conj(alpha(-g)), row by row for a stack."""
        alpha = np.asarray(alpha, dtype=complex)
        return np.conj(alpha[..., self.negation()])

    def __repr__(self):
        return "x".join(f"Z{n}" for n in self.factors)


def fourier_matrix(group: FiniteAbelianGroup) -> np.ndarray:
    """Rows = dual-group evaluations, columns = group elements, lex order.

    Kronecker product of the cyclic DFT matrices; the lex element order
    makes this literally the tensor of the factors.
    """
    mats = []
    for n in group.factors:
        idx = np.arange(n)
        mats.append(np.exp(2j * np.pi * np.outer(idx, idx) / n))
    return functools.reduce(np.kron, mats)


def fourier_check(group, seed: int = 0, pairs: int = 10,
                  tol: float = 1e-10) -> dict:
    """Convolution theorem, involution compatibility, and the character
    count for a finite abelian group algebra.

    For orders up to 64 the algebra characters are extracted from the
    group algebra's product table and matched row-by-row against the dual
    evaluations, an independent route. Larger orders keep the direct
    checks only: extraction grows as |G|^3 (one eigendecomposition, the
    trace-form gram and the character checks over all |G|^2 basis pairs),
    the bound fixes the report's shape (above it the extracted fields are
    null), and unitarity of the Fourier matrix already forces the dual
    rows to be all |G| characters.
    """
    if isinstance(group, str):
        group = parse_group_spec(group)
    factors = group.factors if isinstance(group, FiniteAbelianGroup) else tuple(map(int, group))
    # the order is refused before the group's element tables exist
    d = math.prod(factors)
    if min(factors, default=0) >= 1 and d > 4096:
        raise DomainError(f"group order {d} exceeds the supported bound 4096")
    if not isinstance(group, FiniteAbelianGroup):
        group = FiniteAbelianGroup(factors)
    rng = np.random.default_rng(seed)
    phi = fourier_matrix(group)

    if d <= 256:
        gram = phi @ phi.conj().T
        unitary = float(np.abs(gram - d * np.eye(d)).max()) / d
        back = phi.conj().T @ phi / d
        round_trip = float(np.abs(back - np.eye(d)).max())
    else:
        # factorwise unitarity is equivalent (Kronecker of unitaries),
        # plus a sampled Parseval identity on the assembled matrix
        unitary = 0.0
        for n in group.factors:
            idx = np.arange(n)
            f = np.exp(2j * np.pi * np.outer(idx, idx) / n)
            unitary = max(unitary, float(np.abs(f @ f.conj().T - n * np.eye(n)).max()) / n)
        v = rng.standard_normal((8, 2, d))  # x.re, x.im of each draw
        x = v[:, 0] + 1j * v[:, 1]
        y = la.apply_rows(phi.conj().T, la.apply_rows(phi, x)) / d
        round_trip = _worst(np.abs(y - x).max(axis=-1) / np.abs(x).max(axis=-1))

    # the pairs (a, b), drawn in the order a.re, a.im, b.re, b.im of each
    # pair; every transform is one GEMV per vector, as for a single pair
    ab = _sample_pairs(rng, pairs, d)
    fab = la.apply_rows(phi, ab)
    top = np.abs(fab).max(axis=-1)  # (pairs, 2)
    fa, fb = fab[:, 0], fab[:, 1]
    conv = np.abs(la.apply_rows(phi, group.convolve(ab[:, 0], ab[:, 1])) - fa * fb)
    conv_res = _worst(conv.max(axis=-1) / (1.0 + top[:, 0] * top[:, 1]))
    inv = np.abs(la.apply_rows(phi, group.involve(ab[:, 0])) - np.conj(fa))
    inv_res = _worst(inv.max(axis=-1) / (1.0 + top[:, 0]))

    report = {
        "factors": list(group.factors),
        "order": d,
        "unitary_residual": unitary,
        "round_trip_residual": round_trip,
        "convolution_residual": conv_res,
        "involution_residual": inv_res,
        "characters_expected": d,
    }

    if d <= 64:
        alg = group_algebra(group.factors)
        rows_ok = bool(_character_mask(alg, phi, 1e-8).all())
        found = characters(alg)
        matched = _greedy_matches([ch.functional for ch in found], phi)
        report["dual_rows_are_characters"] = rows_ok
        report["extracted_count"] = len(found)
        report["extracted_matched"] = matched == d == len(found)
        chars_ok = rows_ok and report["extracted_matched"]
    else:
        # sampled multiplicativity of the rows; independence comes from
        # unitarity, and d independent characters exhaust the spectrum
        worst = 0.0
        for j in rng.choice(d, size=min(d, 32), replace=False):
            gi = rng.integers(0, d, size=64)
            hi = rng.integers(0, d, size=64)
            si = group._sum_index(group._digits[:, gi], group._digits[:, hi])
            worst = max(worst, float(np.abs(phi[j, gi] * phi[j, hi] - phi[j, si]).max()))
        report["dual_rows_are_characters"] = worst <= 1e-10
        report["extracted_count"] = None
        report["extracted_matched"] = None
        chars_ok = report["dual_rows_are_characters"]

    report["ok"] = bool(chars_ok and unitary <= tol and round_trip <= tol
                        and conv_res <= tol and inv_res <= tol)
    return report


def _sample_pairs(rng, pairs: int, d: int) -> np.ndarray:
    """pairs random pairs (x, y) of coordinate vectors as a (pairs, 2, d)
    stack, each vector scaled to max-norm 1: the stream of drawing x.re,
    x.im, y.re and y.im, pair after pair."""
    v = rng.standard_normal((pairs, 2, 2, d))
    xy = v[:, :, 0] + 1j * v[:, :, 1]
    xy /= np.abs(xy).max(axis=-1, keepdims=True)
    return xy


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none; a NaN is kept, so it fails
    every <= tol."""
    return float(np.max(residuals, initial=0.0))


def _greedy_matches(rows, phi, tol=1e-7) -> int:
    """How many rows find a row of phi within tol (max-norm), each taking
    the first one that no earlier row took; the close pairs come from one
    closeness mask, so no (rows, d, d) array is held."""
    rows = np.asarray(rows, dtype=complex).reshape(-1, phi.shape[1])
    taken, used = set(), set()
    i, j = np.nonzero(la.close_mask(rows, phi, tol))  # row-major
    for i, j in zip(i.tolist(), j.tolist()):
        if i not in taken and j not in used:
            taken.add(i)
            used.add(j)
    return len(used)


class ValueBundle:
    """Fibers of a *-algebra over the characters of a commutative source.

    fiber_t = B / span(phi(Ker t) . B). The section map stacks the fiber
    projections; its target is the direct sum of the fibers.
    """

    def __init__(self, phi: LinearOp, base: list[Character],
                 fibers: list[StructureAlgebra], projections: list[LinearOp]):
        self.phi = phi
        self.base = base
        self.fibers = fibers
        self.projections = projections
        self.total = functools.reduce(direct_sum, fibers)
        self.section = LinearOp(np.vstack([p.matrix for p in projections]),
                                phi.target, self.total)

    @property
    def fiber_dims(self) -> list[int]:
        return [f.dim for f in self.fibers]

    def __repr__(self):
        return f"<ValueBundle fibers={self.fiber_dims}>"


def value_bundle(phi: LinearOp, tol: float = 1e-8) -> ValueBundle:
    """Builds the fiber quotients of the target over each source character.

    The source must be commutative; the generated ideals must be
    two-sided and involution-closed in the target (automatic when the
    image is central), otherwise the quotient construction refuses.
    """
    source, target = phi.source, phi.target
    if not source.is_commutative():
        raise DomainError("bundle base must be a commutative algebra")
    base = characters(source, tol)
    if not base:
        raise DomainError("the bundle base has no *-characters, so there are "
                          "no fibers to decompose over")
    fibers, projections = [], []
    for t in base:
        fiber, proj = quotient(target, _generated_ideal(phi, t))
        fibers.append(fiber)
        projections.append(proj)
    return ValueBundle(phi, base, fibers, projections)


def _generated_ideal(phi: LinearOp, t: Character) -> Subspace:
    """span(phi(Ker t) . B): the columns of L_{phi(v)} over a basis of Ker t."""
    gens = phi.target.left_mul_matrix(t.kernel().basis @ phi.matrix.T).swapaxes(1, 2)
    return Subspace(phi.target, gens.reshape(-1, phi.target.dim))


def dauns_hofmann_check(algebra: StructureAlgebra, central=None,
                        tol: float = 1e-8, seed: int = 0,
                        pairs: int = 20) -> dict:
    """Verifies the finite fiberwise decomposition over a central subalgebra.

    central: None means the full center; otherwise a Subspace or a list of
    spanning vectors. Must lie in the center and be a unital *-subalgebra,
    else DomainError. The report records fiber dimensions, the rank of the
    section map, and unital/multiplicative/involutive residuals on random
    pairs; ok means the section map is a unital *-isomorphism at tol.
    """
    center = centralizer(algebra, Subspace.whole(algebra))
    csp = center
    if central is not None:
        csp = Subspace(algebra, central)
        if not center.contains_subspace(csp, tol):
            raise DomainError("subalgebra is not central")
    csub, incl = subalgebra(algebra, csp.basis)
    bundle = value_bundle(incl, tol)

    v = bundle.section
    rank = la.rank(v.matrix)
    total_dim = bundle.total.dim
    bijective = rank == algebra.dim == total_dim

    rng = np.random.default_rng(seed)
    unit_res = float(np.abs(v.matrix @ algebra.unit - bundle.total.unit).max())
    # the pairs (x, y) as one stack; products, the section map and the
    # involutions run one GEMV per vector, as for a single pair
    xy = _sample_pairs(rng, pairs, algebra.dim)
    vxy = la.apply_rows(v.matrix, xy)
    lhs = la.apply_rows(v.matrix, algebra.mul_coords(xy[:, 0], xy[:, 1]))
    mult_res = _worst(np.abs(lhs - bundle.total.mul_coords(vxy[:, 0], vxy[:, 1])))
    star_res = _worst(np.abs(la.apply_rows(v.matrix, algebra.star_coords(xy[:, 0]))
                             - bundle.total.star_coords(vxy[:, 0])))

    return {
        "dim": algebra.dim,
        "central_dim": csub.dim,
        "characters": len(bundle.base),
        "fiber_dims": bundle.fiber_dims,
        "total_dim": total_dim,
        "section_rank": rank,
        "bijective": bijective,
        "unit_residual": unit_res,
        "mult_residual": mult_res,
        "star_residual": star_res,
        "ok": bool(bijective and unit_res <= tol and mult_res <= tol
                   and star_res <= tol),
    }


def kernel_ideal_check(phi: LinearOp, tol: float = 1e-8) -> dict:
    """Kernel-ideal identities for a unital *-homomorphism out of a
    commutative algebra.

    Part (i): for each character t of the image subalgebra, the image of
    Ker(t o phi) spans exactly Ker t inside the image. Part (ii): each
    source character s that is not a pullback t o phi generates the whole
    target, span(phi(Ker s) . B) = B, and an explicitly constructed
    element of that span is invertible in B.
    """
    source, target = phi.source, phi.target
    if not source.is_commutative():
        raise DomainError("kernel-ideal identities need a commutative source")
    bad = phi.hom_violations(1e-8)
    if bad:
        raise DomainError("map is not a unital *-homomorphism: " + bad[0])

    ssub, incl = subalgebra(target, phi.matrix.T)
    coords, *_ = np.linalg.lstsq(incl.matrix, phi.matrix, rcond=None)
    image_chars = characters(ssub, tol)
    pulled = [Character(source, t.functional @ coords) for t in image_chars]

    part_i = []
    for t, p in zip(image_chars, pulled):
        lhs = Subspace(target, (phi.matrix @ p.kernel().basis.T).T)
        rhs = Subspace(target, (incl.matrix @ t.kernel().basis.T).T)
        part_i.append({
            "pullback_is_character": p.is_character(tol),
            "spans_equal": lhs.equals(rhs, tol),
            "dim": lhs.dim,
        })

    part_ii = []
    for s in characters(source, tol):
        dists = [float(np.abs(s.functional - p.functional).max()) for p in pulled]
        matched = bool(dists and min(dists) <= tol)
        entry = {"matched": matched}
        if not matched:
            ideal = _generated_ideal(phi, s)
            entry["ideal_dim"] = ideal.dim
            entry["full"] = ideal.dim == target.dim
            # the invertible element from the classical argument: for each
            # image character pick a in Ker s with (t o phi)(a) != 0, then
            # sum phi(a) phi(a)*; every image character is positive on it
            witness = np.zeros(target.dim, dtype=complex)
            for p in pulled:
                j = int(np.abs(p.functional - s.functional).argmax())
                a = np.eye(source.dim, dtype=complex)[j] - s.functional[j] * source.unit
                fa = phi.matrix @ a
                witness += target.mul_coords(fa, target.star_coords(fa))
            entry["witness_in_ideal"] = bool(ideal.contains(witness, tol))
            entry["witness_invertible"] = bool(
                la.rank(target.left_mul_matrix(witness)) == target.dim)
        part_ii.append(entry)

    ok = (all(e["pullback_is_character"] and e["spans_equal"] for e in part_i)
          and all(e["matched"] or (e["full"] and e["witness_in_ideal"]
                                   and e["witness_invertible"])
                  for e in part_ii))
    return {
        "image_dim": ssub.dim,
        "image_characters": len(image_chars),
        "matched_count": sum(1 for e in part_ii if e["matched"]),
        "part_i": part_i,
        "part_ii": part_ii,
        "ok": bool(ok),
    }
