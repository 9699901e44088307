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
                      direct_sum, group_algebra, quotient, subalgebra)
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

        The addition table and the outer product are built a block of rows
        g at a time. The sums accumulate in the same order as over the
        whole table, so the result is the same to the last bit.
        """
        alpha = np.asarray(alpha, dtype=complex).ravel()
        beta = np.asarray(beta, dtype=complex).ravel()
        d = self.order
        out = np.zeros(d, dtype=complex)
        step = max(1, _CONVOLVE_BLOCK // d)
        for lo in range(0, d, step):
            rows = self._digits[:, lo:lo + step, None]
            np.add.at(out, self._sum_index(rows, self._digits[:, None, :]).ravel(),
                      np.outer(alpha[lo:lo + step], beta).ravel())
        return out

    def involve(self, alpha) -> np.ndarray:
        """alpha*(g) = conj(alpha(-g))."""
        alpha = np.asarray(alpha, dtype=complex).ravel()
        return np.conj(alpha[self.negation()])

    def __repr__(self):
        return "x".join(f"Z{n}" for n in self.factors)


def parse_group_spec(text: str) -> tuple[int, ...]:
    """\"Z4xZ2\", \"z4xz2\" and \"4x2\" all mean (4, 2)."""
    parts = text.strip().lower().split("x")
    factors = []
    for p in parts:
        p = p.strip()
        if p.startswith("z"):
            p = p[1:]
        if not p.isdigit() or int(p) < 1:
            raise ValueError(f"bad group spec component {p!r}")
        factors.append(int(p))
    if not factors:
        raise ValueError("empty group spec")
    return tuple(factors)


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
        round_trip = 0.0
        for _ in range(8):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = phi.conj().T @ (phi @ x) / d
            round_trip = max(round_trip, float(np.abs(y - x).max() / np.abs(x).max()))

    conv_res = 0.0
    inv_res = 0.0
    for _ in range(pairs):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.abs(a).max()
        b /= np.abs(b).max()
        fa, fb = phi @ a, phi @ b
        scale = 1.0 + float(np.abs(fa).max() * np.abs(fb).max())
        conv_res = max(conv_res, float(np.abs(phi @ group.convolve(a, b) - fa * fb).max()) / scale)
        inv_res = max(inv_res, float(np.abs(phi @ group.involve(a) - np.conj(fa)).max())
                      / (1.0 + float(np.abs(fa).max())))

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


def _greedy_matches(rows, phi, tol=1e-7) -> int:
    """How many rows find a row of phi within tol (max-norm), each taking
    the first one that no earlier row took: one comparison per row against
    all of phi, so no (rows, d, d) array is held."""
    used = np.zeros(len(phi), dtype=bool)
    for row in rows:
        free = np.flatnonzero((np.abs(row - phi).max(axis=1) <= tol) & ~used)
        if len(free):
            used[free[0]] = True
    return int(used.sum())


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


def _as_subspace(algebra: StructureAlgebra, c) -> Subspace:
    if isinstance(c, Subspace):
        if c.algebra is not algebra:
            raise DomainError("subalgebra belongs to a different algebra")
        return c
    return Subspace(algebra, c)


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
    if central is None:
        csp = center
    else:
        csp = _as_subspace(algebra, central)
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
    mult_res = star_res = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        y = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        x /= np.abs(x).max()
        y /= np.abs(y).max()
        lhs = v.matrix @ algebra.mul_coords(x, y)
        rhs = bundle.total.mul_coords(v.matrix @ x, v.matrix @ y)
        mult_res = max(mult_res, float(np.abs(lhs - rhs).max()))
        star_res = max(star_res, float(np.abs(
            v.matrix @ algebra.star_coords(x)
            - bundle.total.star_coords(v.matrix @ x)).max()))

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
