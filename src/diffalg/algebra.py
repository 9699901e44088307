"""Finite-dimensional involutive algebras given by structure constants.

An algebra of dimension d is stored as a d x d x d complex tensor c with
c[i, j] = coordinates of e_i * e_j, an involution matrix S acting
antilinearly (star(x) = S conj(x)), and the coordinate vector of the unit.
On top of that sit subspaces (orthonormal SVD bases), characters
(unital involutive multiplicative functionals), quotients by two-sided
ideals, centralizers, and a family of ready-made constructors.
"""
from __future__ import annotations

import math

import numpy as np

from . import _linalg as la
from .errors import DomainError, NumericError
from .multiindex import MonomialTable, MultiIndex, mi_count

__all__ = [
    "StructureAlgebra",
    "PolyAlgebra",
    "Element",
    "Subspace",
    "Character",
    "LinearOp",
    "mul",
    "re_im",
    "subspace_product",
    "characters",
    "quotient",
    "centralizer",
    "subalgebra",
    "matrix_algebra",
    "function_algebra",
    "truncated_poly",
    "direct_sum",
    "group_algebra",
    "cusp_algebra",
    "algebra_from_name",
]


class StructureAlgebra:
    """Involutive algebra described by structure constants.

    Immutable after construction. Axioms (associativity on basis triples,
    unit law, involution laws) are validated on construction unless
    check=False is passed; violations raise DomainError.
    """

    def __init__(self, structure, involution, unit, labels=None, check=True,
                 tol=la.ZERO_TOL):
        self.structure = np.asarray(structure, dtype=complex)
        if self.structure.ndim != 3 or len(set(self.structure.shape)) != 1:
            raise ValueError("structure tensor must have shape (d, d, d)")
        d = self.structure.shape[0]
        self.involution = np.asarray(involution, dtype=complex)
        if self.involution.shape != (d, d):
            raise ValueError("involution matrix shape mismatch")
        self.unit = np.asarray(unit, dtype=complex).ravel()
        if self.unit.shape != (d,):
            raise ValueError("unit vector shape mismatch")
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != d:
            raise ValueError("label count mismatch")
        if check:
            bad = self.axiom_violations(tol)
            if bad:
                raise DomainError(f"algebra axioms fail: {bad[0]}"
                                  + (f" (+{len(bad) - 1} more)" if len(bad) > 1 else ""))

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    # --- raw coordinate operations -------------------------------------

    def mul_coords(self, x, y) -> np.ndarray:
        d = self.dim
        x = np.asarray(x, dtype=complex).ravel()
        y = np.asarray(y, dtype=complex).ravel()
        return y @ (x @ self.structure.reshape(d, d * d)).reshape(d, d)

    def mul_pairs(self, xs, ys) -> np.ndarray:
        """Products xs[p] * ys[q] of every pair of rows, as an (m, n, d) array.

        Two matrix products: the first contracts xs into the left index of
        the structure tensor, the second (batched over p) contracts ys
        into the middle one.
        """
        d = self.dim
        xs = np.asarray(xs, dtype=complex).reshape(-1, d)
        ys = np.asarray(ys, dtype=complex).reshape(-1, d)
        return ys @ (xs @ self.structure.reshape(d, d * d)).reshape(-1, d, d)

    def star_coords(self, x) -> np.ndarray:
        return self.involution @ np.conj(np.asarray(x, dtype=complex).ravel())

    def left_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> a*x."""
        d = self.dim
        a = np.asarray(a, dtype=complex).ravel()
        # entry [k, j] = sum_i a_i c[i, j, k]
        return (a @ self.structure.reshape(d, d * d)).reshape(d, d).T

    def right_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> x*a."""
        a = np.asarray(a, dtype=complex).ravel()
        # entry [k, i] = sum_j c[i, j, k] a_j
        return (a @ self.structure).T

    # --- elements ------------------------------------------------------

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dim, dtype=complex))

    def one(self) -> "Element":
        return Element(self, self.unit.copy())

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    # --- validation ----------------------------------------------------

    def axiom_violations(self, tol=la.ZERO_TOL) -> list[str]:
        """All failed algebra axioms, as human-readable strings."""
        out = []
        d = self.dim
        c = self.structure
        rows, cols = c.reshape(d * d, d), c.reshape(d, d * d)
        # associativity (e_i e_j) e_k = e_i (e_j e_k), one i at a time so
        # the peak is d^3; the witness is the first triple (row-major)
        # with the largest residual. Real tensors (every named family)
        # take the real products, a quarter of the complex work.
        r = c.real if not c.imag.any() else c
        r_rows, r_cols = r.reshape(d * d, d), r.reshape(d, d * d)
        worst, where = -np.inf, None
        for i in range(d):
            left = (r[i] @ r_cols).reshape(d * d, d)
            bad = np.abs(left - r_rows @ r[i]).max(axis=1)
            top = int(np.argmax(bad))
            if bad[top] > worst:
                worst, where = bad[top], (i, *divmod(top, d))
        if worst > tol:
            i, j, k = where
            out.append(f"associativity fails at basis triple ({i},{j},{k}), "
                       f"residual {worst:.2e}")
        # unit law: row i of u @ cols is u * e_i, row i of u @ c is e_i * u
        eye = np.eye(d)
        left_bad = np.abs((self.unit @ cols).reshape(d, d) - eye).max(axis=1) > tol
        right_bad = np.abs(self.unit @ c - eye).max(axis=1) > tol
        for i in range(d):
            if left_bad[i]:
                out.append(f"left unit law fails at basis {i}")
            if right_bad[i]:
                out.append(f"right unit law fails at basis {i}")
        # involution laws
        s = self.involution
        # (x*)* = x  <=>  S conj(S) = I
        if np.abs(s @ np.conj(s) - eye).max() > tol:
            out.append("involution is not an involution: S conj(S) != I")
        if np.abs(self.star_coords(self.unit) - self.unit).max() > tol:
            out.append("unit is not involution-fixed")
        # (e_i e_j)* = e_j* e_i*, rows in row-major pair order
        lhs = np.conj(rows) @ s.T
        rhs = self.mul_pairs(s.T, s.T).transpose(1, 0, 2).reshape(d * d, d)
        for p in np.flatnonzero(np.abs(lhs - rhs).max(axis=1) > tol):
            i, j = divmod(int(p), d)
            out.append(f"(xy)* = y*x* fails at basis pair ({i},{j})")
        return out

    def is_commutative(self, tol=la.ZERO_TOL) -> bool:
        """Whether c[i, j] = c[j, i] to tol; c[i-block] is compared with
        c[:, i-block] in blocks of slices (see _slice_blocks), so no
        transposed copy of the whole tensor is made."""
        c = self.structure
        return all(np.abs(c[blk] - c[:, blk].transpose(1, 0, 2)).max() <= tol
                   for blk in _slice_blocks(self.dim, self.dim))

    # --- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        return {
            "dim": self.dim,
            "structure": [[[cplx(z) for z in row] for row in plane]
                          for plane in self.structure],
            "involution": [[cplx(z) for z in row] for row in self.involution],
            "unit": [cplx(z) for z in self.unit],
            "labels": self.labels,
        }

    @classmethod
    def from_dict(cls, data: dict, check: bool = True) -> "StructureAlgebra":
        def un(z):
            return complex(z[0], z[1])

        d = int(data["dim"])
        require_dim(d)
        require_dim(len(data["structure"]))
        structure = np.array([[[un(z) for z in row] for row in plane]
                              for plane in data["structure"]], dtype=complex)
        involution = np.array([[un(z) for z in row] for row in data["involution"]],
                              dtype=complex)
        unit = np.array([un(z) for z in data["unit"]], dtype=complex)
        if structure.shape != (d, d, d):
            raise ValueError("structure tensor shape disagrees with dim")
        return cls(structure, involution, unit, labels=data.get("labels"),
                   check=check)

    def __repr__(self):
        return f"<StructureAlgebra dim={self.dim}>"


class PolyAlgebra(StructureAlgebra):
    """Degree-truncated polynomial algebra in m commuting variables.

    Basis = monomials x^k with |k| <= degree in graded lexicographic order;
    products above the degree bound are dropped. Keeps its monomial table
    (`table`, with the exponent list and index) so jets and evaluation can
    recover the polynomial structure, and caches the jet spaces built on it
    in `jet_cache`, which lives and dies with the algebra.
    """

    def __init__(self, mvars: int, degree: int, **kw):
        table = MonomialTable(mvars, degree)
        labels = [monomial_label(k) for k in table.exponents]
        super().__init__(*_semigroup(table.add, np.arange(table.dim), 0),
                         labels=labels, **kw)
        self.mvars = mvars
        self.degree = degree
        self.table = table
        self.exponents: list[MultiIndex] = table.exponents
        self.exp_index = table.exp_index
        self.jet_cache: dict = {}

    def evaluate(self, coords, point) -> complex:
        """Value of the polynomial with the given coefficients at a point."""
        point = np.asarray(point, dtype=float).ravel()
        if point.shape != (self.mvars,):
            raise ValueError("point dimension mismatch")
        coords = np.asarray(coords, dtype=complex).ravel()
        return complex(coords @ self.table.monomials(point))

    def __repr__(self):
        return f"<PolyAlgebra m={self.mvars} degree={self.degree}>"


def monomial_label(k: MultiIndex) -> str:
    if sum(k) == 0:
        return "1"
    parts = []
    for i, p in enumerate(k):
        if p == 0:
            continue
        name = "x" if len(k) == 1 else f"x{i + 1}"
        parts.append(name if p == 1 else f"{name}^{p}")
    return "*".join(parts)


class Element:
    """Coordinate vector bound to its parent algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords):
        self.algebra = algebra
        self.coords = np.asarray(coords, dtype=complex).ravel()
        if self.coords.shape != (algebra.dim,):
            raise ValueError("coordinate length does not match algebra dimension")

    def _same_parent(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise DomainError("elements belong to different algebras")

    def __add__(self, other):
        self._same_parent(other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        self._same_parent(other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self):
        return Element(self.algebra, -self.coords)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_parent(other)
            return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        return Element(self.algebra, self.coords * complex(other))

    def __rmul__(self, scalar):
        return Element(self.algebra, complex(scalar) * self.coords)

    def star(self) -> "Element":
        return Element(self.algebra, self.algebra.star_coords(self.coords))

    def re_im(self) -> tuple["Element", "Element"]:
        """Real and imaginary parts with respect to the involution.

        Re x = (x + x*)/2 and Im x = (x - x*)/(2i); both are fixed by the
        involution and x = Re x + i Im x, x* = Re x - i Im x.
        """
        s = self.star()
        re = Element(self.algebra, (self.coords + s.coords) / 2.0)
        im = Element(self.algebra, (self.coords - s.coords) / 2.0j)
        return re, im

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def isclose(self, other: "Element", tol=la.ZERO_TOL) -> bool:
        self._same_parent(other)
        return bool(np.abs(self.coords - other.coords).max() <= tol)

    def __repr__(self):
        return f"Element({np.array_str(self.coords, precision=4)})"


def mul(x: Element, y: Element) -> Element:
    """Product in the parent algebra (structure-constant contraction)."""
    return x * y


def re_im(x: Element) -> tuple[Element, Element]:
    """See Element.re_im."""
    return x.re_im()


class Subspace:
    """Linear subspace with an orthonormal SVD basis (rows)."""

    def __init__(self, algebra: StructureAlgebra, vectors, tol=la.RANK_TOL):
        self.algebra = algebra
        rows = [v.coords if isinstance(v, Element) else v for v in vectors]
        self.basis = la.span_basis(rows, width=algebra.dim, tol=tol)

    @classmethod
    def _from_orthonormal(cls, algebra: StructureAlgebra, rows: np.ndarray) -> "Subspace":
        """The span of rows that are already orthonormal, kept as the basis
        without another SVD."""
        space = cls.__new__(cls)
        space.algebra = algebra
        space.basis = rows
        return space

    @classmethod
    def zero(cls, algebra: StructureAlgebra) -> "Subspace":
        return cls(algebra, [])

    @classmethod
    def whole(cls, algebra: StructureAlgebra) -> "Subspace":
        return cls(algebra, np.eye(algebra.dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, x, tol=la.ZERO_TOL) -> bool:
        v = x.coords if isinstance(x, Element) else np.asarray(x, dtype=complex)
        return bool(la.in_span(v.ravel(), self.basis, tol).all())

    def contains_subspace(self, other: "Subspace", tol=la.ZERO_TOL) -> bool:
        return bool(la.in_span(other.basis, self.basis, tol).all())

    def equals(self, other: "Subspace", tol=la.ZERO_TOL) -> bool:
        return self.contains_subspace(other, tol) and other.contains_subspace(self, tol)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, np.vstack([self.basis, other.basis]))

    def star_closed(self, tol=la.ZERO_TOL) -> bool:
        stars = np.conj(self.basis) @ self.algebra.involution.T
        return bool(la.in_span(stars, self.basis, tol).all())

    def __repr__(self):
        return f"<Subspace dim={self.dim} of {self.algebra!r}>"


def subspace_product(m: Subspace, n: Subspace) -> Subspace:
    """Linear span of all pairwise products of basis vectors.

    The span plays the role of the closed product of subspaces; in finite
    dimension closure is linear span.
    """
    if m.algebra is not n.algebra:
        raise DomainError("subspaces belong to different algebras")
    alg = m.algebra
    return Subspace(alg, alg.mul_pairs(m.basis, n.basis).reshape(-1, alg.dim))


class Character:
    """Unital involutive multiplicative functional, as a row vector."""

    __slots__ = ("algebra", "functional")

    def __init__(self, algebra: StructureAlgebra, functional):
        self.algebra = algebra
        self.functional = np.asarray(functional, dtype=complex).ravel()
        if self.functional.shape != (algebra.dim,):
            raise ValueError("functional length mismatch")

    def __call__(self, x) -> complex:
        v = x.coords if isinstance(x, Element) else np.asarray(x, dtype=complex).ravel()
        return complex(self.functional @ v)

    def kernel(self) -> Subspace:
        return Subspace(self.algebra, la.null_space(self.functional.reshape(1, -1)))

    def multiplicativity_residual(self) -> float:
        return float(_character_residuals(self.algebra, self.functional)[1][0])

    def is_character(self, tol=1e-8) -> bool:
        return bool(_character_mask(self.algebra, self.functional, tol)[0])

    def __repr__(self):
        return f"Character({np.array_str(self.functional, precision=4)})"


# Complex entries of one block of the batched character contractions: a
# block takes as many structure slices c[i] as keep its (slices, d, rows)
# product within this bound, so the peak does not grow with the number
# of candidates.
_BLOCK_ENTRIES = 2 ** 16


def _slice_blocks(d: int, width: int):
    """Slices of one tensor index, each block within _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // (d * max(width, 1)))
    return (slice(lo, lo + step) for lo in range(0, d, step))


def _character_residuals(algebra: StructureAlgebra, rows):
    """Unit, multiplicativity and involution residuals of each row of rows.

    A row s is a character at tol when |s(1) - 1|, max |s(e_i e_j) -
    s(e_i) s(e_j)| and max |s(e_j*) - conj(s(e_j))| are all <= tol (the
    antilinear identities can be checked on a basis). Returns three (n,)
    arrays; the multiplicativity products run over blocks of slices.
    """
    d = algebra.dim
    s = np.asarray(rows, dtype=complex).reshape(-1, d)
    unit = np.abs(s @ algebra.unit - 1.0)
    star = np.abs(s @ algebra.involution - np.conj(s)).max(axis=1)
    st = s.T
    mult = np.zeros(len(s))
    for blk in _slice_blocks(d, len(s)):
        slices = algebra.structure[blk]
        prods = (slices.reshape(-1, d) @ st).reshape(len(slices), d, len(s))
        prods -= st[blk, None, :] * st[None, :, :]
        mult = np.maximum(mult, np.abs(prods).max(axis=(0, 1)))
    return unit, mult, star


def _character_mask(algebra: StructureAlgebra, rows, tol: float) -> np.ndarray:
    """Which rows are characters at tol (see _character_residuals)."""
    unit, mult, star = _character_residuals(algebra, rows)
    return (unit <= tol) & (mult <= tol) & (star <= tol)


def _rayleigh_tuples(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row n holds v^H ops[i] v / v^H v for v = vecs[:, n], over all i.

    On a common eigenvector of the slices ops[i] that is the tuple of
    their eigenvalues; one product with the stacked slices per block.
    """
    d, n = vecs.shape
    conj = vecs.conj()
    out = np.empty((n, d), dtype=complex)
    for blk in _slice_blocks(d, n):
        slices = ops[blk]
        prods = (slices.reshape(-1, d) @ vecs).reshape(len(slices), d, n)
        out[:, blk] = np.einsum("ijn,jn->ni", prods, conj)
    return out / np.einsum("jn,jn->n", conj, vecs)[:, None]


# Generic elements tried before repeated eigenvalues are refused.
_GENERIC_DRAWS = 4


def _semisimple_characters(algebra: StructureAlgebra, tol: float) -> list[Character]:
    """Character extraction for a radical-free commutative algebra.

    Here every multiplication operator is diagonalizable and the
    transposed basis multiplications commute, so when the transposed
    multiplication by a generic element has only simple eigenvalues, its
    eigenvectors are common eigenvectors of all of them, and their
    eigenvalue tuples are the candidate functionals (a character takes on
    a common eigenvector of the left regular representation exactly its
    own values). One eigendecomposition gives those. A generic element of
    such an algebra (isomorphic to C^n) separates the characters, so a
    repeated eigenvalue only means an unlucky draw: the next element comes
    from the same seeded generator, and after _GENERIC_DRAWS draws the
    extraction is refused.
    """
    d = algebra.dim
    cluster_tol = 1e-7
    rng = np.random.default_rng(7)
    # transposed left multiplication by e_i is the slice c[i]
    ops = algebra.structure
    for _ in range(_GENERIC_DRAWS):
        generic = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vals, vecs = np.linalg.eig(algebra.left_mul_matrix(generic).T)
        if len(la.cluster_values(vals, cluster_tol)) == d:
            break
    else:
        raise NumericError(f"eigen-cluster ambiguity: repeated eigenvalues in "
                           f"{_GENERIC_DRAWS} generic draws")

    tuples = _rayleigh_tuples(ops, vecs)
    tuples = tuples[_character_mask(algebra, tuples, tol)]
    known = np.empty_like(tuples)
    count = 0
    for tup in tuples:
        delta = np.abs(known[:count] - tup).max(axis=1)
        near = np.flatnonzero(delta <= 10 * cluster_tol)
        if near.size:
            if delta[near[0]] > cluster_tol:
                raise NumericError("eigen-cluster ambiguity: two candidate "
                                   "characters closer than the resolution limit")
            continue
        known[count] = tup
        count += 1
    return [Character(algebra, f) for f in known[:count]]


def characters(algebra: StructureAlgebra, tol: float = 1e-8) -> list[Character]:
    """All unital involutive multiplicative functionals of a commutative algebra.

    Characters kill every nilpotent, so the radical is split off first: it
    is the null space of the trace form tr(L_{e_i} L_{e_j}) (finite
    dimension, characteristic zero), and characters of the radical-free
    quotient pull back along the projection. This keeps the eigenvalue
    extraction away from defective operators. Algebras with nilpotent parts
    therefore have fewer characters than dim; that is expected, not an
    error. Non-commutative input raises DomainError.
    """
    if not algebra.is_commutative():
        raise DomainError("character extraction requires a commutative algebra")
    d = algebra.dim
    c = algebra.structure
    # tr(L_i L_j) = sum_ab c[i, b, a] c[j, a, b], over blocks of b (no full copy)
    gram = sum(c[:, blk].reshape(d, -1) @ c[:, :, blk].transpose(2, 1, 0).reshape(-1, d)
               for blk in _slice_blocks(d, d))
    rad = la.null_space(gram)
    if rad.shape[0]:
        qalg, proj = quotient(algebra, Subspace(algebra, rad))
        rows = np.array([c.functional for c in _semisimple_characters(qalg, tol)])
        rows = rows.reshape(-1, qalg.dim) @ proj.matrix
        chars = [Character(algebra, r) for r in rows[_character_mask(algebra, rows, tol)]]
    else:
        chars = _semisimple_characters(algebra, tol)
    chars.sort(key=lambda c: tuple(np.round(c.functional.view(float), 9)))
    return chars


def quotient(algebra: StructureAlgebra, ideal: Subspace,
             tol: float = la.ZERO_TOL) -> tuple[StructureAlgebra, "LinearOp"]:
    """Quotient by a two-sided involution-closed ideal, plus the projection.

    The quotient basis consists of the classes of the standard basis vectors
    at the non-pivot columns of the ideal's row-reduced basis, so bases are
    deterministic. The projection is a unital homomorphism.
    """
    if ideal.algebra is not algebra:
        raise DomainError("subspace belongs to a different algebra")
    d = algebra.dim
    c = algebra.structure
    v = ideal.basis
    left = v @ c  # [i, j] = e_i * v_j
    right = (v @ c.reshape(d, d * d)).reshape(-1, d, d).transpose(1, 0, 2)  # v_j * e_i
    prods = np.stack([left, right], axis=2)  # tested in this order
    inside = la.in_span(prods.reshape(-1, d), v, tol).reshape(prods.shape[:3])
    if not inside.all():
        i, j, side = np.unravel_index(np.argmin(inside), inside.shape)
        if side == 0:
            raise DomainError(f"not an ideal: basis {i} * (ideal basis {j}) "
                              "leaves the subspace")
        raise DomainError(f"not an ideal: (ideal basis {j}) * basis {i} "
                          "leaves the subspace")
    if not ideal.star_closed(tol):
        raise DomainError("ideal is not involution-closed; quotient involution undefined")

    r, pivots = la.rref(ideal.basis) if ideal.dim else (ideal.basis, [])
    free = [k for k in range(d) if k not in pivots]
    reduce = np.eye(d, dtype=complex)
    for i, p in enumerate(pivots):
        reduce[:, p] = -r[i]
        reduce[p, p] = 0.0
    proj = reduce[free, :]
    rep = np.eye(d, dtype=complex)[:, free]

    # the representatives are basis vectors, so their products are slices of c
    c_new = c[np.ix_(free, free)] @ proj.T
    unit_new = proj @ algebra.unit
    inv_new = proj @ algebra.involution @ rep
    labels = ([algebra.labels[j] for j in free] if algebra.labels else None)
    qalg = StructureAlgebra(c_new, inv_new, unit_new, labels=labels)
    return qalg, LinearOp(proj, algebra, qalg)


def centralizer(algebra: StructureAlgebra, s: Subspace) -> Subspace:
    """{b : [b, v] = 0 for all v in s}, computed as one null space."""
    if s.dim == 0:
        return Subspace.whole(algebra)
    blocks = [algebra.right_mul_matrix(v) - algebra.left_mul_matrix(v)
              for v in s.basis]
    return Subspace(algebra, la.null_space(np.vstack(blocks)))


def subalgebra(algebra: StructureAlgebra, vectors,
               tol: float = la.ZERO_TOL) -> tuple[StructureAlgebra, "LinearOp"]:
    """Unital *-subalgebra spanned by the given vectors, plus its inclusion.

    The span must contain the unit and be closed under products and the
    involution; otherwise DomainError. The returned algebra uses the
    orthonormal SVD basis of the span.
    """
    rows = [v.coords if isinstance(v, Element) else v for v in vectors]
    basis = la.span_basis(rows, width=algebra.dim)
    if not la.in_span(algebra.unit, basis, tol).all():
        raise DomainError("span does not contain the unit")
    stars = np.conj(basis) @ algebra.involution.T
    if not la.in_span(stars, basis, tol).all():
        raise DomainError("span is not closed under the involution")
    r = basis.shape[0]
    prods = algebra.mul_pairs(basis, basis).reshape(r * r, -1)
    if not la.in_span(prods, basis, tol).all():
        raise DomainError("span is not closed under products")
    # the basis is orthonormal, so coordinates in it are inner products
    coeffs = basis.conj().T
    c = (prods @ coeffs).reshape(r, r, r)
    inv = (stars @ coeffs).T
    unit = algebra.unit @ coeffs
    sub = StructureAlgebra(c, inv, unit)
    return sub, LinearOp(basis.T, sub, algebra)


class LinearOp:
    """Matrix of a linear map between two structure algebras."""

    def __init__(self, matrix, source: StructureAlgebra, target: StructureAlgebra):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not map "
                             f"dim {source.dim} to dim {target.dim}")
        self.source = source
        self.target = target

    def __call__(self, x) -> Element:
        v = x.coords if isinstance(x, Element) else np.asarray(x, dtype=complex).ravel()
        return Element(self.target, self.matrix @ v)

    def compose(self, inner: "LinearOp") -> "LinearOp":
        if inner.target is not self.source:
            raise DomainError("composition shape mismatch")
        return LinearOp(self.matrix @ inner.matrix, inner.source, self.target)

    @classmethod
    def identity(cls, algebra: StructureAlgebra) -> "LinearOp":
        return cls(np.eye(algebra.dim), algebra, algebra)

    def hom_violations(self, tol: float = la.ZERO_TOL) -> list[str]:
        """Checks that the map is a unital involutive homomorphism."""
        out = []
        src, tgt, h = self.source, self.target, self.matrix
        d = src.dim
        if np.abs(h @ src.unit - tgt.unit).max() > tol:
            out.append("does not preserve the unit")
        # column i: h(e_i*) against h(e_i)*
        star_bad = np.abs(h @ src.involution - tgt.involution @ np.conj(h)).max(axis=0) > tol
        if star_bad.any():
            out.append(f"does not intertwine involutions at basis {int(np.argmax(star_bad))}")
        # row (i, j) in row-major order: h(e_i e_j) against h(e_i) h(e_j)
        lhs = src.structure.reshape(d * d, d) @ h.T
        rhs = tgt.mul_pairs(h.T, h.T).reshape(d * d, -1)
        mul_bad = np.abs(lhs - rhs).max(axis=1) > tol
        if mul_bad.any():
            i, j = divmod(int(np.argmax(mul_bad)), d)
            out.append(f"not multiplicative at basis pair ({i},{j})")
        return out

    def is_homomorphism(self, tol: float = la.ZERO_TOL) -> bool:
        return not self.hom_violations(tol)

    def image(self) -> Subspace:
        return Subspace(self.target, self.matrix.T)

    def __repr__(self):
        return f"<LinearOp {self.source.dim}->{self.target.dim}>"


# --- constructors ------------------------------------------------------

# Largest dimension built from input (algebra_from_name, truncated_poly,
# series_algebra): the dense structure tensor takes 16 d^3 bytes, 256 MiB at
# d = 256, and the law checks need a few d^3 temporaries on top of it.
MAX_NAMED_DIM = 256


def require_dim(d: int) -> None:
    """Refuses an algebra of dimension d > MAX_NAMED_DIM with DomainError.

    Callers compute d from their arguments, so an oversized request is
    refused before anything is allocated.
    """
    if d > MAX_NAMED_DIM:
        raise DomainError(f"algebra dimension {d} exceeds {MAX_NAMED_DIM}: its "
                          f"structure tensor alone would take {16 * d ** 3} bytes")


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _semigroup(table, star, unit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structure tensor, involution and unit of the semigroup algebra with
    e_i e_j = e_{table[i, j]} (0 where table[i, j] is -1), e_i* = e_{star[i]}
    and unit the sum of the e_i at the indices `unit`."""
    d = len(star)
    c = np.zeros((d, d, d), dtype=complex)
    i, j = np.nonzero(table >= 0)
    c[i, j, table[i, j]] = 1.0
    inv = np.zeros((d, d), dtype=complex)
    inv[star, np.arange(d)] = 1.0
    ones = np.zeros(d, dtype=complex)
    ones[unit] = 1.0
    return c, inv, ones


def matrix_algebra(n: int) -> StructureAlgebra:
    """Full matrix algebra M_n with conjugate-transpose involution.

    Basis = matrix units E_ij in row-major order.
    """
    _require_positive(n)
    rows, cols = np.divmod(np.arange(n * n), n)
    # E_ij E_kl = E_il when j = k, else 0; E_ij* = E_ji
    table = np.where(cols[:, None] == rows, rows[:, None] * n + cols, -1)
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return StructureAlgebra(*_semigroup(table, cols * n + rows, np.arange(n) * (n + 1)),
                            labels=labels, check=False)


def function_algebra(n: int) -> StructureAlgebra:
    """C^n with pointwise product and complex-conjugate involution."""
    _require_positive(n)
    idx = np.arange(n)
    table = np.where(np.eye(n, dtype=bool), idx, -1)
    labels = [f"e{i + 1}" for i in range(n)]
    return StructureAlgebra(*_semigroup(table, idx, idx), labels=labels,
                            check=False)


def truncated_poly(mvars: int, degree: int) -> PolyAlgebra:
    """Polynomials of degree <= degree in mvars variables, overflow dropped.

    Refuses more than MAX_NAMED_DIM monomials (see require_dim).
    """
    if mvars >= 1 and degree >= 0:
        require_dim(mi_count(mvars, degree))
    return PolyAlgebra(mvars, degree, check=False)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Direct sum with componentwise operations."""
    da, db = a.dim, b.dim
    d = da + db
    require_dim(d)
    c = np.zeros((d, d, d), dtype=complex)
    c[:da, :da, :da] = a.structure
    c[da:, da:, da:] = b.structure
    inv = np.zeros((d, d), dtype=complex)
    inv[:da, :da] = a.involution
    inv[da:, da:] = b.involution
    unit = np.concatenate([a.unit, b.unit])
    labels = None
    if a.labels and b.labels:
        labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return StructureAlgebra(c, inv, unit, labels=labels, check=False)


class _CyclicGroup:
    """Z_{n_1} x ... x Z_{n_r} with its elements in lexicographic order of
    residue tuples, the one place that order is fixed: group_algebra builds
    on it and spectra.FiniteAbelianGroup extends it. Row t of `_digits`
    holds the t-th residue of every element."""

    def __init__(self, factors):
        self.factors = tuple(int(n) for n in factors)
        if not self.factors or any(n < 1 for n in self.factors):
            raise ValueError("factors must be positive integers")
        self._digits = np.indices(self.factors).reshape(len(self.factors), -1)
        self.elements = list(zip(*self._digits.tolist()))

    @property
    def order(self) -> int:
        return self._digits.shape[1]

    def _sum_index(self, *terms) -> np.ndarray:
        """Index of the sum of elements given as broadcasting (r, ...)
        residue arrays, in any integers. Factors are summed one at a time
        and in place, so the peak is twice the size of the result."""
        out = np.zeros(np.broadcast_shapes(*(term.shape[1:] for term in terms)),
                       dtype=np.int64)
        for t, n in enumerate(self.factors):
            part = sum(term[t] for term in terms)
            part %= n
            out *= n
            out += part
            del part
        return out

    def addition_table(self) -> np.ndarray:
        """T[i, j] = index of elements[i] + elements[j]."""
        return self._sum_index(self._digits[:, :, None], self._digits[:, None, :])

    def negation(self) -> np.ndarray:
        """N[i] = index of -elements[i]."""
        return self._sum_index(-self._digits)


def group_algebra(factors) -> StructureAlgebra:
    """Group algebra of a product of cyclic groups Z_{n_1} x ... x Z_{n_r}.

    Basis = point masses delta_g in lexicographic order of residue tuples;
    product is convolution (delta_g delta_h = delta_{g+h}) and the
    involution sends delta_g to delta_{-g} (conjugate coefficients).
    """
    group = _CyclicGroup(factors)
    labels = [f"d{g}" for g in group.elements]
    return StructureAlgebra(*_semigroup(group.addition_table(), group.negation(), 0),
                            labels=labels, check=False)


def cusp_algebra() -> StructureAlgebra:
    """Span of the monomials {1, x^2, x^3, x^4, x^5, x^6}, products above
    degree 6 dropped.

    The missing degree-1 monomial makes the point 0 singular: tangent and
    cotangent spaces there are 2-dimensional.
    """
    exps = np.array([0, 2, 3, 4, 5, 6])
    # basis position of each degree up to 12: -1 for x and above x^6
    pos = np.full(13, -1)
    pos[exps] = np.arange(len(exps))
    labels = ["1"] + [f"x^{e}" for e in exps[1:]]
    return StructureAlgebra(*_semigroup(pos[exps[:, None] + exps], np.arange(len(exps)), 0),
                            labels=labels, check=False)


def algebra_from_name(name: str) -> StructureAlgebra:
    """Constructor lookup for CLI-style names.

    Supported: "matrix:n", "func:n", "poly:m:N", "group:AxB...", "cusp".
    Names whose algebra would exceed MAX_NAMED_DIM raise DomainError before
    anything is allocated. Sizes the constructor would reject reach it, so
    that it names the real cause.
    """
    parts = name.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "matrix" and len(parts) == 2:
            n = int(parts[1])
            require_dim(max(n, 0) ** 2)
            return matrix_algebra(n)
        if kind == "func" and len(parts) == 2:
            n = int(parts[1])
            require_dim(n)
            return function_algebra(n)
        if kind == "poly" and len(parts) == 3:
            return truncated_poly(int(parts[1]), int(parts[2]))
        if kind == "group" and len(parts) == 2:
            factors = [int(x.lstrip("z")) for x in parts[1].lower().split("x")]
            if min(factors) >= 1:
                require_dim(math.prod(factors))
            return group_algebra(factors)
        if kind == "cusp" and len(parts) == 1:
            return cusp_algebra()
    except ValueError as exc:
        raise ValueError(f"bad algebra name {name!r}: {exc}") from exc
    raise ValueError(f"unknown algebra name {name!r}")
