"""Commutator calculus relative to a homomorphism.

A linear map P: A -> B is measured against a homomorphism phi: A -> B
through the commutators [P, a](x) = P(a x) - phi(a) P(x). Differential
operators of order n are the maps whose (n+1)-fold iterated commutators
all vanish; the relative centralizer tower Z^n(phi) grades the elements of
B by how many commutators with the image of phi it takes to reach zero.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import (_DERIVATION_RUNS, MAX_NAMED_DIM, Character, Element, LinearOp,
                      PolyAlgebra, StructureAlgebra, Subspace, _coords, _law_residuals, _rows)
from .dersys import DerivativeSystem, verify_system
from .errors import DomainError, NumericError
from .geometry import TangentVector
from .multiindex import _integers

__all__ = [
    "RelativeOp",
    "Tower",
    "commutator",
    "left_multiply",
    "diff_order",
    "z_tower",
    "z_tower_from_images",
    "check_stabilization",
    "is_derivation",
    "check_diffsys_characterization",
    "tangent_of_derivation",
    "truncation_hom",
    "derivative_matrix",
    "multiplication_matrix",
    "derivative_op",
]


class RelativeOp:
    """Linear map A -> B paired with the homomorphism giving the module action."""

    def __init__(self, op: LinearOp, action: LinearOp, check: bool = True,
                 tol: float = la.ZERO_TOL):
        if op.source is not action.source or op.target is not action.target:
            raise DomainError("map and action must share source and target")
        self.op = op
        self.action = action
        if check:
            bad = action.hom_violations(tol)
            if bad:
                raise DomainError(f"action is not a homomorphism: {bad[0]}")

    @property
    def source(self) -> StructureAlgebra:
        return self.op.source

    @property
    def target(self) -> StructureAlgebra:
        return self.op.target

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    def __call__(self, x) -> Element:
        return self.op(x)

    def norm(self) -> float:
        return float(np.linalg.norm(self.op.matrix))

    def __repr__(self):
        return f"<RelativeOp {self.source.dim}->{self.target.dim}>"


def commutator(p: RelativeOp, a) -> RelativeOp:
    """[P, a]: x -> P(a x) - phi(a) P(x), with the same action."""
    av = _coords(a, p.source)
    mat = (p.op.matrix @ p.source.left_mul_matrix(av)
           - p.target.left_mul_matrix(p.action.matrix @ av) @ p.op.matrix)
    return RelativeOp(LinearOp(mat, p.source, p.target), p.action, check=False)


def left_multiply(b, p: RelativeOp) -> RelativeOp:
    """b . P: x -> b * P(x) for b in the target algebra."""
    bv = _coords(b, p.target)
    mat = p.target.left_mul_matrix(bv) @ p.op.matrix
    return RelativeOp(LinearOp(mat, p.source, p.target), p.action, check=False)


# Complex entries of the largest generator level diff_order builds
# (|current| * |gens| * d_B * d_A): a larger level is refused before it
# is allocated.
MAX_COMMUTATOR_ENTRIES = 2 ** 24
# Complex entries of one cross-check block of sampled stacks, and of the buffer each level is
# tested in (2^15 timed fastest of 2^12 ... 2^18 on perfbench's difforder classes, 2-vCPU VM).
_BLOCK_ENTRIES, _LEVEL_ENTRIES = 2 ** 18, 2 ** 15


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous complex stack."""
    flat = stack.view(float).reshape(len(stack), -1)
    return np.sqrt(np.einsum("nk,nk->n", flat, flat))


def _cross_check(p: RelativeOp, depth: int, samples: int, bound: float,
                 rng: np.random.Generator) -> bool:
    """Do `depth`-fold commutators with random unit elements all stay
    within bound (Frobenius norm)?

    The samples are drawn as one (samples, depth, 2, d) array, real part
    before imaginary part, level by level, and run as stacks in blocks.
    On the first failing sample the generator is left just past it: the
    block is redrawn from the saved state up to that sample.
    """
    d_a, d_b = p.source.dim, p.target.dim
    step = max(1, _BLOCK_ENTRIES // (d_a * d_a + d_b * d_b + 3 * d_a * d_b))
    phi_t = p.action.matrix.T
    for lo in range(0, samples, step):
        n = min(step, samples - lo)
        state = rng.bit_generator.state
        draw = rng.standard_normal((n, depth, 2, d_a))
        a = draw[:, :, 0] + 1j * draw[:, :, 1]
        a /= np.linalg.norm(a, axis=2, keepdims=True)
        q = p.matrix
        for level in range(depth):
            av = a[:, level]
            q = q @ p.source.left_mul_matrix(av) - p.target.left_mul_matrix(av @ phi_t) @ q
        bad = np.flatnonzero(_norms(q) > bound)
        if bad.size:
            rng.bit_generator.state = state
            rng.standard_normal((int(bad[0]) + 1, depth, 2, d_a))
            return False
    return True


def diff_order(p: RelativeOp, gens, max_n: int, tol: float = 1e-8,
               samples: int = 100, seed: int = 0) -> int | None:
    """Smallest n <= max_n with all (n+1)-fold iterated commutators zero.

    Commutator arguments run over the given generating set of the source;
    that is sufficient because [P, ab] = [P,a] L_b + L_phi(a) [P,b] lets
    vanishing propagate from generators to products. Each candidate order
    is additionally cross-checked on `samples` random element tuples, so a
    generating set that is secretly too small cannot produce a silent
    underestimate. Returns None when no order <= max_n is found; a negative
    max_n is refused with ValueError.

    Each level is tested block by block in one buffer, and stored (q-major,
    generator-minor) only when the next depth reads it; a level of more than
    MAX_COMMUTATOR_ENTRIES complex entries is refused with DomainError first.
    """
    if max_n < 0:
        raise ValueError(f"max_order must be >= 0, not {max_n}")
    gvecs = _rows(gens, p.source)
    if not len(gvecs):
        raise ValueError("need at least one generator")
    base = 1.0 + p.norm()
    rng = np.random.default_rng(seed)
    d_b, d_a = p.matrix.shape
    gcount = len(gvecs)
    left_a = p.source.left_mul_matrix(gvecs)[None]
    left_phi = p.target.left_mul_matrix(gvecs @ p.action.matrix.T)[None]

    step = max(1, _LEVEL_ENTRIES // (gcount * d_b * d_a))
    buf = np.empty((step, gcount, d_b, d_a), dtype=complex)

    def block(lo, out):  # the commutators of current[lo:lo + step], into out
        q = current[lo:lo + step, None]
        out = np.matmul(q, left_a, out=out[:len(q)])
        out -= left_phi @ q
        return out.reshape(-1, d_b, d_a)

    current = p.matrix[None]
    for depth in range(1, max_n + 2):
        entries = len(current) * gcount * d_b * d_a
        if entries > MAX_COMMUTATOR_ENTRIES:
            raise DomainError(f"commutator level {depth} has {entries} matrix "
                              f"entries; at most {MAX_COMMUTATOR_ENTRIES}")
        starts = range(0, len(current), step)
        zero = all((_norms(block(lo, buf)) <= tol * base).all() for lo in starts)
        if zero and _cross_check(p, depth, samples, tol * base, rng):
            return depth - 1
        if depth > max_n:
            return None
        # the next depth reads this level: the same blocks again, in place
        nxt = np.empty((len(current), gcount, d_b, d_a), dtype=complex)
        for lo in starts:
            block(lo, nxt[lo:])
        current = nxt.reshape(-1, d_b, d_a)


# Deepest tower check_stabilization builds: the chain ascends in a target of
# dimension d <= MAX_NAMED_DIM, so it is constant after at most d + 1 levels.
MAX_TOWER_DEPTH = MAX_NAMED_DIM + 1


class Tower:
    """Ascending chain of subspaces of the target algebra."""

    def __init__(self, levels: list[Subspace]):
        self.levels = levels

    def level(self, n: int) -> Subspace:
        return self.levels[n]

    def dims(self) -> list[int]:
        return [s.dim for s in self.levels]

    def monotone(self, tol: float = la.ZERO_TOL) -> bool:
        return all(self.levels[n + 1].contains_subspace(self.levels[n], tol)
                   for n in range(len(self.levels) - 1))

    def __repr__(self):
        return f"<Tower dims={self.dims()}>"


def z_tower_from_images(target: StructureAlgebra, images, depth: int) -> Tower:
    """Centralizer tower against a fixed family of elements of the target.

    Z^0 = 0 and Z^{n+1} = {b : [b, c] in Z^n for every listed element c}.
    The membership condition is linear in c, so a spanning family of the
    action's image is fully general. Each level is one null-space solve:
    project [b, c] off the previous level and require the remainder zero.
    Images are read by algebra._rows: one of another algebra raises
    DomainError, one of another length ValueError.
    """
    d = target.dim
    cvecs = _rows(images, target)
    ad = target.right_mul_matrix(cvecs)  # ad_c = R_c - L_c, in place
    ad -= target.left_mul_matrix(cvecs)
    levels = [Subspace.zero(target)]
    for _ in range(depth):
        # Subspace bases are orthonormal rows, so B^T conj(B) projects onto them
        prev = levels[-1].basis
        off = np.eye(d) - prev.T @ prev.conj()
        kernel = la.null_space((off @ ad).reshape(-1, d))
        levels.append(Subspace._from_orthonormal(target, kernel))
    return Tower(levels)


def z_tower(phi: LinearOp, depth: int) -> Tower:
    """Centralizer tower of a homomorphism, built from its basis images."""
    return z_tower_from_images(phi.target, phi.matrix.T, depth)


def check_stabilization(phi: LinearOp, depth: int = 3,
                        enforce_preconditions: bool = True,
                        tol: float = la.ZERO_TOL) -> dict:
    """Report on whether the centralizer tower is constant from level 1.

    The stabilization statement assumes the action intertwines the
    involutions and lands in an involution-closed matrix-type algebra;
    a non-involutive action is refused unless enforce_preconditions=False,
    which is exactly how the counterexample tower is inspected. The report
    compares levels 1 and 2, so a depth below 2 is refused with ValueError,
    and so is one above MAX_TOWER_DEPTH, before any level is built.
    """
    if depth < 2:
        raise ValueError(f"depth must be >= 2, not {depth}")
    if depth > MAX_TOWER_DEPTH:
        raise ValueError(f"depth must be <= {MAX_TOWER_DEPTH}, not {depth}")
    res = float(_law_residuals(phi.source, phi.target, phi.matrix[None])[1].max())
    involutive = res <= tol * (1.0 + float(np.abs(phi.matrix).max()))
    if not involutive and enforce_preconditions:
        raise DomainError(
            "action does not intertwine the involutions (residual "
            f"{res:.2e}); stabilization is only guaranteed for involutive "
            "actions into involution-closed algebras. Pass "
            "enforce_preconditions=False to inspect the tower anyway.")
    tower = z_tower(phi, depth)
    z1, z2 = tower.level(1), tower.level(2)
    forward = z2.contains_subspace(z1, tol)
    backward = z1.contains_subspace(z2, tol)
    return {
        "involutive": involutive,
        "involution_residual": res,
        "dims": tower.dims(),
        "z1_dim": z1.dim,
        "z2_dim": z2.dim,
        "stabilized": bool(forward and backward and z1.dim == z2.dim),
        "mutual_containment": [backward, forward],
        "tower": tower,
    }


def is_derivation(d: RelativeOp, tol: float = la.ZERO_TOL) -> bool:
    """True iff D(x*) = D(x)* and D(xy) = D(x) phi(y) + phi(x) D(y)."""
    dm, pm = d.op.matrix, d.action.matrix
    bound = tol * (1.0 + float(np.abs(dm).max())) * (1.0 + float(np.abs(pm).max()))
    _, star, leibniz, _, _ = _law_residuals(d.source, d.target, np.stack([dm, pm]),
                                            _DERIVATION_RUNS)
    return bool(not star[0].max() > bound and leibniz[0] <= bound)


def check_diffsys_characterization(sys: DerivativeSystem, gens,
                                   tol: float = 1e-8, samples: int = 100,
                                   seed: int = 0) -> dict:
    """Tests the three equivalent descriptions of a derivative system.

    (i) every D_k is a differential operator of order |k| relative to D_0;
    (ii) the values of each D_k, k > 0, lie in tower level Z^{|k|}(D_0);
    (iii) those values already lie in Z^1(D_0).
    The three are global statements over the whole family; the report says
    whether each holds and whether they agree, and also measures the
    commutator identity [D_k, a] = sum_{l<k} binom(k,l) D_{k-l}(a) . D_l
    as a matrix residual for |k| <= 3.
    """
    vr = verify_system(sys, tol)
    if not vr.ok:
        raise DomainError(f"not a derivative system: {vr.summary()}")
    a, b = sys.source, sys.target
    zero = (0,) * sys.mvars
    phi = LinearOp(sys.stack[0], a, b)
    tower = z_tower(phi, max(sys.order, 1))

    orders: dict = {}
    pred_i = True
    pred_ii = True
    pred_iii = True
    witnesses = []
    for k, dk in zip(sys.indices, sys.stack):
        if k == zero:
            orders[k] = 0
            continue
        p = RelativeOp(LinearOp(dk, a, b), phi, check=False)
        orders[k] = diff_order(p, gens, max_n=sum(k), tol=tol,
                               samples=samples, seed=seed)
        if orders[k] is None:
            pred_i = False
            witnesses.append({"predicate": "diff_order", "index": k})
        columns = dk.T
        if not tower.level(sum(k)).contains_subspace(Subspace(b, columns), tol):
            pred_ii = False
            witnesses.append({"predicate": "tower_membership", "index": k})
        if not tower.level(1).contains_subspace(Subspace(b, columns), tol):
            pred_iii = False
            witnesses.append({"predicate": "first_level", "index": k})

    # every basis element e_i at once: L_{D(e_i)} stacks over the columns of D
    comm_res = 0.0
    binom, sub = sys.table.binomials(), sys.table.sub
    left_a, left_phi = a.left_mul_matrix(np.eye(a.dim)), b.left_mul_matrix(phi.matrix.T)
    for r, k in enumerate(sys.indices):
        if not 1 <= sum(k) <= 3:
            continue
        dk = sys.stack[r]
        diff = dk @ left_a - left_phi @ dk
        for l in np.flatnonzero(sub[r] >= 0):
            if l != r:
                diff -= binom[l, r] * (b.left_mul_matrix(sys.stack[sub[r, l]].T) @ sys.stack[l])
        comm_res = max(comm_res, float(np.abs(diff).max()))

    return {
        "predicates": {"diff_order": pred_i, "tower_membership": pred_ii,
                       "first_level": pred_iii},
        "agree": pred_i == pred_ii == pred_iii,
        "orders": orders,
        "tower_dims": tower.dims(),
        "commutator_residual": comm_res,
        "witnesses": witnesses,
    }


def tangent_of_derivation(d: RelativeOp, t: Character,
                          tol: float = 1e-9) -> TangentVector:
    """The functional x -> t(D(x)) of a derivation, as a tangent vector.

    The base point is the character t composed with the action; the
    Leibniz rule there follows from the derivation identity and is
    re-verified numerically.
    """
    if not is_derivation(d):
        raise DomainError("map is not a derivation relative to its action")
    if t.algebra is not d.target:
        raise DomainError("character must live on the target algebra")
    base = Character(d.source, t.functional @ d.action.matrix)
    if not base.is_character():
        raise NumericError("character pulled back along the action is not a character")
    tau = TangentVector(d.source, t.functional @ d.op.matrix, base)
    if tau.leibniz_residual() > tol * (1.0 + np.abs(tau.functional).max()):
        raise NumericError("pulled-back functional fails the Leibniz rule")
    return tau


# --- polynomial operator helpers ---------------------------------------


def truncation_hom(source: PolyAlgebra, target: PolyAlgebra) -> LinearOp:
    """Degree-truncation map between polynomial algebras; a homomorphism.

    The graded order lists the monomials of degree <= target.degree first,
    so this is the projection onto the leading target.dim coordinates.
    """
    if source.mvars != target.mvars or target.degree > source.degree:
        raise ValueError("target must share variables and have no larger degree")
    return LinearOp(np.eye(target.dim, source.dim, dtype=complex), source, target)


def derivative_matrix(source: PolyAlgebra, target: PolyAlgebra, i: int) -> np.ndarray:
    """Matrix of d/dx_i followed by truncation into the target degrees."""
    if source.mvars != target.mvars:
        raise ValueError("variable count mismatch")
    if not 0 <= i < source.mvars:
        raise ValueError(f"variable index {i} is not between 0 and {source.mvars - 1}")
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    if source.degree >= 1:
        # x_i is row 1 + i of the graded order, whose leading rows are the target's
        down = source.table.sub[:, 1 + i]
        cols = np.flatnonzero((down >= 0) & (down < target.dim))
        mat[down[cols], cols] = source.table.exps[cols, i]
    return mat


def multiplication_matrix(source: PolyAlgebra, target: PolyAlgebra,
                          g: dict) -> np.ndarray:
    """Matrix of f -> g*f truncated into the target degrees.

    g is a sparse polynomial {exponent tuple: coefficient}. Each term x^beta
    is one column of the target's sum table, x^alpha -> x^(alpha + beta);
    source monomials past the target's have degrees above it and go
    nowhere, and so does a term above the target degree. Any other
    exponent is read by the target's MonomialTable.row, so one of the
    wrong length or with a negative entry raises ValueError.
    """
    if source.mvars != target.mvars:
        raise ValueError("variable count mismatch")
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    rows = min(source.dim, target.dim)
    for beta, coeff in g.items():
        beta = _integers(beta)
        if len(beta) == target.mvars and min(beta) >= 0 and sum(beta) > target.degree:
            continue
        up = target.table.add[:rows, target.table.row(beta)]
        j = np.flatnonzero(up >= 0)
        mat[up[j], j] += coeff
    return mat


def derivative_op(source: PolyAlgebra, i: int, drop: int = 1) -> RelativeOp:
    """d/dx_i as a degree-lowering relative operator.

    The target is the same polynomial family with the degree lowered by
    `drop`, and the action is the truncation homomorphism; with that
    pairing the operator has differential order exactly 1 and the identity
    [d/dx_i, x_i] = truncation holds on the nose.
    """
    if drop < 1 or drop > source.degree:
        raise ValueError("drop must be between 1 and the source degree")
    target = source.truncated(source.degree - drop)
    op = LinearOp(derivative_matrix(source, target, i), source, target)
    return RelativeOp(op, truncation_hom(source, target), check=False)
