"""Sampled checker for density conditions of finitely generated function
algebras on a box.

Generators are closed-form expressions (including the flat bump
exp(-1/t^2), extended by zero, whose derivatives all vanish at 0). The
checker evaluates three finite certificates on a grid: point separation
by generator value tuples, Jacobian rank at every sample point, and, for
polynomial generators, surjectivity onto finite jet spaces. A PASS means
the conditions were verified on the sample, never globally.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _linalg as la
from ._input import array, envelope_options, integer, tolerance
from .algebra import PolyAlgebra, truncated_poly
from .errors import DomainError, NumericError
from .jets import _check_reach, _derivative_rows, jet_space
from .multiindex import mi_count

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Sin",
    "Cos",
    "Exp",
    "FlatBumpTimes",
    "flat_bump",
    "parse_expr",
    "separation_check",
    "tangent_rank_check",
    "jet_surjectivity_check",
    "JetSurjectivity",
    "Verdict",
    "envelope_verdict",
]


class Expr:
    """Expression tree node; immutable, with total evaluation on reals."""

    def forward(self, grids: list[np.ndarray], m: int) -> tuple[np.ndarray, list]:
        """The value on the grids and the partials in the first m variables,
        from one walk of the tree (forward mode; Griewank and Walther,
        Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 3); a partial is an
        array or scalar, or None, not computed, where it is identically zero."""
        raise NotImplementedError

    def eval(self, grids: list[np.ndarray]) -> np.ndarray:
        return self.forward(grids, 0)[0]

    def degree(self):
        """Total degree if polynomial, else None."""
        return None

    def to_poly(self, algebra: PolyAlgebra) -> np.ndarray:
        """Coefficient vector in a polynomial algebra.

        The caller must pick the degree bound at least the expression's
        degree; otherwise products are silently truncated.
        """
        raise DomainError(f"not a polynomial expression: {self}")

    def __repr__(self):
        return self.to_sexpr()

    def to_sexpr(self) -> str:
        raise NotImplementedError


def _sum(da: list, db: list) -> list:
    """The partials of a sum; a structural zero term is skipped."""
    return [q if p is None else p if q is None else p + q for p, q in zip(da, db)]


def _chain(factor, partials: list) -> list:
    """factor() * d for each partial d; the factor is made once, and only
    when some partial is not a structural zero."""
    if all(d is None for d in partials):
        return partials
    f = factor()
    return [None if d is None else f * d for d in partials]


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def forward(self, grids, m):
        return np.full_like(grids[0], self.value, dtype=float), [None] * m

    def degree(self):
        return 0

    def to_poly(self, algebra):
        return self.value * algebra.unit.copy()

    def to_sexpr(self):
        return f"(const {self.value:g})"


class Var(Expr):
    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable indices start at 0")
        self.index = int(index)

    def forward(self, grids, m):
        if self.index >= len(grids):
            raise ValueError(f"variable x{self.index} outside the grid dimension")
        return grids[self.index], [1.0 if i == self.index else None for i in range(m)]

    def degree(self):
        return 1

    def to_poly(self, algebra):
        if self.index >= algebra.mvars:
            raise DomainError("variable index outside the algebra's variables")
        # x_i is row 1 + i of the graded order
        coords = np.zeros(algebra.dim, dtype=complex)
        coords[1 + self.index] = 1.0
        return coords

    def to_sexpr(self):
        return f"(var {self.index})"


class Sum(Expr):
    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def forward(self, grids, m):
        a, da = self.a.forward(grids, m)
        b, db = self.b.forward(grids, m)
        return a + b, _sum(da, db)

    def degree(self):
        da, db = self.a.degree(), self.b.degree()
        return None if da is None or db is None else max(da, db)

    def to_poly(self, algebra):
        return self.a.to_poly(algebra) + self.b.to_poly(algebra)

    def to_sexpr(self):
        return f"(+ {self.a.to_sexpr()} {self.b.to_sexpr()})"


class Prod(Expr):
    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def forward(self, grids, m):
        a, da = self.a.forward(grids, m)
        b, db = self.b.forward(grids, m)
        return a * b, _sum(_chain(lambda: b, da), _chain(lambda: a, db))

    def degree(self):
        da, db = self.a.degree(), self.b.degree()
        return None if da is None or db is None else da + db

    def to_poly(self, algebra):
        return algebra.mul_coords(self.a.to_poly(algebra), self.b.to_poly(algebra))

    def to_sexpr(self):
        return f"(* {self.a.to_sexpr()} {self.b.to_sexpr()})"


class Pow(Expr):
    def __init__(self, base: Expr, power: int):
        if power < 1:
            raise ValueError("powers must be integers >= 1")
        self.base, self.power = base, int(power)

    def forward(self, grids, m):
        b, db = self.base.forward(grids, m)
        p = self.power
        if p > 1:  # p * (b^(p-1) * b')
            db = _chain(lambda: float(p), _chain(lambda: b ** (p - 1) if p > 2 else b, db))
        return b ** p, db

    def degree(self):
        db = self.base.degree()
        return None if db is None else db * self.power

    def to_poly(self, algebra):
        out = algebra.unit.copy()
        b = self.base.to_poly(algebra)
        for _ in range(self.power):
            out = algebra.mul_coords(out, b)
        return out

    def to_sexpr(self):
        return f"(pow {self.base.to_sexpr()} {self.power})"


class _Unary(Expr):
    """f(a) for the numpy function f called `name`; the chain rule
    multiplies each partial of a by slope(a, f(a))."""

    def __init__(self, a: Expr):
        self.a = a

    def forward(self, grids, m):
        a, da = self.a.forward(grids, m)
        value = self.f(a)
        return value, _chain(lambda: self.slope(a, value), da)

    def to_sexpr(self):
        return f"({self.name} {self.a.to_sexpr()})"


class Sin(_Unary):
    name, f, slope = "sin", np.sin, staticmethod(lambda a, value: np.cos(a))


class Cos(_Unary):
    # -sin(a) a' is -1 (sin(a) a') bit for bit
    name, f, slope = "cos", np.cos, staticmethod(lambda a, value: -np.sin(a))


class Exp(_Unary):
    name, f, slope = "exp", np.exp, staticmethod(lambda a, value: value)


def _flat_bump_over_pow(t: np.ndarray, power: int) -> np.ndarray:
    """exp(-1/t^2)/t^power, 0 where t = 0."""
    safe = np.where(t == 0.0, 1.0, t)
    # For tiny u, 1/u^2 overflows and exp(-1/u^2) is 0, and u^power may
    # underflow to 0 too: the value there is the exact 0, not 0/0.
    with np.errstate(divide="ignore", over="ignore"):
        val = np.where(t == 0.0, 0.0, np.exp(-1.0 / safe ** 2))
        if power:
            val = np.divide(val, safe ** power, out=np.zeros_like(val), where=val != 0.0)
    return val


class FlatBumpTimes(Expr):
    """exp(-1/u^2)/u^power extended by zero at u = 0.

    The family is closed under differentiation:
    d/dx [exp(-1/u^2) u^-k] = (2 u^-(k+3) - k u^-(k+1)) exp(-1/u^2) u',
    and every member still has all derivatives zero where u = 0, which is
    the point of the construction. power = 0 is the flat bump itself.
    """

    def __init__(self, arg: Expr, power: int = 0):
        if power < 0:
            raise ValueError("power must be >= 0")
        self.arg, self.power = arg, int(power)

    def forward(self, grids, m):
        t, dt = self.arg.forward(grids, m)
        k = self.power
        return _flat_bump_over_pow(t, k), _chain(
            lambda: 2.0 * _flat_bump_over_pow(t, k + 3) + -float(k) * _flat_bump_over_pow(t, k + 1),
            dt)

    def to_sexpr(self):
        if self.power == 0:
            return f"(flatbump {self.arg.to_sexpr()})"
        return f"(flatbump-over-pow {self.arg.to_sexpr()} {self.power})"


def flat_bump(arg: Expr) -> Expr:
    return FlatBumpTimes(arg, 0)


def parse_expr(text: str, mvars: int | None = None) -> Expr:
    """Prefix-grammar parser.

    Forms: (+ e e), (* e e), (pow e k), (sin e), (cos e), (exp e),
    (flatbump e), (var i), (const c). Variable indices are 0-based.
    """
    if not isinstance(text, str):
        raise ValueError(f"a generator must be an expression string, not {text!r}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse() -> Expr:
        tok = take()
        if tok != "(":
            raise ValueError(f"expected '(' but found {tok!r}")
        head = take()
        if head == "+":
            node = Sum(parse(), parse())
        elif head == "*":
            node = Prod(parse(), parse())
        elif head == "pow":
            base = parse()
            k = take()
            if not k.lstrip("+").isdigit() or int(k) < 1:
                raise ValueError(f"power must be an integer >= 1, got {k!r}")
            node = Pow(base, int(k))
        elif head == "sin":
            node = Sin(parse())
        elif head == "cos":
            node = Cos(parse())
        elif head == "exp":
            node = Exp(parse())
        elif head == "flatbump":
            node = FlatBumpTimes(parse(), 0)
        elif head == "var":
            i = take()
            if not i.isdigit():
                raise ValueError(f"variable index must be a nonnegative integer, got {i!r}")
            if mvars is not None and int(i) >= mvars:
                raise ValueError(f"variable x{i} outside dimension {mvars}")
            node = Var(int(i))
        elif head == "const":
            try:
                node = Const(float(take()))
            except ValueError as exc:
                raise ValueError(f"bad constant: {exc}") from exc
        else:
            raise ValueError(f"unknown operator {head!r}")
        closing = take()
        if closing != ")":
            raise ValueError(f"expected ')' but found {closing!r}")
        return node

    out = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after expression: {tokens[pos:]}")
    return out


# Sample points per certificate (grid ** m) and candidate pairs of the
# separation check above which a request is refused before allocating.
MAX_SAMPLES = 2 ** 20
MAX_SEPARATION_CANDIDATES = 2 ** 20


def _grid_axes(box, grid: int) -> list[np.ndarray]:
    """The m sample axes of the box, axis i shaped (1, ..., grid, ..., 1)
    with its points at position i, so that an expression evaluated on them
    broadcasts to the (grid,) * m sample."""
    if not len(box):
        raise ValueError("the box needs at least one axis (m >= 1)")
    box = array("box", box, (None, 2), finite=False, real=True).tolist()
    if grid < 2:
        raise ValueError("need at least 2 grid points per axis")
    for axis, (lo, hi) in enumerate(box):
        if not math.isfinite(hi - lo):
            raise DomainError(f"box axis {axis} is [{lo!r}, {hi!r}]; its bounds "
                              f"and its width must be finite")
    m = len(box)
    samples = grid ** m
    if samples > MAX_SAMPLES:
        raise DomainError(f"grid {grid} on a {m}-dimensional box gives "
                          f"{samples} sample points; at most {MAX_SAMPLES}")
    return [np.linspace(lo, hi, grid).reshape((1,) * i + (grid,) + (1,) * (m - 1 - i))
            for i, (lo, hi) in enumerate(box)]


class _Sample:
    """A request's sample grid and what the certificates read of it: the
    broadcastable axes, the grid's shape, the generator values as
    (points, k) and the first derivatives as columns: columns[i][j] is
    d g_j / d x_i from the forward pass on the axes, of length 1 along
    each axis it does not vary on, so it is not repeated along it; a
    structural zero is one shared read-only zeros((1,) * m). jacobian()
    gathers the (m, k, points) array where it is asked for. The flat
    coordinate arrays and the point codes are built on first use, once; a
    PASS never reads them. `witnesses` takes each certificate's ordered
    witness point indices, by condition name, for envelope_verdict."""

    def __init__(self, axes: list[np.ndarray]):
        self.axes = axes
        self.shape = np.broadcast_shapes(*(ax.shape for ax in axes))
        self.values: np.ndarray | None = None
        self.columns: list[list[np.ndarray]] | None = None
        self.witnesses = {}

    def jacobian(self, points: np.ndarray | None = None) -> np.ndarray:
        """The Jacobian as (m, k, n), contiguous over the points: at the
        flat point indices `points`, in their order, or at every point."""
        return _gather(self.columns, self.shape, points)

    @functools.cached_property
    def grids(self) -> list[np.ndarray]:
        """The coordinate arrays of every sample point, in C order of the
        axes: what np.meshgrid(..., indexing="ij") gives, raveled."""
        return [np.broadcast_to(ax, self.shape).ravel() for ax in self.axes]

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Point codes in the order of coordinate tuples: the mixed-radix
        number of the point's ranks among each axis's distinct coordinates
        (so -0.0 and 0.0 tie, as repeats do), the first axis most significant."""
        code = 0
        for ax in self.axes:
            distinct, rank = np.unique(ax.ravel(), return_inverse=True)
            code = code * len(distinct) + rank.reshape(ax.shape)
        return np.ravel(code)


def _gather(columns, shape: tuple, points: np.ndarray | None = None) -> np.ndarray:
    """The (m, k, n) array of the columns columns[i][j], each broadcastable
    to the grid `shape`, at the flat indices `points` of the grid in their
    order, or at every point; a dense (m, k, n) array is its own columns
    on the grid (n,)."""
    m, k = len(columns), len(columns[0])
    if points is None:
        out = np.empty((m, k) + tuple(shape))
        for i, row in enumerate(columns):
            for j, col in enumerate(row):
                out[i, j] = col
        return out.reshape(m, k, -1)
    index = np.unravel_index(points, shape)
    out = np.empty((m, k, len(points)))
    for i, row in enumerate(columns):
        for j, col in enumerate(row):
            out[i, j] = np.broadcast_to(col, shape)[index]
    return out


def _sample(gens, box, grid: int, values: bool = True, jac: bool = True) -> _Sample:
    """Builds the grid once and evaluates the requested arrays on it.

    Each generator is walked once by Expr.forward on the broadcastable
    axes, for its value and first derivatives at the cost of its own
    variables. The values are written into their slot of a preallocated
    array by broadcast assignment; the derivatives are kept as the columns
    of _Sample. Overflow and invalid-operation warnings are silenced
    during evaluation; a generator value or first derivative that is
    computed and not finite is refused with DomainError instead, naming
    how many sample points it affects and the first of them. A structural
    zero is not computed, so it is never refused.
    """
    axes = _grid_axes(box, grid)
    sample = _Sample(axes)
    shape, k, m = sample.shape, len(gens), len(axes)
    npts = math.prod(shape)
    zero = np.zeros((1,) * m)
    zero.flags.writeable = False
    sample.values = np.empty((npts, k)) if values else None
    sample.columns = [[zero] * k for _ in range(m)] if jac else None
    finite = True
    with np.errstate(all="ignore"):
        for j, g in enumerate(gens):
            value, partials = g.forward(axes, m if jac else 0)
            if values:
                sample.values.reshape(shape + (k,))[..., j] = value
                finite = finite and bool(np.isfinite(value).all())
            for i, d in enumerate(partials):
                if d is not None:
                    sample.columns[i][j] = col = d if np.ndim(d) else np.reshape(d, (1,) * m)
                    finite = finite and bool(np.isfinite(col).all())
    if not finite:
        bad = np.zeros(shape, dtype=bool)
        if values:
            bad |= ~np.isfinite(sample.values).all(axis=1).reshape(shape)
        for col in itertools.chain.from_iterable(sample.columns or []):
            bad |= ~np.isfinite(col)
        bad = bad.ravel()
        first = int(np.flatnonzero(bad)[0])
        raise DomainError(f"generator values or first derivatives are not finite at "
                          f"{int(bad.sum())} of {npts} sample points, the first at "
                          f"{[float(g[first]) for g in sample.grids]}")
    return sample


def _point_tuples(grids, points: np.ndarray) -> list[tuple]:
    return list(zip(*[g[points].tolist() for g in grids]))


# The first draws of the separation check's weight stream,
# np.random.default_rng(1979).uniform(1.0, 2.0, 16), written out so that
# neither an import nor a call builds the generator.
_WEIGHTS = np.array([
    1.0103944954331276, 1.76041738120411, 1.5959223069109463, 1.0890589954905354,
    1.734300003680127, 1.682093149671955, 1.6846172744981385, 1.8553313040673565,
    1.6537548275539988, 1.2121253232379028, 1.60059455718137, 1.2974800957081465,
    1.9948224417973566, 1.6766147115419905, 1.285057599987301, 1.1985226590826679])
_WEIGHTS.flags.writeable = False


def _weight_draws(k: int) -> np.ndarray:
    """The first k draws of one seeded stream in [1, 2), so no weight is
    below half another: read from _WEIGHTS, drawn afresh only for more
    generators than it holds."""
    if k <= len(_WEIGHTS):
        return _WEIGHTS[:k]
    return np.random.default_rng(1979).uniform(1.0, 2.0, k)


def _candidate_counts(key: np.ndarray, window: np.ndarray) -> np.ndarray:
    """For each position i of the sorted keys, the number of later keys at
    most key[i] + window[i]: the count np.searchsorted(key, key + window,
    side="right") - (i + 1) gives.

    Only the open positions, whose next key is within that same rounded
    sum, are searched; since the keys are sorted, every other position has
    no later key in reach and counts 0.
    """
    reach = key + window
    count = np.zeros(len(key), dtype=np.intp)
    open_ = np.flatnonzero(key[1:] <= reach[:-1])
    count[open_] = np.searchsorted(key, reach[open_], side="right") - open_ - 1
    return count


def separation_check(gens, box, grid: int, tol: float = 1e-9, *,
                     sample: _Sample | None = None) -> list | None:
    """Grid-point pairs whose generator values all differ by at most the
    absolute tol, sorted, each as (smaller point, larger point) by
    coordinate tuples; empty means no violation on this sample.

    A sort-and-sweep (Bentley & Friedman) finds every such pair: with the
    key w . f, fixed positive weights w of sum 1 (so the key cannot
    overflow), a point's candidates are the later points in key order whose
    key is within tol plus a bound on the keys' rounding, since
    |w . (f_p - f_q)| <= |f_p - f_q|_inf; each is confirmed at the exact
    tol. The keys are sorted alone first: where no gap between sorted
    neighbours is within the widest window, nothing is ordered or counted.
    Pairs are ordered by _Sample.codes. More than MAX_SEPARATION_CANDIDATES
    distinct candidates (a family constant on much of a fine grid) are
    refused with DomainError before any pair is built, and so are values
    that are not finite; a negative or non-finite tol is a ValueError.
    `sample` is the evaluated grid envelope_verdict shares with
    tangent_rank_check: given it, the pairs are left on it as a 2 x P
    point-index array under witnesses["separation"] and None is returned;
    without it the grid is built here and the list returned.
    """
    tol = tolerance("tol_sep", tol)
    shared = sample is not None
    if not shared:
        sample = _sample(gens, box, grid, jac=False)
    values = sample.values
    npts, k = values.shape
    w = _weight_draws(k)
    w = w / w.sum()
    key = values @ w
    # a computed key is within k (eps (|f| . w) + eta) / 2 of the exact one,
    # eta for products that underflow (Higham, Accuracy and Stability, 3.1);
    # the window covers both keys of a pair
    fp = np.finfo(float)

    def window(mag):
        return tol + 2 * (k + 1) * (fp.eps * (mag + tol) + fp.smallest_subnormal)

    # The weights sum to 1, so max|f|, the largest column maximum, bounds
    # each w . |f| up to roundings the window's margin covers, and a
    # candidate pair's sorted keys are joined by gaps within the window
    # there; with no such gap (every PASS grid) nothing is counted,
    # confirmed or ordered, and no w . |f| is formed.
    ranked = np.sort(key)
    pairs = np.empty((2, 0), dtype=np.intp)
    if (ranked[1:] <= ranked[:-1] + window(max(values.max(), -values.min()))).any():
        order = np.argsort(key)
        count = _candidate_counts(key[order], window((np.abs(values) @ w)[order]))
        if (total := int(count.sum())) > MAX_SEPARATION_CANDIDATES:
            raise DomainError(f"separation check has {total} candidate pairs; "
                              f"at most {MAX_SEPARATION_CANDIDATES}")
        first = np.repeat(np.arange(len(order)), count)
        second = first + 1 + np.arange(total) - np.repeat(np.cumsum(count) - count, count)
        a, b = order[first], order[second]
        keep = np.abs(values[a] - values[b]).max(axis=1) <= tol
        # in (a, b) index order, so of pairs equal in coordinates the first
        # stays; each pair is put in code order, the pairs sorted by codes
        a, b = np.divmod(np.sort(np.minimum(a, b)[keep] * npts + np.maximum(a, b)[keep]), npts)
        if a.size:
            ca, cb = sample.codes[a], sample.codes[b]
            index = np.where(cb < ca, cb * npts + ca, ca * npts + cb)
            order = np.argsort(index, kind="stable")
            index = index[order]
            kept = np.concatenate((order[:1], order[1:][index[1:] != index[:-1]]))
            pairs = np.where(cb < ca, np.stack([b, a]), np.stack([a, b]))[:, kept]
    sample.witnesses["separation"] = pairs
    if shared:
        return None
    grids = sample.grids
    return list(zip(_point_tuples(grids, pairs[0]), _point_tuples(grids, pairs[1])))


# One-sided Jacobi sweeps after which the rank certificate gives up; the
# row pairs of m <= 6 variables settle within 11 sweeps on random,
# rank-deficient, clustered and widely scaled batches. Points are rotated
# in blocks, so the temporaries are bounded by the block, not the grid.
MAX_JACOBI_SWEEPS = 30
JACOBI_BLOCK = 8192


def _orthogonalise_rows(a: np.ndarray) -> None:
    """Rotates the rows of every m x k matrix a[:, :, t] in place until
    they are mutually orthogonal to working precision.

    Cyclic one-sided (Hestenes) Jacobi sweeps rotate each row pair (p, q)
    at the points where |a_p . a_q| > sqrt(k) eps |a_p| |a_q|, until a sweep
    rotates nothing. Entries are expected scaled to at most 1 in absolute
    value. Rows of squared norm at most (k eps)^2 are not rotated: they
    are zero to working precision, and rotating them would not converge
    when k < m.
    """
    m, k, _ = a.shape
    eps = np.finfo(float).eps
    cut, floor = np.sqrt(k) * eps, (k * eps) ** 2
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for p, q in itertools.combinations(range(m), 2):
            ap, aq = a[p], a[q]
            alpha = np.einsum("in,in->n", ap, ap)
            beta = np.einsum("in,in->n", aq, aq)
            gamma = np.einsum("in,in->n", ap, aq)
            live = ((np.abs(gamma) > cut * np.sqrt(alpha * beta))
                    & (alpha > floor) & (beta > floor))
            if not live.any():
                continue
            rotated = True
            # tan of the rotation angle, the smaller root; 0 (the identity)
            # at the points that are settled
            zeta = (beta - alpha) / (2.0 * np.where(live, gamma, 1.0))
            t = np.where(live, np.copysign(1.0, zeta)
                         / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            old_p = ap.copy()
            ap *= c
            ap -= s * aq
            aq *= c
            aq += s * old_p
        if not rotated:
            return
    raise NumericError(f"rank certificate: one-sided Jacobi did not settle "
                       f"in {MAX_JACOBI_SWEEPS} sweeps")


def _extreme_singular_values(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest singular value of every m x k matrix
    jac[:, :, t], where the smallest is 0 when k < m.

    After the rows are orthogonalised the singular values are the row
    norms, so J J^T is never formed and the 1e-8 rank cut sees no squared
    conditioning. Each point is first divided by its largest absolute
    entry, so squared norms neither overflow nor underflow; an all-zero
    Jacobian stays zero. Where sigma_1 itself overflows, both values are
    given in units of 2^64: sigma_1 is above 1 there, so the rank cut
    sigma_m <= tol_rank * max(sigma_1, 1) reads only their ratio, which
    the exact power of two keeps, and it stays finite.
    """
    npts = jac.shape[2]
    top, bottom = np.empty(npts), np.empty(npts)
    for start in range(0, npts, JACOBI_BLOCK):
        span = slice(start, start + JACOBI_BLOCK)
        scale = np.abs(jac[:, :, span]).max(axis=(0, 1))
        a = jac[:, :, span] / np.where(scale > 0.0, scale, 1.0)
        _orthogonalise_rows(a)
        norms = np.sqrt(np.einsum("pkn,pkn->pn", a, a))
        high, low = norms.max(axis=0), norms.min(axis=0)
        with np.errstate(over="ignore"):
            scale[np.isinf(high * scale)] *= 2.0 ** -64
        top[span] = high * scale
        bottom[span] = low * scale
    return top, bottom


def _gram_clears(jac, tol_rank: float) -> np.ndarray:
    """The points of jac at which a verified Gram test proves that the
    Jacobi of _extreme_singular_values finds no witness: its sigma_m is
    above tol_rank * max(sigma_1, 1) by more than its error.

    jac holds the columns jac[i][j], d g_j / d x_i, each broadcastable to
    one shape, which is the shape of the result; a dense (m, k, n) array is
    its own columns on the shape (n,). Where no column varies along an
    axis, the points along it are screened once, and a column that is zero
    on all of jac adds nothing to G and is skipped.

    Per point, s is the largest absolute entry (eta for a zero Jacobian),
    a = fl(J / s) as in _extreme_singular_values and B = J / s exactly.
    Let u = eps / 2, gamma_n = n u / (1 - n u), eta the smallest subnormal
    and nu the smallest normal number. For a nonzero J the computed trace
    t of G^ = fl(a a^T) is at least 1, since a has an entry +-1 exactly,
    so every absolute underflow term below, a multiple of eta, is folded
    into the coefficient of T or rho. A zero J has G^ = 0 and no positive
    pivot.

    - T = t (1 + 2 gamma_{m+k}) bounds ||a||_F^2 and tr G^, and
      rho = sqrt(T) (1 + eps) bounds sigma_1(B) <= ||B||_F.
    - The Jacobi's top and bottom are within delta s sigma_1(B),
      delta = 8 sqrt(k) eps (the bound the rank reference tests hold it
      to), plus eta / 2 of underflow, of s sigma_1(B) and s sigma_m(B).
      A larger tol_rank makes more witnesses, so the test uses
      tol = max(tol_rank, nu); then the computed cut tol * max(top, 1)
      and the underflow stay within a factor 1 + 2 eps of the exact cut.
      So the Jacobi finds no witness where sigma_m(B) > theta =
      (delta + u + m k eta) rho
      + (1 + 2 eps) tol max(s rho (1 + delta) (1 + 2 eps), 1) / s,
      where u rho + m k eta also covers ||a - B||_2, the rounding of the
      division. The extra 1 + 2 eps in the max makes theta infinite, and
      the point undecided, wherever top could overflow.
    - Gram rounding (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 3.5): ||G^ - a a^T||_2 <= (gamma_k + m k eta) T.
    - Cholesky rounding (Rump, "Verification of positive definiteness",
      BIT 46, 2006, after Demmel): when the floating-point Cholesky of
      fl(G^ - mu I) has only positive pivots, lambda_min(G^) > mu -
      (gamma_{2m+3} + 2 m (m + 3) eta) T, with the rounding of the shifted
      diagonal and underflow.

    So mu = theta^2 + (gamma_k + gamma_{2m+3} + (m k + 2 m (m + 3)) eta) T
    gives sigma_m(a) > theta + ||a - B||_2, hence sigma_m(B) > theta, at
    every point with positive pivots. The constants are folded into
    Python floats first, so each array is touched by one product per
    constant factor: theta = sqrt(t) c_1 + max(sqrt(t) c_2 s, 1) c_3 / s
    and mu = theta^2 + c_4 t, updated in place. The factor 1 + 64 eps on
    mu's evaluation enters as 1 + 32 eps on c_1 and c_3, whose square is
    above it, and as itself on c_4. mu combines positive numbers in fewer
    than 40 roundings (those of theta counted twice), none subnormal,
    which that factor covers; folding only removed roundings. An overflow
    makes mu infinite. k < m (G singular) and a tol_rank of 1 or more
    (theta >= rho >= sigma_m) leave every point undecided.
    """
    m, k = len(jac), len(jac[0])
    shape = np.broadcast_shapes(*(col.shape for row in jac for col in row))
    fp = np.finfo(float)
    u, eta = fp.eps / 2, fp.smallest_subnormal

    def gamma(n):
        return n * u / (1.0 - n * u)

    delta = 8.0 * math.sqrt(k) * fp.eps
    widen = 1.0 + 2 * gamma(m + k)              # T = widen * t
    rho = math.sqrt(widen) * (1.0 + fp.eps)     # rho = sqrt(t) * this
    half = 1.0 + 32 * fp.eps                    # its square covers mu's evaluation
    c_1 = (delta + u + m * k * eta) * rho * half
    c_2 = rho * ((1.0 + delta) * (1.0 + 2 * fp.eps))
    c_3 = max(tol_rank, fp.tiny) * (1.0 + 2 * fp.eps) * half
    c_4 = ((gamma(k) + gamma(2 * m + 3) + (m * k + 2 * m * (m + 3)) * eta)
           * widen * (1.0 + 64 * fp.eps))
    # the narrowest columns first, so they are combined at their own size
    scale = functools.reduce(np.maximum, sorted((np.abs(col) for row in jac for col in row),
                                                key=np.size))
    np.maximum(scale, eta, out=scale)
    # G^ = fl(a a^T), one column of a at a time: the sums run over i in
    # order, and only the m entries a[:, i] are held
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    gram, term = {}, np.empty(shape)
    for i in range(k):
        a = [row[i] / scale if row[i].any() else None for row in jac]
        for p, q in pairs:
            if a[p] is None or a[q] is None:
                continue
            if (p, q) in gram:
                gram[p, q] += np.multiply(a[p], a[q], out=term)
            else:
                gram[p, q] = a[p] * a[q]
    for pair in pairs:
        if pair not in gram:
            gram[pair] = np.zeros(shape)
    trace = gram[0, 0].copy()
    for p in range(1, m):
        trace += gram[p, p]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = np.sqrt(trace)
        reach = theta * c_2
        reach *= scale
        np.maximum(reach, 1.0, out=reach)
        reach *= c_3
        reach /= scale
        theta *= c_1
        theta += reach
        mu = np.square(theta, out=theta)
        trace *= c_4
        mu += trace
        # Cholesky of gram - mu I in place: gram[p, i] becomes entry (i, p)
        # of the lower factor. A pivot that is not positive makes every
        # later pivot NaN or -inf, so the last one decides.
        for j in range(m):
            pivot = gram[j, j]
            pivot -= mu
            for p in range(j):
                pivot -= np.square(gram[p, j], out=term)
            if j == m - 1:
                return pivot > 0.0
            np.sqrt(pivot, out=pivot)
            for i in range(j + 1, m):
                low = gram[j, i]
                for p in range(j):
                    low -= np.multiply(gram[p, i], gram[p, j], out=term)
                low /= pivot


def _row_blocks(columns, shape: tuple):
    """(start, block columns, block shape) for consecutive blocks of whole
    rows of the grid `shape`, each of at most JACOBI_BLOCK points: rows of
    the leading axis when one holds at most a block, else, within each
    index of the axes before it, rows of the first axis whose rows do.
    A block's points are consecutive in C order, from the flat index
    `start`; a column keeps its length 1 along the axes it does not vary
    on."""
    axis = 0
    while math.prod(shape[axis + 1:]) > JACOBI_BLOCK:
        axis += 1
    size = math.prod(shape[axis + 1:])
    step = JACOBI_BLOCK // size
    for outer in itertools.product(*map(range, shape[:axis])):
        first = 0
        for index, length in zip(outer, shape):
            first = first * length + index
        for low in range(0, shape[axis], step):
            rows = slice(low, min(low + step, shape[axis]))
            block = [[col[tuple(i if n > 1 else 0 for i, n in zip(outer, col.shape))
                          + (rows if col.shape[axis] > 1 else slice(None),)]
                      for col in row] for row in columns]
            yield ((first * shape[axis] + low) * size, block,
                   (rows.stop - low,) + tuple(shape[axis + 1:]))


def _rank_deficient(jac, tol_rank: float, shape: tuple | None = None) -> np.ndarray:
    """The witness mask of the rank certificate over the flat points of
    the grid `shape`: sigma_m <= tol_rank * max(sigma_1, 1), with both
    from _extreme_singular_values.

    jac holds the columns jac[i][j], each broadcastable to `shape` (by
    default their broadcast shape, so a dense (m, k, n) array is read as
    columns on (n,)). The grid is screened in the blocks of _row_blocks:
    _gram_clears runs on each block's columns, and only the points it
    leaves undecided are gathered for the Jacobi; the points it clears are
    not witnesses. With one variable the Jacobi has no row pair to rotate
    and costs less than the screen, so every point of the block is
    gathered for it."""
    if shape is None:
        shape = np.broadcast_shapes(*(col.shape for row in jac for col in row))
    mask = np.zeros(math.prod(shape), dtype=bool)
    for start, block, block_shape in _row_blocks(jac, shape):
        points = None
        if len(jac) > 1:
            points = np.flatnonzero(~np.broadcast_to(_gram_clears(block, tol_rank),
                                                     block_shape))
            if not points.size:
                continue
        top, bottom = _extreme_singular_values(_gather(block, block_shape, points))
        where = slice(start, start + top.size) if points is None else start + points
        mask[where] = bottom <= tol_rank * np.maximum(top, 1.0)
    return mask


def tangent_rank_check(gens, box, grid: int, tol_rank: float = 1e-8, *,
                       sample: _Sample | None = None) -> list | None:
    """Sample points, sorted, where the generator Jacobian has rank below
    the variable count, i.e. some tangent direction kills every generator.

    A point is a witness when its smallest singular value is at most
    tol_rank * max(largest, 1); with fewer generators than variables every
    point is one. First derivatives that are not finite are refused with
    DomainError, a negative or non-finite tol_rank with ValueError.
    `sample` is the evaluated grid envelope_verdict shares with
    separation_check: given it, the points are left on it as a point-index
    array under witnesses["tangent"] and None is returned; without it the
    grid is built here and the list returned.
    """
    tol_rank = tolerance("tol_rank", tol_rank)
    shared = sample is not None
    if not shared:
        sample = _sample(gens, box, grid, values=False)
    points = np.flatnonzero(_rank_deficient(sample.columns, tol_rank, sample.shape))
    if points.size:
        points = points[np.argsort(sample.codes[points], kind="stable")]
    sample.witnesses["tangent"] = points
    return None if shared else _point_tuples(sample.grids, points)


class JetSurjectivity:
    """Outcome of the finite jet-spanning certificate."""

    def __init__(self, ok: bool, achieved: int, expected: int, by_length: list[int]):
        self.ok = ok
        self.achieved = achieved
        self.expected = expected
        self.by_length = by_length

    @property
    def stalled(self) -> bool:
        """True when raising the word length stopped adding jet directions."""
        return len(self.by_length) >= 2 and self.by_length[-1] == self.by_length[-2]

    def __repr__(self):
        return (f"<JetSurjectivity ok={self.ok} achieved={self.achieved}"
                f"/{self.expected} by_length={self.by_length}>")


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2, or lo / 2 + hi / 2 where the sum overflows."""
    mid = (lo + hi) / 2.0
    return mid if math.isfinite(mid) else lo / 2.0 + hi / 2.0


def jet_surjectivity_check(gens, s, n: int, wordlen: int | None = None) -> JetSurjectivity:
    """Do products of at most `wordlen` generators span the order-n jets at s?

    Polynomial generators only; others are refused since their jets are
    not finitely computable here. The achieved dimension is monotone in
    the word length (default n, at least 1).
    """
    s = np.asarray(s, dtype=float).ravel()
    mvars = len(s)
    degs = [g.degree() for g in gens]
    if any(d is None for d in degs):
        raise DomainError("jet surjectivity requires polynomial generators")
    length = max(n, 1) if wordlen is None else wordlen
    if length < 1:
        raise ValueError("word length must be >= 1")
    bound = max(n, 1, length * max(degs, default=1))
    _check_reach(s, bound)
    ambient = truncated_poly(mvars, bound)
    polys = [g.to_poly(ambient) for g in gens]
    expected = mi_count(mvars, n)
    # the jet space's dimension is structural; the rank of the raw Taylor
    # rows below is not scale-aware, so far points where those rows lose
    # rank are refused rather than judged
    if la.rank(_derivative_rows(ambient, s, n)) != expected:
        raise NumericError("jet quotient and vanishing subspace dimensions "
                           "do not complement each other")
    space = jet_space(ambient, s, n)

    rows = []
    by_length = []
    for r in range(length + 1):
        for combo in itertools.combinations_with_replacement(range(len(polys)), r):
            word = ambient.unit.copy()
            for idx in combo:
                word = ambient.mul_coords(word, polys[idx])
            rows.append(space.project_taylor(word).coords)
        by_length.append(la.rank(np.array(rows)))
    achieved = by_length[-1]
    return JetSurjectivity(achieved == expected, achieved, expected, by_length)


_SEPARATION_DETAIL = "generator value tuples coincide"
_TANGENT_DETAIL = "Jacobian rank below the variable count"


class Reasons:
    """The reasons of a FAIL verdict: separation pairs and tangent points as
    axis-index arrays into the sample axes, then the jet entries as dicts.

    `axes` holds the m coordinate arrays, `pairs` the (2, m, P) axis
    indices of each pair's smaller and larger point, and `points` the
    (m, T) axis indices of the tangent points. to_list() builds the public
    list of reason dicts once; _json_pieces writes the pieces of its JSON
    text at any depth straight from the arrays, with the coordinate texts
    made once.
    """

    def __init__(self, axes: list[np.ndarray], pairs: np.ndarray, points: np.ndarray,
                 entries: list[dict]):
        self.axes, self.pairs, self.points, self.entries = axes, pairs, points, entries
        self._list = self._texts = None

    def __len__(self):
        return self.pairs.shape[2] + self.points.shape[1] + len(self.entries)

    def _coords(self, index: np.ndarray) -> list[list[float]]:
        return np.stack([ax[i] for ax, i in zip(self.axes, index)], axis=1).tolist()

    def to_list(self) -> list[dict]:
        if self._list is None:
            self._list = (
                [{"condition": "separation", "witness": [pa, pb],
                  "detail": _SEPARATION_DETAIL}
                 for pa, pb in zip(self._coords(self.pairs[0]), self._coords(self.pairs[1]))]
                + [{"condition": "tangent", "witness": pt, "detail": _TANGENT_DETAIL}
                   for pt in self._coords(self.points)]
                + self.entries)
        return self._list

    def _json_pieces(self, level: int, write, out: list[str]) -> None:
        """Appends to out the pieces of the text json.dumps(self.to_list(),
        sort_keys=True, indent=2) writes at nesting depth `level`;
        `write(entry, depth, out)` appends those of a jet entry.

        The witness entries of one condition are the rows of one table: the
        constant pieces of that depth's template interleaved with the
        float.__repr__ texts of the coordinates (finite, see _grid_axes),
        which are made once per object.
        """
        at = level + 1
        d1, d2, d3 = ("\n" + "  " * (at + k) for k in (1, 2, 3))
        sep = ",\n" + "  " * at
        m = len(self.axes)
        head = "{" + d1 + '"condition": "%s",' + d1 + '"detail": "%s",' + d1 + '"witness": [' + d2
        end = d1 + "]\n" + "  " * at + "}" + sep
        if self._texts is None:
            self._texts = self._axis_texts([self.pairs[0], self.pairs[1], self.points])
        first, second, points = self._texts
        within, between = ["," + d3] * (m - 1), [d2 + "]," + d2 + "[" + d3]
        out.append("[\n" + "  " * at)
        out += _template_rows(
            [head % ("separation", _SEPARATION_DETAIL) + "[" + d3] + within + between
            + within + [d2 + "]" + end], first + second)
        out += _template_rows(
            [head % ("tangent", _TANGENT_DETAIL)] + ["," + d2] * (m - 1) + [end], points)
        for entry in self.entries:
            write(entry, at, out)
            out.append(sep)
        # the last entry is followed by the closing bracket, not a separator
        out[-1] = out[-1][:-len(sep)] + "\n" + "  " * level + "]"

    def _axis_texts(self, indices: list[np.ndarray]) -> list[list[list[str]]]:
        """For each (m, n) axis-index array, the float.__repr__ texts of the
        coordinates it names as m lists, one repr per distinct coordinate."""
        out = [[] for _ in indices]
        for axis, ax in enumerate(self.axes):
            named = np.zeros(len(ax), dtype=bool)
            for ix in indices:
                named[ix[axis]] = True
            used = np.flatnonzero(named)
            texts = np.empty(len(ax), dtype=object)
            texts[used] = list(map(float.__repr__, ax[used].tolist()))
            for lists, ix in zip(out, indices):
                lists.append(texts[ix[axis]].tolist())
        return out


def _template_rows(consts: list[str], columns: list[list[str]]) -> list[str]:
    """consts[0], columns[0][r], consts[1], ..., columns[-1][r], consts[-1]
    for every row r, flattened row by row into one list: the constant row
    repeated, with each column written into its stride."""
    width = 2 * len(columns) + 1
    row = [None] * width
    row[0::2] = consts
    parts = row * len(columns[0])
    for j, column in enumerate(columns):
        parts[2 * j + 1::width] = column
    return parts


class Verdict:
    """Classifier outcome with machine-checkable witnesses.

    PASS means every requested condition was verified on the sample grid;
    it is a certificate about the sample, not a global proof. FAIL always
    carries at least one witness. `reasons` may be given as a Reasons,
    whose list of dicts is built on first access.
    """

    def __init__(self, status: str, reasons: list[dict] | Reasons, meta: dict):
        assert status in ("PASS", "FAIL", "INCONCLUSIVE")
        self.status = status
        self._reasons = reasons
        self.meta = meta

    @property
    def reasons(self) -> list[dict]:
        if isinstance(self._reasons, Reasons):
            return self._reasons.to_list()
        return self._reasons

    def to_dict(self) -> dict:
        return {"status": self.status, "reasons": self.reasons, "meta": self.meta}

    def __repr__(self):
        return f"<Verdict {self.status} reasons={len(self._reasons)}>"


def envelope_verdict(gens, box, grid: int, options: dict | None = None) -> Verdict:
    """Runs the sampled certificates and aggregates them.

    options: tol_sep, tol_rank override tolerances; jet_order requests the
    polynomial jet certificate (with jet_wordlen and jet_points, default
    point = box center). Jet non-surjectivity at a stalled word length is
    a FAIL; still-growing spans give INCONCLUSIVE. Options that are not an
    object, an unknown option, an option off its rule (see
    _input.envelope_options) and a grid that is not an integer are refused
    with ValueError before anything is sampled.
    """
    options = envelope_options({} if options is None else options, len(box))
    tol_sep = options.get("tol_sep", 1e-9)
    tol_rank = options.get("tol_rank", 1e-8)
    grid = integer("grid", grid)
    jet_order = options.get("jet_order")
    wordlen = options.get("jet_wordlen")
    points = options.get("jet_points")
    sample = _sample(gens, box, grid)
    # Both checks run under their public names and, given the sample,
    # leave their ordered witness indices on it without building the point
    # lists. The rank certificate goes first, so the derivative columns
    # are freed before the separation check allocates.
    tangent_rank_check(gens, box, grid, tol_rank, sample=sample)
    sample.columns = None
    separation_check(gens, box, grid, tol_sep, sample=sample)
    shape = (int(grid),) * len(sample.axes)
    separated = np.stack(np.unravel_index(sample.witnesses["separation"], shape), axis=1)
    critical = np.stack(np.unravel_index(sample.witnesses["tangent"], shape))

    failed, inconclusive = [], []
    polynomial = all(g.degree() is not None for g in gens)
    if jet_order is not None and polynomial:
        if points is None:
            points = [tuple(_midpoint(float(lo), float(hi)) for lo, hi in box)]
        for pt in points:
            res = jet_surjectivity_check(gens, pt, jet_order, wordlen)
            if res.ok:
                continue
            entry = {"condition": "jet", "witness": list(pt),
                     "detail": f"jet span {res.achieved} of {res.expected}, "
                               f"growth {res.by_length}"}
            (failed if res.stalled else inconclusive).append(entry)

    meta = {"box": [[float(lo), float(hi)] for lo, hi in box], "grid": int(grid),
            "note": "PASS = conditions verified on sample"}
    if separated.size or critical.size or failed:
        axes = [ax.ravel() for ax in sample.axes]
        return Verdict("FAIL", Reasons(axes, separated, critical, failed + inconclusive), meta)
    if inconclusive:
        return Verdict("INCONCLUSIVE", inconclusive, meta)
    return Verdict("PASS", [], meta)
