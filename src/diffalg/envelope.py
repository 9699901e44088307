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

import itertools

import numpy as np

from . import _linalg as la
from .algebra import PolyAlgebra, truncated_poly
from .errors import DomainError
from .jets import jet_space
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

    def diff(self, i: int) -> "Expr":
        raise NotImplementedError

    def eval(self, grids: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

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


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def diff(self, i):
        return Const(0.0)

    def eval(self, grids):
        return np.full_like(grids[0], self.value, dtype=float)

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

    def diff(self, i):
        return Const(1.0 if i == self.index else 0.0)

    def eval(self, grids):
        if self.index >= len(grids):
            raise ValueError(f"variable x{self.index} outside the grid dimension")
        return grids[self.index]

    def degree(self):
        return 1

    def to_poly(self, algebra):
        if self.index >= algebra.mvars:
            raise DomainError("variable index outside the algebra's variables")
        coords = np.zeros(algebra.dim, dtype=complex)
        unit = tuple(1 if t == self.index else 0 for t in range(algebra.mvars))
        coords[algebra.exp_index[unit]] = 1.0
        return coords

    def to_sexpr(self):
        return f"(var {self.index})"


class Sum(Expr):
    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def diff(self, i):
        return Sum(self.a.diff(i), self.b.diff(i))

    def eval(self, grids):
        return self.a.eval(grids) + self.b.eval(grids)

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

    def diff(self, i):
        return Sum(Prod(self.a.diff(i), self.b), Prod(self.a, self.b.diff(i)))

    def eval(self, grids):
        return self.a.eval(grids) * self.b.eval(grids)

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

    def diff(self, i):
        inner = self.base.diff(i)
        if self.power == 1:
            return inner
        lowered = Pow(self.base, self.power - 1) if self.power > 2 else self.base
        return Prod(Const(self.power), Prod(lowered, inner))

    def eval(self, grids):
        return self.base.eval(grids) ** self.power

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


class Sin(Expr):
    def __init__(self, a: Expr):
        self.a = a

    def diff(self, i):
        return Prod(Cos(self.a), self.a.diff(i))

    def eval(self, grids):
        return np.sin(self.a.eval(grids))

    def to_sexpr(self):
        return f"(sin {self.a.to_sexpr()})"


class Cos(Expr):
    def __init__(self, a: Expr):
        self.a = a

    def diff(self, i):
        return Prod(Const(-1.0), Prod(Sin(self.a), self.a.diff(i)))

    def eval(self, grids):
        return np.cos(self.a.eval(grids))

    def to_sexpr(self):
        return f"(cos {self.a.to_sexpr()})"


class Exp(Expr):
    def __init__(self, a: Expr):
        self.a = a

    def diff(self, i):
        return Prod(Exp(self.a), self.a.diff(i))

    def eval(self, grids):
        return np.exp(self.a.eval(grids))

    def to_sexpr(self):
        return f"(exp {self.a.to_sexpr()})"


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

    def diff(self, i):
        du = self.arg.diff(i)
        grown = Sum(Prod(Const(2.0), FlatBumpTimes(self.arg, self.power + 3)),
                    Prod(Const(-float(self.power)),
                         FlatBumpTimes(self.arg, self.power + 1)))
        return Prod(grown, du)

    def eval(self, grids):
        t = self.arg.eval(grids)
        safe = np.where(t == 0.0, 1.0, t)
        val = np.exp(-1.0 / safe ** 2)
        if self.power:
            val = val / safe ** self.power
        return np.where(t == 0.0, 0.0, val)

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


def _grid_points(box, grid: int) -> list[np.ndarray]:
    box = [(float(lo), float(hi)) for lo, hi in box]
    if grid < 2:
        raise ValueError("need at least 2 grid points per axis")
    samples = grid ** len(box)
    if samples > MAX_SAMPLES:
        raise DomainError(f"grid {grid} on a {len(box)}-dimensional box gives "
                          f"{samples} sample points; at most {MAX_SAMPLES}")
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [m.ravel() for m in mesh]


def _key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point indices sorted by key row, and the length of each run of equal
    rows. Within a run the indices ascend (lexsort is stable)."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    return order, np.diff(np.r_[starts, len(order)])


def _run_pairs(order: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every pair (a, b) with a < b inside one run, as a 2 x P index array."""
    run_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    later = np.repeat(lengths, lengths) - (np.arange(len(order)) - run_start) - 1
    first = np.repeat(np.arange(len(order)), later)
    step = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return np.stack([order[first], order[first + 1 + step]])


def separation_check(gens, box, grid: int, tol: float = 1e-9) -> list:
    """Unordered grid-point pairs whose generator value tuples coincide.

    Candidate pairs are found by grouping value tuples rounded at 1e-7
    under two offset schemes (so near-boundary rounding cannot split a
    coinciding pair), then confirmed at the exact tolerance. Empty result
    means no violation was found on this sample. More than
    MAX_SEPARATION_CANDIDATES candidate pairs (a generator constant on
    much of a fine grid) are refused with DomainError.
    """
    grids = _grid_points(box, grid)
    values = np.stack([np.asarray(g.eval(grids), dtype=float) for g in gens], axis=1)
    npts = values.shape[0]
    quantum = 1e-7
    runs = [_key_runs(np.round(values / quantum + offset).astype(np.int64))
            for offset in (0.0, 0.5)]
    total = sum(int((lengths * (lengths - 1) // 2).sum()) for _, lengths in runs)
    if total > MAX_SEPARATION_CANDIDATES:
        raise DomainError(f"separation check has {total} candidate pairs; "
                          f"at most {MAX_SEPARATION_CANDIDATES}")
    codes = np.unique(np.concatenate([pa * npts + pb for pa, pb in
                                      (_run_pairs(*run) for run in runs)]))
    a, b = codes // npts, codes % npts
    keep = np.abs(values[a] - values[b]).max(axis=1) <= tol
    points = np.stack(grids, axis=1)
    pairs = [tuple(sorted((tuple(pa), tuple(pb))))
             for pa, pb in zip(points[a[keep]].tolist(), points[b[keep]].tolist())]
    return sorted(set(pairs))


def tangent_rank_check(gens, box, grid: int, tol_rank: float = 1e-8) -> list:
    """Sample points where the generator Jacobian has rank below the
    variable count, i.e. some tangent direction kills every generator."""
    grids = _grid_points(box, grid)
    m = len(grids)
    jac = np.empty((len(grids[0]), m, len(gens)), dtype=float)
    for j, g in enumerate(gens):
        for i in range(m):
            jac[:, i, j] = np.asarray(g.diff(i).eval(grids), dtype=float)
    sing = np.linalg.svd(jac, compute_uv=False)
    top = np.maximum(sing[:, 0], 1.0)
    degenerate = sing[:, m - 1] <= tol_rank * top
    points = [tuple(float(g[idx]) for g in grids)
              for idx in np.nonzero(degenerate)[0]]
    return sorted(points)


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


def jet_surjectivity_check(gens, s, n: int, wordlen: int | None = None) -> JetSurjectivity:
    """Do products of at most `wordlen` generators span the order-n jets at s?

    Polynomial generators only; others are refused since their jets are
    not finitely computable here. The achieved dimension is monotone in
    the word length (default n).
    """
    s = np.asarray(s, dtype=float).ravel()
    mvars = len(s)
    degs = [g.degree() for g in gens]
    if any(d is None for d in degs):
        raise DomainError("jet surjectivity requires polynomial generators")
    length = n if wordlen is None else wordlen
    if length < 1:
        raise ValueError("word length must be >= 1")
    bound = max(n, 1, length * max(degs, default=1))
    ambient = truncated_poly(mvars, bound)
    polys = [g.to_poly(ambient) for g in gens]
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
    expected = mi_count(mvars, n)
    achieved = by_length[-1]
    return JetSurjectivity(achieved == expected, achieved, expected, by_length)


class Verdict:
    """Classifier outcome with machine-checkable witnesses.

    PASS means every requested condition was verified on the sample grid;
    it is a certificate about the sample, not a global proof. FAIL always
    carries at least one witness.
    """

    def __init__(self, status: str, reasons: list[dict], meta: dict):
        assert status in ("PASS", "FAIL", "INCONCLUSIVE")
        self.status = status
        self.reasons = reasons
        self.meta = meta

    def to_dict(self) -> dict:
        return {"status": self.status, "reasons": self.reasons, "meta": self.meta}

    def __repr__(self):
        return f"<Verdict {self.status} reasons={len(self.reasons)}>"


def envelope_verdict(gens, box, grid: int, options: dict | None = None) -> Verdict:
    """Runs the sampled certificates and aggregates them.

    options: tol_sep, tol_rank override tolerances; jet_order requests the
    polynomial jet certificate (with jet_wordlen and jet_points, default
    point = box center). Jet non-surjectivity at a stalled word length is
    a FAIL; still-growing spans give INCONCLUSIVE.
    """
    options = dict(options or {})
    tol_sep = float(options.get("tol_sep", 1e-9))
    tol_rank = float(options.get("tol_rank", 1e-8))
    reasons = []
    for pa, pb in separation_check(gens, box, grid, tol_sep):
        reasons.append({"condition": "separation", "witness": [list(pa), list(pb)],
                        "detail": "generator value tuples coincide"})
    for pt in tangent_rank_check(gens, box, grid, tol_rank):
        reasons.append({"condition": "tangent", "witness": list(pt),
                        "detail": "Jacobian rank below the variable count"})

    inconclusive = []
    jet_order = options.get("jet_order")
    polynomial = all(g.degree() is not None for g in gens)
    if jet_order is not None and polynomial:
        wordlen = options.get("jet_wordlen")
        points = options.get("jet_points")
        if points is None:
            points = [tuple((lo + hi) / 2.0 for lo, hi in box)]
        for pt in points:
            res = jet_surjectivity_check(gens, pt, int(jet_order), wordlen)
            if res.ok:
                continue
            entry = {"condition": "jet", "witness": list(pt),
                     "detail": f"jet span {res.achieved} of {res.expected}, "
                               f"growth {res.by_length}"}
            if res.stalled:
                reasons.append(entry)
            else:
                inconclusive.append(entry)

    meta = {"box": [[float(lo), float(hi)] for lo, hi in box], "grid": int(grid),
            "note": "PASS = conditions verified on sample"}
    if reasons:
        return Verdict("FAIL", reasons + inconclusive, meta)
    if inconclusive:
        return Verdict("INCONCLUSIVE", inconclusive, meta)
    return Verdict("PASS", [], meta)
