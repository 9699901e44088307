"""Seeded request corpora for the benchmark, with expected outcomes.

Uses numpy and the standard library only and never imports diffalg, so a
seed gives byte-identical inputs on any commit of the program. Every
request carries the outcome that follows from how its input was built:
exit code, verdicts, dimensions, operator orders, jet values and envelope
witnesses. The program's report is checked against it after each call.

A corpus is one pass: a fixed list of requests sent one after another by
a single caller. Request classes keep the same counts for every seed and
only their numeric content and their order depend on the seed, so the
cost of a pass does not move with the seed.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

TAU = 6.283185307179586


# --- helpers mirroring the documented input formats ----------------------


def exponents(m: int, n: int) -> list[tuple[int, ...]]:
    """Multi-indices of length m and order <= n in the documented basis
    order: grades ascend, and within a grade the lexicographically larger
    index comes first."""
    def comps(total, parts):
        if parts == 1:
            return [(total,)]
        return [(first,) + rest for first in range(total, -1, -1)
                for rest in comps(total - first, parts - 1)]
    return [k for total in range(n + 1) for k in comps(total, m)]


def cjson(a) -> list:
    """Complex array as nested [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [cjson(x) for x in a]


def unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dyadic_box(lo_steps: int, hi_steps: int, p: int):
    """Interval [-lo_steps h, hi_steps h] with h = 2^-p: every grid point of
    a grid with lo_steps + hi_steps + 1 points is an exact dyadic number and
    0.0 lies on the grid."""
    h = 2.0 ** -p
    return [-lo_steps * h, hi_steps * h], lo_steps + hi_steps + 1


def grid_axis(box, grid: int) -> np.ndarray:
    return np.linspace(float(box[0]), float(box[1]), grid)


# --- expectations -----------------------------------------------------------
# An expectation is a list of checks; see check_report for their meaning.


def _flat_bump(t: np.ndarray, power: int = 0) -> np.ndarray:
    safe = np.where(t == 0.0, 1.0, t)
    val = np.exp(-1.0 / safe ** 2)
    if power:
        val = val / safe ** power
    return np.where(t == 0.0, 0.0, val)


def _pairs_within(values: np.ndarray, pts: np.ndarray, tol: float) -> list:
    """All unordered point pairs whose value tuples differ by at most tol,
    by brute force over every pair."""
    diff = np.abs(values[:, None, :] - values[None, :, :]).max(axis=2)
    a, b = np.nonzero(np.triu(diff <= tol, k=1))
    pairs = (sorted(([float(x) for x in pts[i]], [float(x) for x in pts[j]]))
             for i, j in zip(a, b))
    return sorted(pairs)


# --- request classes ----------------------------------------------------------
# Each class is a function of the rng returning (argv, input document or
# None, expectation).


def _algebra_check(name: str, dim: int, commutative: bool):
    def build(rng):
        return (["algebra-check", name], None,
                [["exit", 0], ["eq", "results.dim", dim],
                 ["eq", "results.axioms_ok", True],
                 ["eq", "results.commutative", commutative],
                 ["eq", "violations", []]])
    return build


def _ztower_star(n: int):
    """func:n -> matrix:n sending the idempotents to the rank-one projections
    of a seeded unitary basis: a *-homomorphism whose tower is constant at
    dimension n from level one on."""
    def build(rng):
        u = unitary(rng, n)
        cols = [np.outer(u[:, i], u[:, i].conj()).reshape(-1) for i in range(n)]
        doc = {"source": f"func:{n}", "target": f"matrix:{n}",
               "phi": cjson(np.column_stack(cols))}
        return (["ztower", None], doc,
                [["exit", 0], ["eq", "results.involutive", True],
                 ["eq", "results.dims", [0, n, n]], ["eq", "results.z1_dim", n],
                 ["eq", "results.z2_dim", n], ["eq", "results.stabilized", True],
                 ["eq", "results.mutual_containment", [True, True]],
                 ["le", "results.involution_residual", 1e-9],
                 ["eq", "violations", []]])
    return build


def _ztower_nonstar(rng):
    """poly:1:1 -> matrix:2 sending x to a unitary conjugate of E12: not
    involutive, so the growing tower [0, 2, 3] is data and exits 0."""
    u = unitary(rng, 2)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    phi = np.column_stack([np.eye(2).reshape(-1), (u @ e12 @ u.conj().T).reshape(-1)])
    doc = {"source": "poly:1:1", "target": "matrix:2", "phi": cjson(phi)}
    return (["ztower", None], doc,
            [["exit", 0], ["eq", "results.involutive", False],
             ["eq", "results.dims", [0, 2, 3]], ["eq", "results.stabilized", False],
             ["eq", "violations", []]])


def _difforder(m: int, degree: int):
    """A seeded real combination of the partial derivatives, poly:m:D ->
    poly:m:(D-1) with the truncation action: order exactly 1."""
    def build(rng):
        src, tgt = exponents(m, degree), exponents(m, degree - 1)
        where = {k: i for i, k in enumerate(tgt)}
        coef = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        op = np.zeros((len(tgt), len(src)))
        for j, alpha in enumerate(src):
            for i in range(m):
                if alpha[i]:
                    down = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                    op[where[down], j] += coef[i] * alpha[i]
        doc = {"source": f"poly:{m}:{degree}", "target": f"poly:{m}:{degree - 1}",
               "operator": op.tolist(), "max_order": 3}
        return (["difforder", None], doc,
                [["exit", 0], ["eq", "results.order", 1],
                 ["eq", "results.max_order", 3],
                 ["eq", "results.generator_count", len(src)]])
    return build


def _tangent_origin(m: int, degree: int):
    """Evaluation at the origin is the only character of a truncated
    polynomial algebra; tangent and cotangent spaces there have dim m."""
    def build(rng):
        ch = [1.0] + [0.0] * (len(exponents(m, degree)) - 1)
        doc = {"algebra": f"poly:{m}:{degree}", "character": ch}
        return (["tangent", None], doc,
                [["exit", 0], ["eq", "results.tangent_dim", m],
                 ["eq", "results.cotangent_dim", m],
                 ["eq", "results.dims_equal", True],
                 ["eq", "results.gram_invertible", True],
                 ["eq", "violations", []]])
    return build


def _tangent_noncharacter(m: int, degree: int):
    """Evaluation at a nonzero point is not multiplicative once products
    are truncated, so the request is a domain error (exit 3)."""
    def build(rng):
        point = rng.uniform(0.3, 0.9, size=m) * rng.choice([-1.0, 1.0], size=m)
        doc = {"algebra": f"poly:{m}:{degree}", "point": point.tolist()}
        return (["tangent", None], doc,
                [["exit", 3], ["eq", "results", {}],
                 ["eq", "violations.0.type", "domain"]])
    return build


def _block_algebra(blocks) -> dict:
    """Structure dict of a direct sum of full matrix blocks M_n (n >= 1)."""
    d = sum(n * n for n in blocks)
    c = np.zeros((d, d, d))
    inv = np.zeros((d, d))
    unit = np.zeros(d)
    off = 0
    for n in blocks:
        for i in range(n):
            unit[off + i * n + i] = 1.0
            for j in range(n):
                inv[off + j * n + i, off + i * n + j] = 1.0
                for k in range(n):
                    c[off + i * n + j, off + j * n + k, off + i * n + k] = 1.0
        off += n * n
    return {"dim": d, "structure": cjson(c), "involution": cjson(inv),
            "unit": cjson(unit), "labels": None}


def _dauns_hofmann(blocks):
    """Direct sum of matrix blocks in seeded order: one character and one
    fiber per block, fiber dimension n^2, section map an isomorphism."""
    def build(rng):
        order = [blocks[i] for i in rng.permutation(len(blocks))]
        d = sum(n * n for n in order)
        doc = {"algebra": _block_algebra(order)}
        return (["dauns-hofmann", None], doc,
                [["exit", 0], ["eq", "results.dim", d],
                 ["eq", "results.central_dim", len(order)],
                 ["eq", "results.characters", len(order)],
                 ["sorted_eq", "results.fiber_dims", [n * n for n in order]],
                 ["eq", "results.section_rank", d],
                 ["eq", "results.bijective", True], ["eq", "results.ok", True]])
    return build


def _fourier(factors):
    """Group algebra of Z_n1 x ...: |G| characters, all extracted from the
    structure tensor and matched to the dual rows when |G| <= 64."""
    def build(rng):
        spec = "x".join(f"Z{n}" for n in factors)
        d = math.prod(factors)
        return (["fourier", spec], None,
                [["exit", 0], ["eq", "results.order", d],
                 ["eq", "results.factors", list(factors)],
                 ["eq", "results.dual_rows_are_characters", True],
                 ["eq", "results.extracted_count", d],
                 ["eq", "results.extracted_matched", True],
                 ["eq", "results.ok", True]])
    return build


def _dersys(m: int, order: int, degree: int, broken: bool):
    """Taylor system D_k = k! t^|k| x^k-coefficient on poly:m:degree read in
    point-centred monomials, rescaled by a seeded t (x -> t x keeps the
    binomial Leibniz rule). The broken variant adds delta to D_(1,0..)
    on the x1^2 column, which breaks Leibniz first at index (1,0,..) on
    the basis pair (x1, x1) with residual exactly delta."""
    def build(rng):
        src = exponents(m, degree)
        where = {k: i for i, k in enumerate(src)}
        t = rng.uniform(0.5, 2.0)
        ops = []
        for k in exponents(m, order):
            row = np.zeros(len(src))
            row[where[k]] = math.prod(math.factorial(x) for x in k) * t ** sum(k)
            ops.append((k, row))
        doc = {"m": m, "N": order, "source": f"poly:{m}:{degree}",
               "target": "func:1"}
        if not broken:
            doc["ops"] = [{"index": list(k), "matrix": [row.tolist()]} for k, row in ops]
            return (["dersys-verify", None], doc,
                    [["exit", 0], ["eq", "results.ok", True],
                     ["eq", "results.m", m], ["eq", "results.N", order],
                     ["eq", "results.max_residual", 0.0],
                     ["eq", "results.packs_to_homomorphism", True],
                     ["eq", "violations", []]])
        delta = rng.uniform(0.25, 0.75)
        e1 = (1,) + (0,) * (m - 1)
        sq = (2,) + (0,) * (m - 1)
        for k, row in ops:
            if k == e1:
                row[where[sq]] += delta
        doc["ops"] = [{"index": list(k), "matrix": [row.tolist()]} for k, row in ops]
        x1 = where[e1]
        return (["dersys-verify", None], doc,
                [["exit", 3], ["eq", "results.ok", False],
                 ["eq", "violations.0.axiom", "leibniz"],
                 ["eq", "violations.0.index", list(e1)],
                 ["eq", "violations.0.pair", [x1, x1]],
                 ["close", "violations.0.residual", delta, 1e-9]])
    return build


def _jet(m: int, order: int):
    """A seeded dense polynomial of degree order + 2 projected to its
    order-n jet at a seeded point. The expected jet is the Taylor data
    d^k f(s) / k!, computed here directly from the coefficients."""
    def build(rng):
        degree = order + 2
        terms = exponents(m, degree)
        coeffs = rng.standard_normal(len(terms))
        s = rng.uniform(-1.0, 1.0, size=m)
        jet = []
        for k in exponents(m, order):
            total = 0.0
            for alpha, c in zip(terms, coeffs):
                if all(a >= b for a, b in zip(alpha, k)):
                    total += c * math.prod(math.comb(a, b) * x ** (a - b)
                                           for a, b, x in zip(alpha, k, s))
            jet.append([total, 0.0])
        doc = {"m": m, "order": order, "point": s.tolist(),
               "f": [{"index": list(k), "coeff": float(c)} for k, c in zip(terms, coeffs)]}
        scale = 1.0 + float(np.abs(coeffs).max())
        dim = math.comb(m + order, m)
        return (["jet", None], doc,
                [["exit", 0], ["eq", "results.dim", dim],
                 ["eq", "results.expected_dim", dim],
                 ["le", "results.routes_residual", 1e-8 * scale],
                 ["allclose", "results.jet", jet, 1e-8 * scale * 10.0 ** order]])
    return build


def _selftest(instances: int):
    def build(rng):
        return (["selftest", "--instances", str(instances)], None,
                [["exit", 0], ["eq", "results.ok", True], ["eq", "violations", []]])
    return build


def _envelope_doc(m, gens, box, grid, options=None):
    doc = {"m": m, "generators": gens, "box": box, "grid": grid}
    if options:
        doc["options"] = options
    return doc


def _env_poly_pass(grid: int):
    """a x + b x^3 with a > 0, b >= 0 is strictly increasing with a
    nonvanishing derivative: PASS with no reasons."""
    def build(rng):
        a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0))
        gen = f"(+ (* (const {a!r}) (var 0)) (* (const {b!r}) (pow (var 0) 3)))"
        lo = rng.integers(grid // 4, grid // 2)
        box, grid_n = dyadic_box(int(lo), grid - 1 - int(lo), 9)
        doc = _envelope_doc(1, [gen], [box], grid_n)
        return (["envelope", None], doc,
                [["exit", 0], ["eq", "results.status", "PASS"],
                 ["eq", "results.reasons", []], ["eq", "results.meta.grid", grid]])
    return build


def _env_square_cube(grid: int):
    """(x^2, x^3) separates points but its Jacobian vanishes at 0, which is
    on the dyadic grid: FAIL with the single tangent witness [0.0]."""
    def build(rng):
        lo = rng.integers(grid // 4, 3 * grid // 4)
        box, grid_n = dyadic_box(int(lo), grid - 1 - int(lo), 9)
        doc = _envelope_doc(1, ["(pow (var 0) 2)", "(pow (var 0) 3)"], [box], grid_n)
        return (["envelope", None], doc,
                [["exit", 3], ["eq", "results.status", "FAIL"],
                 ["witnesses", "tangent", [[0.0]]],
                 ["witnesses", "separation", []]])
    return build


def _env_periodic(grid: int):
    """(sin 2 pi x, cos 2 pi x) on a dyadic box wider than one period:
    every pair of grid points a whole number of periods apart is a
    separation witness, and nothing else is."""
    def build(rng):
        p = 8
        lo = int(rng.integers(0, grid // 2))
        box, grid_n = dyadic_box(lo, grid - 1 - lo, p)
        xs = grid_axis(box, grid_n)
        per = 2 ** p
        pairs = [[[float(xs[i])], [float(xs[j])]]
                 for i in range(grid_n) for j in range(i + per, grid_n, per)]
        gens = [f"(sin (* (const {TAU!r}) (var 0)))", f"(cos (* (const {TAU!r}) (var 0)))"]
        doc = _envelope_doc(1, gens, [box], grid_n)
        return (["envelope", None], doc,
                [["exit", 3], ["eq", "results.status", "FAIL"],
                 ["witnesses", "separation", pairs], ["witnesses", "tangent", []]])
    return build


def _env_flat_bump(grid: int):
    """The flat bump exp(-1/x^2) on a symmetric dyadic box is even and flat
    near 0: separation witnesses are every pair whose values agree within
    1e-9 (quadratic in the grid), tangent witnesses every point with
    |f'| <= 1e-8. Both sets are computed here by brute force."""
    def build(rng):
        half = (grid - 1) // 2
        box, grid_n = dyadic_box(half, half, 8)
        xs = grid_axis(box, grid_n)
        vals = _flat_bump(xs)
        seps = _pairs_within(vals[:, None], xs[:, None], 1e-9)
        # the same terms, in the same order, as the derivative the
        # expression tree builds, so the 1e-8 cut falls on the same points
        deriv = np.abs(2.0 * _flat_bump(xs, 3) + (-0.0) * _flat_bump(xs, 1))
        tangent = [[float(x)] for x in xs[deriv <= 1e-8 * np.maximum(deriv, 1.0)]]
        doc = _envelope_doc(1, ["(flatbump (var 0))"], [box], grid_n)
        return (["envelope", None], doc,
                [["exit", 3], ["eq", "results.status", "FAIL"],
                 ["witnesses", "separation", seps], ["witnesses", "tangent", tangent]])
    return build


def _env_plane_pass(grid: int):
    """(x, y, xy) on a box: injective with full-rank Jacobian, PASS."""
    def build(rng):
        lo0, lo1 = (int(v) for v in rng.integers(0, grid, size=2))
        b0, _ = dyadic_box(lo0, grid - 1 - lo0, 6)
        b1, _ = dyadic_box(lo1, grid - 1 - lo1, 6)
        doc = _envelope_doc(2, ["(var 0)", "(var 1)", "(* (var 0) (var 1))"],
                            [b0, b1], grid)
        return (["envelope", None], doc,
                [["exit", 0], ["eq", "results.status", "PASS"],
                 ["eq", "results.reasons", []]])
    return build


def _env_plane_fold(grid: int):
    """(x^2, y) folds the plane along x = 0 on a box symmetric in x: the
    separation witnesses are the mirror pairs ((-a, y), (a, y)) and the
    tangent witnesses the points (0, y)."""
    def build(rng):
        half = (grid - 1) // 2
        lo1 = int(rng.integers(0, grid))
        b0, _ = dyadic_box(half, half, 6)
        b1, _ = dyadic_box(lo1, grid - 1 - lo1, 6)
        xs, ys = grid_axis(b0, grid), grid_axis(b1, grid)
        seps = sorted([[float(-a), float(y)], [float(a), float(y)]]
                      for a in xs if a > 0 for y in ys)
        tangent = sorted([0.0, float(y)] for y in ys)
        doc = _envelope_doc(2, ["(pow (var 0) 2)", "(var 1)"], [b0, b1], grid)
        return (["envelope", None], doc,
                [["exit", 3], ["eq", "results.status", "FAIL"],
                 ["witnesses", "separation", seps], ["witnesses", "tangent", tangent]])
    return build


def _env_jet_order(grid: int):
    """x with the jet certificate of order 2 at the box centre: the powers
    of x span every 2-jet, so PASS."""
    def build(rng):
        lo = int(rng.integers(grid // 4, 3 * grid // 4))
        box, grid_n = dyadic_box(lo, grid - 1 - lo, 9)
        doc = _envelope_doc(1, ["(var 0)"], [box], grid_n, {"jet_order": 2})
        return (["envelope", None], doc,
                [["exit", 0], ["eq", "results.status", "PASS"],
                 ["eq", "results.reasons", []]])
    return build


# --- workloads ----------------------------------------------------------------
# Each workload is a list of (class name, class function, count per pass).

WORKLOADS = {
    # A few algebras of dimension 16-64, each worked hard within one
    # request: d^3 contractions, the d^4 associativity intermediate and
    # per-vector least-squares membership dominate. Multi-index work is
    # negligible. Dimension 64 enters only through character extraction
    # (fourier Z8xZ8), because algebra-check at d = 64 needs about 1 GiB.
    # Counts put the median inside the check-matrix4 block and the 90th
    # percentile inside the check-matrix5 block, not on a class boundary.
    "dense-laws": [
        ("ztower-nonstar", _ztower_nonstar, 6),
        ("tangent-noncharacter", _tangent_noncharacter(3, 3), 6),
        ("ztower-star4", _ztower_star(4), 7),
        ("ztower-star5", _ztower_star(5), 7),
        ("check-matrix4", _algebra_check("matrix:4", 16, False), 16),
        ("ztower-star6", _ztower_star(6), 3),
        ("dh-m2m2c", _dauns_hofmann([2, 2, 1]), 2),
        ("dh-m2m3", _dauns_hofmann([2, 3]), 2),
        ("tangent-poly2-4", _tangent_origin(2, 4), 2),
        ("fourier-z4xz4xz2", _fourier((4, 4, 2)), 3),
        ("difforder-poly2-5", _difforder(2, 5), 2),
        ("difforder-poly3-3", _difforder(3, 3), 2),
        ("check-poly2-5", _algebra_check("poly:2:5", 21, True), 3),
        ("check-matrix5", _algebra_check("matrix:5", 25, False), 4),
        ("tangent-poly3-3", _tangent_origin(3, 3), 1),
        ("check-poly2-6", _algebra_check("poly:2:6", 28, True), 1),
        ("fourier-z8xz8", _fourier((8, 8)), 1),
        ("check-group4x4x2", _algebra_check("group:4x4x2", 32, True), 1),
        ("check-matrix6", _algebra_check("matrix:6", 36, False), 1),
    ],
    # Many fresh small algebras, each used briefly: tuple-loop construction
    # (truncated_poly, series_algebra), ser_mul and multi-index calls
    # dominate. A per-algebra cache that helps dense-laws pays its build
    # cost on every request here. The process-lifetime jet cache keeps
    # every algebra alive, so memory grows over the pass. Counts put the
    # median inside the jet-m2n2 block and the 90th percentile inside the
    # jet-m3n3 block.
    "series-jets": [
        ("dersys-m1n4", _dersys(1, 4, 4, False), 20),
        ("jet-m1", _jet(1, 4), 30),
        ("dersys-broken-m2n3", _dersys(2, 3, 3, True), 25),
        ("jet-m2n2", _jet(2, 2), 50),
        ("dersys-m2n3", _dersys(2, 3, 3, False), 10),
        ("dersys-broken-m3n3", _dersys(3, 3, 3, True), 8),
        ("dersys-m3n2", _dersys(3, 2, 3, False), 8),
        ("jet-m2n4", _jet(2, 4), 8),
        ("jet-m3n2", _jet(3, 2), 6),
        ("jet-m3n3", _jet(3, 3), 31),
        ("jet-m3n4", _jet(3, 4), 2),
        ("selftest", _selftest(2), 2),
    ],
    # Sampled certificates with almost no structure-constant work:
    # expression evaluation, the per-point hashing loop of the separation
    # check, the batched Jacobian SVD and turning large witness lists into
    # JSON. This is the workload that measures the cli layer. The flat
    # bump keeps its full grid, so its witness count (quadratic in the
    # grid) stays visible. Counts put the median inside the env-periodic
    # block and the 90th percentile inside the env-plane-pass block.
    "envelope-grid": [
        ("env-poly-pass", _env_poly_pass(801), 9),
        ("env-square-cube", _env_square_cube(801), 9),
        ("env-jet-order", _env_jet_order(401), 2),
        ("env-periodic", _env_periodic(801), 24),
        ("env-plane-pass", _env_plane_pass(201), 5),
        ("env-flat-bump", _env_flat_bump(301), 2),
        ("env-plane-fold", _env_plane_fold(121), 1),
    ],
}


def build_corpus(workload: str, seed: int, workdir: str) -> list[dict]:
    """Writes the pass's input and expectation files under workdir and
    returns the request list: id, class, argv and the expectation's file
    (both relative to the checkout root). Expectations stay on disk until
    their request is checked, so the caller does not hold them in memory."""
    classes = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    slots = [i for i, (_, _, count) in enumerate(classes) for _ in range(count)]
    order = rng.permutation(len(slots))
    os.makedirs(workdir, exist_ok=True)
    requests = []
    for rid, pos in enumerate(order):
        name, make, _ = classes[slots[pos]]
        argv, doc, expect = make(rng)
        if doc is not None:
            path = os.path.join(workdir, f"r{rid:04d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [path if a is None else a for a in argv]
        expect_path = os.path.join(workdir, f"e{rid:04d}.json")
        with open(expect_path, "w") as fh:
            json.dump(expect, fh)
        requests.append({"id": rid, "class": name,
                         "argv": argv + ["--seed", str(seed)], "expect": expect_path})
    return requests


# --- checking -----------------------------------------------------------------


def _at(report, path: str):
    node = report
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def _witnesses(report, condition: str) -> list:
    return sorted(r["witness"] for r in report["results"]["reasons"]
                  if r["condition"] == condition)


def check_report(expect: list, code: int, report) -> list[str]:
    """Mismatches between one call's exit code and JSON report and its
    expectation; an empty list means the call is correct.

    Checks: ["exit", c] exit code; ["eq", path, v] equality; ["le", path,
    v] upper bound; ["close", path, v, tol] |x - v| <= tol; ["allclose",
    path, v, tol] elementwise; ["sorted_eq", path, v] equality as
    multisets; ["witnesses", condition, v] the exact witness set of the
    envelope reasons with that condition.
    """
    out = []
    for check in expect:
        op = check[0]
        if op == "exit":
            if code != check[1]:
                out.append(f"exit {code}, expected {check[1]}")
            continue
        if report is None:
            out.append(f"no report, expected one for {check[:2]}")
            break
        try:
            if op == "witnesses":
                got, want = _witnesses(report, check[1]), sorted(check[2])
                ok = got == want
                shown = f"{len(got)} {check[1]} witnesses, expected {len(want)}"
            else:
                got = _at(report, check[1])
                want = check[2]
                if op == "eq":
                    ok = got == want
                elif op == "le":
                    ok = got <= want
                elif op == "close":
                    ok = abs(got - want) <= check[3]
                elif op == "allclose":
                    ok = len(got) == len(want) and bool(np.all(
                        np.abs(np.asarray(got) - np.asarray(want)) <= check[3]))
                elif op == "sorted_eq":
                    ok = sorted(got) == sorted(want)
                else:
                    raise ValueError(f"unknown check {op!r}")
                shown = f"{check[1]} = {str(got)[:80]}, expected {op} {str(want)[:80]}"
        except (KeyError, IndexError, TypeError) as exc:
            ok, shown = False, f"{check[:2]}: missing ({exc!r})"
        if not ok:
            out.append(shown)
    return out
