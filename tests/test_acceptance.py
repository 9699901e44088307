"""End-to-end acceptance checks.

Each test verifies one advertised guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line naming the guarantee, so a
plain `pytest tests/test_acceptance.py -v -s` reads as a checklist. The
randomized instances are seeded and fixed.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from diffalg import (
    Character,
    LinearOp,
    SeriesElement,
    Subspace,
    Var,
    check_diffsys_characterization,
    check_stabilization,
    cotangent_class,
    cotangent_space,
    cusp_algebra,
    dauns_hofmann_check,
    direct_sum,
    envelope_verdict,
    flat_bump,
    fourier_check,
    from_homomorphism,
    function_algebra,
    jet_project,
    matrix_algebra,
    mi_count,
    mi_enumerate,
    monomial_about,
    pairing,
    parse_expr,
    quotient_seminorm,
    ser_involve,
    ser_mul,
    ser_unit,
    series_algebra,
    series_to_coords,
    subalgebra,
    tangent_space,
    taylor_system,
    taylor_truncate,
    to_homomorphism,
    truncated_poly,
    verify_system,
    z_tower,
)
from diffalg._linalg import null_space


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rand_series(rng, base, m, n):
    x = SeriesElement(base, m, n)
    for k in mi_enumerate(m, n):
        x[k] = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    return x


def _nilpotent_u_system(rng, base, m, order):
    src = truncated_poly(1, order)
    ser = series_algebra(base, m, order)
    u = SeriesElement(base, m, order)
    for k in mi_enumerate(m, order):
        if sum(k) == 0:
            continue
        c = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
        u[k] = (c + base.star_coords(c)) / 2.0
    cols = []
    power = ser_unit(base, m, order)
    for _ in range(order + 1):
        cols.append(series_to_coords(ser, power))
        power = ser_mul(power, u)
    h = LinearOp(np.stack(cols, axis=1), src, ser)
    return from_homomorphism(h), h


def _poly_gens(alg):
    gens = []
    for i in range(alg.mvars):
        e = [0] * alg.mvars
        e[i] = 1
        v = np.zeros(alg.dim)
        v[alg.exp_index[tuple(e)]] = 1.0
        gens.append(v)
    return gens


def test_series_ring_laws():
    """Associativity, unit, and star antihomomorphism for coefficient
    algebras up to M_3 and C^4, m <= 3, N <= 5, 100 random triples,
    residual < 1e-10, under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    bases = [function_algebra(1), matrix_algebra(2), matrix_algebra(3),
             function_algebra(4)]
    worst = 0.0
    for i in range(100):
        base = bases[i % 4]
        m = 1 + (i // 4) % 3
        n = 2 + (i // 12) % 4
        x, y, z = (_rand_series(rng, base, m, n) for _ in range(3))
        scale = 1.0 + max(x.norm(), y.norm(), z.norm()) ** 3
        assoc = (ser_mul(ser_mul(x, y), z) - ser_mul(x, ser_mul(y, z))).norm()
        one = ser_unit(base, m, n)
        unit = max((ser_mul(one, x) - x).norm(), (ser_mul(x, one) - x).norm())
        anti = (ser_involve(ser_mul(x, y))
                - ser_mul(ser_involve(y), ser_involve(x))).norm()
        worst = max(worst, assoc / scale, unit / scale, anti / scale)
    elapsed = time.monotonic() - start
    _report("series-ring-laws", worst < 1e-10 and elapsed < 10.0,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_derivative_system_bijection():
    """Packing a valid system into a series homomorphism and unpacking it
    is the identity to 1e-12 on 50 systems; packed maps are multiplicative
    to 1e-10."""
    rng = np.random.default_rng(202)
    worst_rt = 0.0
    hom_ok = True
    count = 0
    for i in range(25):
        m = 1 + i % 2
        order = 1 + i % 3
        sys = taylor_system(m, order, rng.standard_normal(m))
        h = to_homomorphism(sys)
        hom_ok = hom_ok and h.is_homomorphism(1e-10)
        back = from_homomorphism(h)
        worst_rt = max(worst_rt, max(np.abs(back.op_matrix(k) - sys.op_matrix(k)).max()
                                     for k in sys.indices))
        count += 1
    bases = [function_algebra(1), matrix_algebra(2), function_algebra(3)]
    for i in range(25):
        sys, h0 = _nilpotent_u_system(rng, bases[i % 3], 1 + i % 2, 2)
        assert verify_system(sys).ok
        h = to_homomorphism(sys)
        hom_ok = hom_ok and h.is_homomorphism(1e-10)
        back = from_homomorphism(h)
        worst_rt = max(worst_rt, max(np.abs(back.op_matrix(k) - sys.op_matrix(k)).max()
                                     for k in sys.indices))
        worst_rt = max(worst_rt, float(np.abs(h.matrix - h0.matrix).max()))
        count += 1
    _report("derivative-system-bijection",
            count == 50 and worst_rt <= 1e-12 and hom_ok,
            f"50 systems, round trip {worst_rt:.2e}")


def _twisted_system(b, q):
    f2 = function_algebra(2)
    m2 = matrix_algebra(2)
    ser = series_algebra(m2, 1, 2)
    e11 = np.array([1, 0, 0, 0], dtype=complex)
    p1 = np.array([0, b, np.conj(b), 0], dtype=complex)
    p2 = np.array([-abs(b) ** 2, q, np.conj(q), abs(b) ** 2], dtype=complex)
    h = np.zeros((ser.dim, 2), dtype=complex)
    h[0:4, 0], h[4:8, 0], h[8:12, 0] = e11, p1, p2
    h[0:4, 1], h[4:8, 1], h[8:12, 1] = m2.unit - e11, -p1, -p2
    return from_homomorphism(LinearOp(h, f2, ser))


def test_differential_characterization_equivalence():
    """Order bound, tower membership, and first-level membership agree on
    50 systems including 5 engineered negatives; the commutator identity
    holds to 1e-10 for index weight <= 3."""
    rng = np.random.default_rng(303)
    agree = 0
    positives = 0
    negatives = 0
    worst_comm = 0.0
    for i in range(20):
        m = 1 + i % 3
        order = 2 if m >= 2 else 3
        sys = taylor_system(m, order, rng.standard_normal(m) * 0.5)
        rep = check_diffsys_characterization(sys, _poly_gens(sys.source))
        agree += rep["agree"]
        positives += all(rep["predicates"].values())
        worst_comm = max(worst_comm, rep["commutator_residual"])
    bases = [function_algebra(1), matrix_algebra(2), function_algebra(2)]
    for i in range(25):
        sys, _ = _nilpotent_u_system(rng, bases[i % 3], 1 + i % 2, 2)
        rep = check_diffsys_characterization(sys, _poly_gens(sys.source))
        agree += rep["agree"]
        positives += all(rep["predicates"].values())
        worst_comm = max(worst_comm, rep["commutator_residual"])
    for b, q in [(1.0, 0.0), (1.0, 0.5j), (2.0, 1.0), (1.0 + 1.0j, 1.0j),
                 (0.5, 2.0 + 1.0j)]:
        sys = _twisted_system(b, q)
        rep = check_diffsys_characterization(sys, list(np.eye(2)))
        agree += rep["agree"]
        negatives += not any(rep["predicates"].values())
        worst_comm = max(worst_comm, rep["commutator_residual"])
    _report("differential-characterization-equivalence",
            agree == 50 and positives == 45 and negatives == 5
            and worst_comm < 1e-10,
            f"45 positive + 5 negative, commutator residual {worst_comm:.2e}")


def _block_star_vectors(rng, d):
    parts = []
    left = d
    while left:
        take = int(rng.integers(1, left + 1))
        parts.append(take)
        left -= take
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(z)
    vecs = []
    off = 0
    for p in parts:
        for i in range(p):
            for j in range(p):
                e = np.zeros((d, d), dtype=complex)
                e[off + i, off + j] = 1.0
                vecs.append((u @ e @ u.conj().T).reshape(-1))
        off += p
    return vecs


def test_centralizer_tower_stabilization():
    """Z^1 = Z^2 for 100 random star-closed unital subalgebra inclusions
    into M_d, d <= 5; the non-star-closed span{1, E12} in M_2 gives tower
    dims (2, 3) with strict growth, confirmed by a direct null-space
    solve. Under 30 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(404)
    stabilized = 0
    for i in range(100):
        d = 2 + i % 4
        md = matrix_algebra(d)
        if i % 2 == 0:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) / 2
            vecs = [np.linalg.matrix_power(h, k).reshape(-1) for k in range(d)]
        else:
            vecs = _block_star_vectors(rng, d)
        _, incl = subalgebra(md, vecs)
        rep = check_stabilization(incl)
        stabilized += rep["stabilized"] and rep["involutive"]

    # the non-involutive instance, with the tower recomputed from scratch
    m2 = matrix_algebra(2)
    dn = truncated_poly(1, 1)
    mat = np.zeros((4, 2), dtype=complex)
    mat[:, 0] = [1, 0, 0, 1]
    mat[:, 1] = [0, 1, 0, 0]
    phi = LinearOp(mat, dn, m2)
    tower = z_tower(phi, 2)
    e12 = mat[:, 1]
    ad = m2.left_mul_matrix(e12) - m2.right_mul_matrix(e12)
    z1_direct = null_space(ad)
    q, _ = np.linalg.qr(z1_direct.T)
    p_perp = np.eye(4) - q @ q.conj().T
    z2_direct = null_space(p_perp @ ad)
    growth_ok = (
        z1_direct.shape[0] == 2 and z2_direct.shape[0] == 3
        and tower.level(1).equals(Subspace(m2, z1_direct))
        and tower.level(2).equals(Subspace(m2, z2_direct))
        and tower.level(2).contains_subspace(tower.level(1))
        and not tower.level(1).contains_subspace(tower.level(2)))
    elapsed = time.monotonic() - start
    _report("centralizer-tower-stabilization",
            stabilized == 100 and growth_ok and elapsed < 30.0,
            f"100 stabilized, counterexample dims (2, 3), {elapsed:.1f}s")


def test_jet_dual_route_agreement():
    """Taylor-coefficient jets equal chart-solve jets to 1e-9 on 200
    random cases with m <= 3, n <= 4, and the jet dimension is always
    C(m+n, m)."""
    rng = np.random.default_rng(505)
    worst = 0.0
    dims_ok = True
    for i in range(200):
        m = 1 + i % 3
        n = int(rng.integers(0, 5))
        degree = n + int(rng.integers(0, 3))
        alg = truncated_poly(m, degree)
        s = rng.standard_normal(m) * 0.8
        f = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        a = jet_project(alg, f, s, n, route="taylor")
        b = jet_project(alg, f, s, n, route="solve")
        scale = 1.0 + np.abs(f).max() * (1.0 + np.abs(s).max()) ** alg.degree
        worst = max(worst, float(np.abs(a.coords - b.coords).max()) / scale)
        dims_ok = dims_ok and a.algebra.dim == mi_count(m, n)
    _report("jet-dual-route-agreement", worst < 1e-9 and dims_ok,
            f"200 cases, max gap {worst:.2e}")


def test_taylor_truncation_laws():
    """Truncation is idempotent to 1e-12, and f*g agrees with the product
    of truncations modulo the order-(n+1) vanishing subspace to 1e-9, on
    100 random pairs with true products taken in a double-degree ambient."""
    rng = np.random.default_rng(606)
    shapes = [(1, 3), (2, 2), (3, 2)]
    ambients = {(m, D): truncated_poly(m, 2 * D) for m, D in shapes}
    smalls = {(m, D): truncated_poly(m, D) for m, D in shapes}
    worst_idem = 0.0
    worst_cong = 0.0
    for i in range(100):
        m, D = shapes[i % 3]
        n = int(rng.integers(1, D + 1))
        small, big = smalls[(m, D)], ambients[(m, D)]
        s = rng.standard_normal(m) * 0.8
        f = rng.standard_normal(small.dim) + 1j * rng.standard_normal(small.dim)
        g = rng.standard_normal(small.dim) + 1j * rng.standard_normal(small.dim)
        t1 = taylor_truncate(small, f, s, n)
        t2 = taylor_truncate(small, t1.coords, s, n)
        worst_idem = max(worst_idem, float(np.abs(t1.coords - t2.coords).max())
                         / (1.0 + np.abs(f).max()))
        lift = np.zeros((big.dim, small.dim))
        lift[:small.dim, :small.dim] = np.eye(small.dim)
        fg = big.mul_coords(lift @ f, lift @ g)
        tftg = big.mul_coords(lift @ taylor_truncate(small, f, s, n).coords,
                              lift @ taylor_truncate(small, g, s, n).coords)
        res = quotient_seminorm(big, fg - tftg, s, n)
        worst_cong = max(worst_cong, res / (1.0 + float(np.abs(fg).max())))
    _report("taylor-truncation-laws",
            worst_idem <= 1e-12 and worst_cong < 1e-9,
            f"idempotence {worst_idem:.2e}, congruence {worst_cong:.2e}")


def test_tangent_cotangent_duality():
    """Tangent and cotangent dimensions agree and the pairing Gram matrix
    is invertible for truncated polynomials (m <= 3), the cusp algebra,
    and C^n, sampled at 5 points each."""
    ok = True
    details = []
    # truncated polynomials: the unique character reads coefficients in
    # the basis centered at the sampled point; representatives are built
    # from that point's absolute monomials
    for m in (1, 2, 3):
        alg = truncated_poly(m, 2)
        delta = Character(alg, np.eye(alg.dim)[0])
        for s_idx in range(5):
            s = np.linspace(-1.0, 1.0, 5)[s_idx] * np.ones(m)
            taus = tangent_space(alg, delta)
            reps = []
            for i in range(m):
                e = tuple(1 if t == i else 0 for t in range(m))
                rep = monomial_about(alg, s, e).coords - s[i] * alg.unit
                reps.append(cotangent_class(alg, delta, rep))
            classes, _ = cotangent_space(alg, delta)
            ok = ok and len(taus) == len(classes) == m
            gram = np.array([[pairing(t, x) for x in reps] for t in taus])
            ok = ok and np.linalg.matrix_rank(gram) == m
        details.append(f"poly m={m}: dim {m}")
    c = cusp_algebra()
    delta = Character(c, np.eye(6)[0])
    for _ in range(5):
        taus = tangent_space(c, delta)
        classes, _ = cotangent_space(c, delta)
        ok = ok and len(taus) == len(classes) == 2
        gram = np.array([[pairing(t, x) for x in classes] for t in taus])
        ok = ok and abs(np.linalg.det(gram)) > 1e-10
    details.append("cusp: dim 2")
    f5 = function_algebra(5)
    for i in range(5):
        s = Character(f5, np.eye(5)[i])
        taus = tangent_space(f5, s)
        classes, _ = cotangent_space(f5, s)
        ok = ok and taus == [] and classes == []
    details.append("C^5: dim 0 at each point")
    _report("tangent-cotangent-duality", ok, "; ".join(details))


def test_envelope_classifier_canonical_cases():
    """The four canonical generator families classify as advertised with
    exact witnesses, deterministically, in under 5 seconds at grid 201."""
    start = time.monotonic()
    box = [(-1.0, 1.0)]
    tau = 6.283185307179586

    v1 = envelope_verdict([parse_expr("(var 0)", 1)], box, 201, {"jet_order": 2})
    ok = v1.status == "PASS"

    sq_cu = [parse_expr("(pow (var 0) 2)", 1), parse_expr("(pow (var 0) 3)", 1)]
    v2 = envelope_verdict(sq_cu, box, 201)
    ok = ok and v2.status == "FAIL" and any(
        r["condition"] == "tangent" and r["witness"] == [0.0] for r in v2.reasons)

    periodic = [parse_expr(f"(sin (* (const {tau}) (var 0)))", 1),
                parse_expr(f"(cos (* (const {tau}) (var 0)))", 1)]
    v3 = envelope_verdict(periodic, box, 201)
    sep_pairs = [r["witness"] for r in v3.reasons if r["condition"] == "separation"]
    ok = ok and v3.status == "FAIL" and [[0.0], [1.0]] in sep_pairs

    v4 = envelope_verdict([flat_bump(Var(0))], box, 201)
    conds = {r["condition"] for r in v4.reasons}
    ok = ok and v4.status == "FAIL" and conds == {"separation", "tangent"}
    ok = ok and any(r["condition"] == "tangent" and r["witness"] == [0.0]
                    for r in v4.reasons)

    ok = ok and envelope_verdict(sq_cu, box, 201).to_dict() == v2.to_dict()
    elapsed = time.monotonic() - start
    _report("envelope-classifier-canonical-cases", ok and elapsed < 5.0,
            f"PASS/FAIL/FAIL/FAIL as expected, {elapsed:.2f}s")


def test_finite_fiber_decomposition():
    """The section map into the fiber product is a unital star isomorphism
    over the full center and over every proper central unital
    star-subalgebra of four block algebras, with exact fiber dimensions."""
    m2m3 = direct_sum(matrix_algebra(2), matrix_algebra(3))
    m3 = matrix_algebra(3)
    c4 = function_algebra(4)
    m2c2 = direct_sum(matrix_algebra(2), function_algebra(2))

    ok = True
    ledger = []

    def run(alg, central, expect_fibers, label):
        nonlocal ok
        rep = dauns_hofmann_check(alg, central=central)
        good = rep["ok"] and sorted(rep["fiber_dims"]) == expect_fibers
        ok = ok and good
        ledger.append(f"{label}:{sorted(rep['fiber_dims'])}")

    run(m2m3, None, [4, 9], "M2+M3/Z")
    run(m2m3, [np.concatenate([np.eye(2).reshape(-1), np.eye(3).reshape(-1)])],
        [13], "M2+M3/C1")

    run(m3, None, [9], "M3/Z")  # the center is already the scalars

    run(c4, None, [1, 1, 1, 1], "C4/Z")
    run(c4, [np.array([1.0, 1, 0, 0]), np.array([0.0, 0, 1, 1])], [2, 2],
        "C4/pairs")
    run(c4, [np.array([1.0, 1, 1, 0]), np.array([0.0, 0, 0, 1])], [1, 3],
        "C4/3+1")

    unit_m2 = np.eye(2).reshape(-1)
    run(m2c2, None, [1, 1, 4], "M2+C2/Z")
    run(m2c2, [np.concatenate([unit_m2, [0.0, 0.0]]),
               np.array([0.0] * 4 + [1.0, 1.0])], [2, 4], "M2+C2/merge-points")
    run(m2c2, [np.concatenate([unit_m2, [1.0, 0.0]]),
               np.array([0.0] * 4 + [0.0, 1.0])], [1, 5], "M2+C2/merge-block")

    _report("finite-fiber-decomposition", ok, " ".join(ledger))


def test_group_fourier_analogue():
    """Convolution theorem, involution compatibility, and a full set of
    characters for six finite abelian groups, residuals < 1e-10."""
    specs = [[2], [3], [4], [2, 2], [6], [8, 2]]
    ok = True
    worst = 0.0
    for factors in specs:
        rep = fourier_check(factors)
        ok = ok and rep["ok"] and rep["extracted_matched"] is True
        worst = max(worst, rep["convolution_residual"],
                    rep["involution_residual"], rep["unitary_residual"],
                    rep["round_trip_residual"])
    _report("group-fourier-analogue", ok and worst < 1e-10,
            f"6 groups, max residual {worst:.2e}")
