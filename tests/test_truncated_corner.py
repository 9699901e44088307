"""Lower degrees as corners, and the batched Leibniz check.

A lower-degree polynomial algebra is the leading corner of a higher one
(graded order), so `PolyAlgebra.truncated` and `truncation_hom` read it off
instead of building it; the references below are the fresh build and the
exponent-index loop they replace. The Leibniz check is run with the law
kernel's block budget cut to a few entries against the tuple-loop
reference, the character and homomorphism checks with blocks of 1 and 7
structure slices against one block, and counting
hooks pin that a request builds one monomial table, finds its pair pattern
once and verifies a derivative system once. A polynomial algebra builds its
structure tensor and labels on first use; the eager build they replace is
kept below as the reference, and a jet request builds no tensor at all.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from diffalg import (Character, DomainError, Element, LinearOp, algebra_from_name,
                     characters, jet_project, jet_space, quotient_seminorm, taylor_system,
                     taylor_truncate, truncated_poly, verify_system)
from diffalg import algebra, cli, dersys, multiindex
from diffalg.algebra import monomial_label
from diffalg.diffcalc import derivative_op, truncation_hom
from diffalg.multiindex import MonomialTable

from test_monomial_table import (BASES, _broken_variants, _point, _u_power_system,
                                 ref_verify_system)

CORNERS = [(m, big) for m in (1, 2, 3) for big in range(7)]


def ref_truncation_hom(source, target):
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    for alpha, j in source.exp_index.items():
        if sum(alpha) <= target.degree:
            mat[target.exp_index[alpha], j] = 1.0
    return mat


def assert_same_poly_algebra(got, want):
    assert (got.mvars, got.degree, got.dim) == (want.mvars, want.degree, want.dim)
    for name in ("structure", "involution", "unit"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).flags.c_contiguous
    assert got.labels == want.labels
    assert got.exponents == want.exponents
    assert got.exp_index == want.exp_index
    for name in ("exps", "add", "sub"):
        assert np.array_equal(getattr(got.table, name), getattr(want.table, name)), name
    assert got.table.exponents == want.table.exponents
    assert got.table.exp_index == want.table.exp_index
    assert (got.table.mvars, got.table.degree) == (want.table.mvars, want.table.degree)


@pytest.mark.parametrize("m,big", CORNERS)
def test_corner_equals_a_fresh_build(m, big):
    parent = truncated_poly(m, big)
    for n in range(big + 1):
        corner = parent.truncated(n)
        assert_same_poly_algebra(corner, truncated_poly(m, n))
        # the corner's own tables serve the jet layer as a fresh table would
        fresh = MonomialTable(m, n)
        assert np.array_equal(corner.table.binomials(), fresh.binomials())
        assert np.array_equal(corner.table.factorials(), fresh.factorials())


def test_corner_is_a_new_algebra():
    parent = truncated_poly(2, 3)
    same = parent.truncated(3)
    assert same is not parent and same.table is not parent.table
    assert same.jet_cache is not parent.jet_cache
    with pytest.raises(DomainError):
        Element(same, same.unit) + Element(parent, parent.unit)
    with pytest.raises(ValueError):
        parent.truncated(4)
    with pytest.raises(ValueError):
        parent.table.truncated(-1)


@pytest.mark.parametrize("m,big", [(m, big) for m in (1, 2, 3) for big in range(6)])
def test_truncation_hom_equals_the_exponent_index_loop(m, big):
    source = truncated_poly(m, big)
    for n in range(big + 1):
        target = truncated_poly(m, n)
        assert np.array_equal(truncation_hom(source, target).matrix,
                              ref_truncation_hom(source, target))


def test_derivative_op_target_is_the_lower_corner():
    source = truncated_poly(2, 4)
    op = derivative_op(source, 1, drop=2)
    assert_same_poly_algebra(op.target, truncated_poly(2, 2))
    assert np.array_equal(op.action.matrix, ref_truncation_hom(source, op.target))


# --- the batched Leibniz check across block boundaries ------------------

def _violations(sys_):
    return [(v["axiom"], v["index"], v["pair"], v["residual"])
            for v in verify_system(sys_).violations]


@pytest.mark.parametrize("budget", [1, 7, 40, 400])
@pytest.mark.parametrize("base_name", BASES)
def test_leibniz_blocks_do_not_change_the_report(monkeypatch, base_name, budget):
    systems = []
    for m, n in [(1, 3), (2, 2), (3, 2)]:
        systems += _broken_variants(_u_power_system(algebra_from_name(base_name), m, n,
                                                    seed=n), n)
        systems += _broken_variants(taylor_system(m, n, _point(m, n), degree=n + 1), n)
    whole = [_violations(s) for s in systems]
    monkeypatch.setattr(algebra, "_BLOCK_ENTRIES", budget)
    for sys_, want_whole in zip(systems, whole):
        got = _violations(sys_)
        assert got == want_whole
        want = ref_verify_system(sys_)
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert np.allclose([g[3] for g in got], [w[3] for w in want], rtol=1e-12, atol=0)
    assert any(v[0] == "leibniz" for got in whole for v in got)


def _law_outcomes(candidates, homs):
    """Every character and homomorphism verdict, residual and witness."""
    return (np.array([(c.is_character(), c.multiplicativity_residual()) for c in candidates]),
            [h.hom_violations(tol) for h in homs for tol in (1e-9, 1e-5)])


@pytest.mark.parametrize("step", [1, 7])
def test_law_blocks_do_not_change_characters_or_homs(monkeypatch, step):
    """The character and homomorphism checks read the same kernel in blocks
    of `step` structure slices as in one block."""
    rng = np.random.default_rng(step)
    candidates, homs = [], []
    for name in ("group:3x3", "poly:2:3", "func:5"):
        alg = algebra_from_name(name)
        for ch in characters(alg):
            for scale in (0.0, 1e-6, 1.0):
                noise = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
                candidates.append(Character(alg, ch.functional + scale * noise))
        homs.append(LinearOp.identity(alg))
        bumped = np.eye(alg.dim, dtype=complex)
        bumped[tuple(rng.integers(0, alg.dim, size=2))] += 0.5
        homs.append(LinearOp(bumped, alg, alg))
    homs.append(dersys._pack(taylor_system(2, 2, [0.5, -0.25]), 1e-9))
    whole = _law_outcomes(candidates, homs)
    monkeypatch.setattr(algebra, "_slice_blocks", lambda d, width: (
        slice(lo, lo + step) for lo in range(0, d, step)))
    got = _law_outcomes(candidates, homs)
    assert np.array_equal(got[0], whole[0], equal_nan=True)
    assert got[1] == whole[1]
    assert not whole[0][:, 0].all() and whole[0][:, 0].any()
    assert any(whole[1]) and not all(whole[1])


# --- counting hooks ------------------------------------------------------

class _CountingNumpy:
    """numpy, with the calls to np.nonzero counted."""

    def __init__(self):
        self.nonzero_calls = 0

    def nonzero(self, a):
        self.nonzero_calls += 1
        return np.nonzero(a)

    def __getattr__(self, name):
        return getattr(np, name)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _count_labels(monkeypatch):
    """The monomials whose labels are built from here on."""
    labels = []
    label = algebra.monomial_label

    def counted_label(k):
        labels.append(k)
        return label(k)

    monkeypatch.setattr(algebra, "monomial_label", counted_label)
    return labels


def test_a_jet_request_builds_one_table_and_one_pair_pattern(monkeypatch, tmp_path, capsys,
                                                             tensor_builds):
    builds = []
    init = MonomialTable.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    counting = _CountingNumpy()
    monkeypatch.setattr(MonomialTable, "__init__", counted)
    monkeypatch.setattr(multiindex, "np", counting)
    tensors, labels = tensor_builds, _count_labels(monkeypatch)
    doc = {"m": 2, "order": 2, "point": [0.25, -0.5],
           "f": [{"index": [1, 1], "coeff": 2.0}, {"index": [0, 3], "coeff": -1.0}]}
    assert cli.main(["jet", _write(tmp_path, "jet.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dim"] == 6
    assert builds == [(2, 4)]
    assert counting.nonzero_calls == 1
    # no structure tensor at all, and the labels of the quotient alone
    assert tensors == []
    assert labels == MonomialTable(2, 2).exponents


def test_a_valid_dersys_request_verifies_once(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return verify_system(*args, **kw)

    monkeypatch.setattr(dersys, "verify_system", counted)
    monkeypatch.setattr(cli, "verify_system", counted)
    sys_ = taylor_system(2, 2, [0.5, -0.25])
    doc = {"m": 2, "N": 2, "source": "poly:2:2", "target": "func:1",
           "ops": [{"index": list(k), "matrix": sys_.op_matrix(k).real.tolist()}
                   for k in sys_.indices]}
    assert cli.main(["dersys-verify", _write(tmp_path, "dsys.json", doc)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["ok"] and results["packs_to_homomorphism"]
    assert len(calls) == 1


# --- the table is the algebra: the tensor and the labels on first use ----

def ref_eager_build(m, n):
    """Structure, involution, unit and labels of truncated_poly(m, n) as they
    were built at construction, before the table became the algebra."""
    table = MonomialTable(m, n)
    d = table.dim
    c = np.zeros((d, d, d), dtype=complex)
    i, j = np.nonzero(table.add >= 0)
    c[i, j, table.add[i, j]] = 1.0
    inv = np.zeros((d, d), dtype=complex)
    inv[np.arange(d), np.arange(d)] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    return c, inv, unit, [monomial_label(k) for k in table.exponents]


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3, 4) for n in range(7)])
def test_first_use_builds_what_the_eager_build_held(monkeypatch, tensor_builds, m, n):
    tensors, labels = tensor_builds, _count_labels(monkeypatch)
    alg = truncated_poly(m, n)
    assert (tensors, labels) == ([], [])
    c, inv, unit, want_labels = ref_eager_build(m, n)
    assert alg.dim == len(want_labels)
    assert _same_bits(alg.involution, inv) and _same_bits(alg.unit, unit)
    assert alg.labels == want_labels and alg.labels is alg.labels
    assert _same_bits(alg.structure, c)
    assert alg.structure.flags.c_contiguous
    # built once and kept with the algebra
    assert alg.structure is alg.structure
    assert tensors == [alg.dim] and len(labels) == alg.dim


@pytest.mark.parametrize("m,big", [(1, 6), (2, 5), (3, 4)])
def test_truncating_an_unbuilt_algebra_builds_nothing_of_it(tensor_builds, m, big):
    tensors = tensor_builds
    parent = truncated_poly(m, big)
    corners = [parent.truncated(n) for n in range(big + 1)]
    assert tensors == []
    for n, corner in enumerate(corners):
        assert_same_poly_algebra(corner, truncated_poly(m, n))
    # each corner's tensor and the fresh build's, and never the parent's
    assert sorted(tensors) == sorted(2 * [corner.dim for corner in corners])


def test_jet_functions_never_build_the_ambient_tensor(tensor_builds):
    tensors = tensor_builds
    alg = truncated_poly(3, 5)
    f = np.linspace(-1.0, 1.0, alg.dim)
    s = [0.5, -0.25, 0.125]
    jet_space(alg, s, 3)
    for route in ("taylor", "solve"):
        jet_project(alg, f, s, 2, route=route)
    taylor_truncate(alg, f, s, 4)
    quotient_seminorm(alg, f, s, 1)
    assert tensors == []


def test_a_jet_request_stays_below_its_ambient_tensor(tmp_path, capsys):
    """jet at m = 3, order 4 works in degree 6, d = 84: tracing the whole
    request, its peak stays below the 16 d^3 bytes of that tensor."""
    import tracemalloc

    from diffalg.multiindex import mi_enumerate

    terms = mi_enumerate(3, 6)
    coeffs = np.random.default_rng(5).standard_normal(len(terms))
    doc = {"m": 3, "order": 4, "point": [0.5, -0.75, 0.25],
           "f": [{"index": list(k), "coeff": float(c)} for k, c in zip(terms, coeffs)]}
    path = _write(tmp_path, "jet.json", doc)
    tracemalloc.start()
    try:
        code = cli.main(["jet", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["dim"] == 35
    assert len(terms) == 84
    assert peak < 16 * 84 ** 3
