"""Sampled certificates for generator families: the prefix-expression
parser, closure of the flat-bump family under differentiation, separation
and tangent-rank witnesses, and the polynomial jet certificate."""
from __future__ import annotations

import numpy as np
import pytest

from diffalg import (
    Const,
    DomainError,
    FlatBumpTimes,
    Prod,
    Sin,
    Sum,
    Var,
    envelope_verdict,
    flat_bump,
    jet_surjectivity_check,
    parse_expr,
    separation_check,
    tangent_rank_check,
    truncated_poly,
)

from symbolic_diff import diff

BOX1 = [(-1.0, 1.0)]


def test_parser_roundtrip():
    texts = [
        "(var 0)",
        "(+ (var 0) (const 2.5))",
        "(* (pow (var 0) 3) (sin (var 1)))",
        "(exp (cos (var 0)))",
        "(flatbump (var 0))",
    ]
    for t in texts:
        e = parse_expr(t, mvars=2)
        assert parse_expr(e.to_sexpr(), mvars=2).to_sexpr() == e.to_sexpr()


@pytest.mark.parametrize("bad", [
    "(var 2)",          # out of range for mvars=2
    "(var -1)",
    "(pow (var 0) 0)",
    "(pow (var 0) x)",
    "(+ (var 0))",
    "(frob (var 0))",
    "(var 0",
    "(var 0) trailing",
    "",
])
def test_parser_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_expr(bad, mvars=2)


def test_differentiation_matches_finite_differences():
    e = parse_expr("(* (sin (var 0)) (exp (pow (var 0) 2)))", 1)
    d = diff(e, 0)
    xs = np.linspace(-1.0, 1.0, 11)
    h = 1e-6
    num = (e.eval([xs + h]) - e.eval([xs - h])) / (2 * h)
    assert np.abs(d.eval([xs]) - num).max() < 1e-7
    value, (forward,) = e.forward([xs], 1)
    assert np.array_equal(value, e.eval([xs]))
    assert np.abs(forward - num).max() < 1e-7


def test_flat_bump_family_closed_under_diff():
    fb = flat_bump(Var(0))
    d3 = diff(diff(diff(fb, 0), 0), 0)
    xs = np.linspace(-0.5, 0.5, 21)
    h = 1e-5
    d2 = diff(diff(fb, 0), 0)
    num = (d2.eval([xs + h]) - d2.eval([xs - h])) / (2 * h)
    mask = np.abs(xs) > 0.3  # away from the flat point the family is smooth
    assert np.abs(d3.eval([xs])[mask] - num[mask]).max() < 1e-4 * (1 + np.abs(num[mask]).max())


def test_flat_bump_derivatives_vanish_at_zero():
    e = flat_bump(Var(0))
    for _ in range(6):
        assert e.eval([np.array([0.0])])[0] == 0.0
        assert e.forward([np.array([0.0])], 1)[1][0][0] == 0.0
        e = diff(e, 0)


def test_degree_and_to_poly():
    e = parse_expr("(+ (pow (var 0) 2) (* (const 3.0) (var 1)))", 2)
    assert e.degree() == 2
    assert Sin(Var(0)).degree() is None
    alg = truncated_poly(2, 3)
    coords = e.to_poly(alg)
    assert coords[alg.exp_index[(2, 0)]] == pytest.approx(1.0)
    assert coords[alg.exp_index[(0, 1)]] == pytest.approx(3.0)
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-1, 1, 7)
    direct = e.eval([xs, ys])
    via_poly = sum(coords[alg.exp_index[k]].real * xs ** k[0] * ys ** k[1]
                   for k in alg.exponents)
    assert np.abs(direct - via_poly).max() < 1e-12


def test_separation_identity_map_clean():
    assert separation_check([Var(0)], BOX1, 201) == []


def test_separation_catches_periodic_generators():
    gens = [parse_expr("(sin (* (const 6.283185307179586) (var 0)))", 1),
            parse_expr("(cos (* (const 6.283185307179586) (var 0)))", 1)]
    pairs = separation_check(gens, BOX1, 201)
    assert pairs
    assert ((-1.0,), (0.0,)) in pairs or ((0.0,), (1.0,)) in pairs


def test_separation_rounding_boundary_not_missed():
    # constants on a bucket edge of the earlier 1e-7 rounding scheme: every
    # pair of grid points coincides in value and must be found
    gens = [Const(0.5e-7)]
    pairs = separation_check(gens, BOX1, 11)
    assert len(pairs) == 11 * 10 // 2


def test_separation_pair_straddling_two_bucket_edges():
    # each generator crosses a different rounding bucket edge between the
    # two points, which the earlier two-offset scheme split under both
    # offsets; the points agree within 2e-10 < tol
    gens = [Sum(Const(a), Prod(Const(2e-10), Var(0))) for a in (0.5e-7 - 1e-10, 1e-7 - 1e-10)]
    assert separation_check(gens, [(0.0, 1.0)], 2) == [((0.0,), (1.0,))]
    for g in gens:
        assert separation_check([g], [(0.0, 1.0)], 2) == [((0.0,), (1.0,))]


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_certificates_refuse_bad_tolerances(tol):
    gens = [parse_expr("(sin (* (const 6.283185307179586) (var 0)))", 1),
            parse_expr("(cos (* (const 6.283185307179586) (var 0)))", 1)]
    box = [(0.0, 1.0)]
    with pytest.raises(ValueError, match="tol_sep must be finite and non-negative"):
        separation_check(gens, box, 5, tol)
    with pytest.raises(ValueError, match="tol_rank must be finite and non-negative"):
        tangent_rank_check(gens, box, 5, tol)
    for name in ("tol_sep", "tol_rank"):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            envelope_verdict(gens, box, 5, {name: tol})
    # the map is not injective on the box: 0 and 1 share their values
    assert envelope_verdict(gens, box, 5).status == "FAIL"


@pytest.mark.parametrize("box, grid", [([(1e12, 2e12)], 1500), ([(1e308, 1.7e308)], 5)])
def test_separation_keys_huge_values(box, grid):
    # values up to the largest floats: the sort keys neither overflow nor
    # lump every point together
    assert separation_check([Var(0)], box, grid) == []
    assert envelope_verdict([Var(0)], box, grid).status == "PASS"


def test_separation_pairs_equal_huge_values():
    gens = [parse_expr("(* (const 1e12) (* (var 0) (var 0)))", 1)]
    assert separation_check(gens, BOX1, 5) == [((-1.0,), (1.0,)), ((-0.5,), (0.5,))]
    assert len(separation_check([Const(3e300)], BOX1, 11)) == 11 * 10 // 2


def test_tangent_rank_flags_critical_points():
    gens = [parse_expr("(pow (var 0) 2)", 1), parse_expr("(pow (var 0) 3)", 1)]
    pts = tangent_rank_check(gens, BOX1, 201)
    assert (0.0,) in pts
    assert tangent_rank_check([Var(0)], BOX1, 201) == []


def test_tangent_rank_two_variables():
    gens = [Var(0), Var(1), Prod(Var(0), Var(1))]
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    assert tangent_rank_check(gens, box, 21) == []
    folded = [Prod(Var(0), Var(0)), Var(1)]
    pts = tangent_rank_check(folded, box, 21)
    assert pts and all(abs(p[0]) < 1e-12 for p in pts)


@pytest.mark.parametrize("check", [separation_check, tangent_rank_check])
def test_certificates_refuse_non_finite_samples(check):
    gens = [parse_expr("(exp (exp (exp (var 0))))", 1)]
    with pytest.raises(DomainError, match="not finite at 3 of 5 sample points"):
        check(gens, [(0.0, 5.0)], 5)


def test_verdict_builds_one_grid(monkeypatch):
    from diffalg import envelope

    built = []
    grid_axes = envelope._grid_axes

    def counted(box, grid):
        built.append(grid)
        return grid_axes(box, grid)

    monkeypatch.setattr(envelope, "_grid_axes", counted)
    gens = [Prod(Var(0), Var(0)), Var(1)]
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    v = envelope_verdict(gens, box, 21)
    assert built == [21]
    seps = [tuple(map(tuple, r["witness"])) for r in v.reasons if r["condition"] == "separation"]
    tangent = [tuple(r["witness"]) for r in v.reasons if r["condition"] == "tangent"]
    assert seps == separation_check(gens, box, 21)
    assert tangent == tangent_rank_check(gens, box, 21)


def test_verdict_calls_each_public_check_once(monkeypatch):
    from diffalg import envelope

    calls = []

    def counted(name):
        check = getattr(envelope, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return wrapper

    for name in ("separation_check", "tangent_rank_check"):
        monkeypatch.setattr(envelope, name, counted(name))
    gens = [Prod(Var(0), Var(0)), Var(1)]
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    v = envelope_verdict(gens, box, 5)
    assert sorted(calls) == ["separation_check", "tangent_rank_check"]
    assert [r["condition"] for r in v.reasons] == ["separation"] * 10 + ["tangent"] * 5


@pytest.mark.parametrize("power", [1, 3, 4, 6])
def test_flat_bump_family_is_zero_where_the_power_underflows(power):
    e = FlatBumpTimes(Var(0), power)
    t = np.array([1e-160, -1e-155, 1e-150, 0.0])
    assert np.array_equal(e.eval([t]), np.zeros(4))
    assert np.signbit(e.eval([t])).sum() == 0


def test_flat_bump_on_a_tiny_box_is_judged():
    v = envelope_verdict([flat_bump(Var(0))], [(1e-160, 1e-150)], 3)
    assert v.status == "FAIL"
    pts = np.linspace(1e-160, 1e-150, 3).tolist()
    assert [r["witness"] for r in v.reasons] == (
        [[[a], [b]] for a, b in [(pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])]]
        + [[x] for x in pts])


@pytest.mark.parametrize("box", [[(0.0, np.inf)], [(-np.inf, 1.0)], [(0.0, np.nan)],
                                 [(0.0, 1.0), (-1.7e308, 1.7e308)]])
def test_non_finite_box_is_refused(box):
    axis = len(box) - 1
    with pytest.raises(DomainError, match=f"box axis {axis} is "):
        envelope_verdict([Var(0)], box, 3)


@pytest.mark.parametrize("check", [envelope_verdict, separation_check, tangent_rank_check])
def test_empty_box_is_refused(check):
    with pytest.raises(ValueError, match="at least one axis"):
        check([Const(1.0)], [], 11)


def test_verdict_builds_its_reason_dicts_once():
    v = envelope_verdict([Prod(Var(0), Var(0))], BOX1, 5)
    assert v.reasons is v.reasons is v.to_dict()["reasons"]
    assert repr(v) == "<Verdict FAIL reasons=3>"


def test_jet_surjectivity_single_coordinate():
    res = jet_surjectivity_check([Var(0)], [0.0], 2, wordlen=2)
    assert res.ok and res.achieved == res.expected == 3
    assert res.by_length == [1, 2, 3]


def test_jet_surjectivity_stalls_without_linear_term():
    res = jet_surjectivity_check([parse_expr("(pow (var 0) 2)", 1)], [0.0], 2, wordlen=3)
    assert not res.ok
    assert res.stalled
    res2 = jet_surjectivity_check([parse_expr("(pow (var 0) 3)", 1)], [0.0], 3, wordlen=1)
    assert not res2.ok and not res2.stalled  # still growing at the cap


def test_jet_surjectivity_refuses_transcendental():
    with pytest.raises(DomainError):
        jet_surjectivity_check([Sin(Var(0))], [0.0], 2)


# -- aggregated verdicts ------------------------------------------------------


def test_verdict_canonical_cases():
    v = envelope_verdict([Var(0)], BOX1, 201, {"jet_order": 2})
    assert v.status == "PASS" and v.reasons == []

    v2 = envelope_verdict([parse_expr("(pow (var 0) 2)", 1),
                           parse_expr("(pow (var 0) 3)", 1)], BOX1, 201)
    assert v2.status == "FAIL"
    assert any(r["condition"] == "tangent" and r["witness"] == [0.0] for r in v2.reasons)

    tau = 6.283185307179586
    v3 = envelope_verdict([parse_expr(f"(sin (* (const {tau}) (var 0)))", 1),
                           parse_expr(f"(cos (* (const {tau}) (var 0)))", 1)], BOX1, 201)
    assert v3.status == "FAIL"
    assert all(r["condition"] == "separation" for r in v3.reasons)

    v4 = envelope_verdict([flat_bump(Var(0))], BOX1, 201)
    assert v4.status == "FAIL"
    conds = {r["condition"] for r in v4.reasons}
    assert conds == {"separation", "tangent"}


def test_verdict_inconclusive_on_growing_jet():
    v = envelope_verdict([parse_expr("(pow (var 0) 3)", 1)], [(0.1, 1.0)], 5,
                         {"jet_order": 3, "jet_wordlen": 1, "jet_points": [(0.5,)]})
    # away from zero the cubic separates and has full rank, and the jet
    # span is still growing at word length 1
    assert v.status == "INCONCLUSIVE"
    assert v.reasons and v.reasons[0]["condition"] == "jet"


def test_verdict_pass_survives_extra_generators(rng):
    gens = [Var(0), parse_expr("(pow (var 0) 2)", 1)]
    v = envelope_verdict(gens, BOX1, 101, {"jet_order": 2})
    assert v.status == "PASS"
    assert v.to_dict()["meta"]["grid"] == 101


def test_verdict_deterministic():
    gens = [parse_expr("(pow (var 0) 2)", 1), parse_expr("(pow (var 0) 3)", 1)]
    a = envelope_verdict(gens, BOX1, 201).to_dict()
    b = envelope_verdict(gens, BOX1, 201).to_dict()
    assert a == b
