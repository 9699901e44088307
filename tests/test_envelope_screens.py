"""The two screens in front of the envelope certificates against the full
computations they stand in for.

The rank certificate runs the verified Gram test of _gram_clears first
and the one-sided Jacobi only on the points it leaves undecided; its
classification must equal that of the Jacobi run on every point, on
families whose sigma_m / sigma_1 sits within 1e-3 of the cut and on
families spread across the screen's own boundary, for m in 1..4, k in
1..5, tol_rank in {0, 1e-8, 1e-3, 10} and scales 1e-200, 1 and 1e200,
and on subnormal and nearly overflowing entries.
The separation check searches only the open positions, whose next key is
in reach; its counts must equal those of a search at every position,
kept below as the reference, over ties, zero windows and subnormal ones.
Before that it sorts the keys alone and counts nothing unless some gap
between sorted neighbours is within the widest window; two keys exactly
that window apart are joined.
Counting tests pin where the work goes: a plane-pass request sends no
point to the Jacobi and a plane-fold request only its x = 0 column; the
plane-pass separation check counts nothing and orders no point.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg import NumericError, envelope_verdict, parse_expr, separation_check
from diffalg import envelope
from diffalg.envelope import _candidate_counts, _extreme_singular_values, _rank_deficient

TOLS = [0.0, 1e-8, 1e-3, 10.0]
N = 300
ETA = np.finfo(float).smallest_subnormal


def all_jacobi_witnesses(jac: np.ndarray, tol_rank: float) -> np.ndarray:
    """The classification before the screen: the Jacobi at every point."""
    top, bottom = _extreme_singular_values(jac)
    return bottom <= tol_rank * np.maximum(top, 1.0)


def _family(rng, m, k, tol, spread):
    """N Jacobians (m, k, N) with sigma_1 in [1, 2] and sigma_m / sigma_1
    within 1e-3 of the cut tol (of 0 when tol is 0, some exactly 0), or,
    with `spread`, log-uniform in [1e-12, 1], where the screen's own
    boundary lies. With a single singular value that value is the ratio."""
    r = min(m, k)
    sing = np.sort(rng.uniform(1.0, 2.0, (N, r)), axis=1)[:, ::-1]
    if spread:
        ratio = 10.0 ** rng.uniform(-12.0, 0.0, N)
    elif tol > 0:
        ratio = np.minimum(tol * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, N)), 1.0)
    else:
        ratio = 1e-3 * rng.uniform(0.0, 1.0, N) * (rng.random(N) < 0.8)
    sing[:, -1] = ratio * (sing[:, 0] if r > 1 else 1.0)
    if r > 2:
        sing[:, 1:-1] = np.clip(sing[:, 1:-1], sing[:, -1:], None)
    u, _, vt = np.linalg.svd(rng.standard_normal((N, m, k)), full_matrices=False)
    jac = (u * sing[:, None, :]) @ vt
    return np.ascontiguousarray(jac.transpose(1, 2, 0))


@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from(TOLS),
       st.sampled_from([1e-200, 1.0, 1e200]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_screened_classification_equals_all_jacobi(m, k, tol, scale, spread, seed):
    jac = scale * _family(np.random.default_rng(seed), m, k, tol, spread)
    np.testing.assert_array_equal(_rank_deficient(jac, tol), all_jacobi_witnesses(jac, tol))


def test_screen_decides_points_on_both_sides_of_its_boundary():
    # the property above is not vacuous: on the spread families the screen
    # clears some points and leaves others to the Jacobi
    rng = np.random.default_rng(7)
    for m, k in [(2, 3), (3, 3), (4, 5)]:
        cleared = envelope._gram_clears(_family(rng, m, k, 1e-8, True), 1e-8)
        assert 0 < cleared.sum() < N


@pytest.mark.parametrize("tol", TOLS)
def test_zero_and_wide_jacobians_stay_undecided(tol):
    rng = np.random.default_rng(3)
    zero = np.zeros((2, 3, 50))
    wide = rng.standard_normal((3, 2, 50))  # k < m: sigma_3 = 0
    assert not envelope._gram_clears(zero, tol).any()
    assert not envelope._gram_clears(wide, tol).any()


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("unit, spread", [(ETA, 3), (1e-310, 3), (1.5e308, 1), (1e305, 3)])
def test_extreme_entries_classify_as_all_jacobi(tol, unit, spread):
    # subnormal Jacobians, whose bottom can round to 0, and huge ones,
    # whose top can overflow and make the Jacobi's cut infinite
    rng = np.random.default_rng(11)
    for m, k in [(1, 2), (2, 2), (2, 3), (3, 4)]:
        jac = rng.integers(-spread, spread + 1, (m, k, 400)) * unit
        # the Jacobi's top overflows and 0 * inf is NaN, at the parent too
        with np.errstate(over="ignore", invalid="ignore"):
            expected = all_jacobi_witnesses(jac, tol)
            np.testing.assert_array_equal(_rank_deficient(jac, tol), expected)


def reference_counts(key: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The later keys within key + window, searched at every position."""
    return np.searchsorted(key, key + window, side="right") - np.arange(1, len(key) + 1)


@given(st.lists(st.integers(-12, 12), max_size=120),
       st.sampled_from([1.0, 1e-3, 3 * ETA, 1e300]),
       st.lists(st.sampled_from([0.0, ETA, 5 * ETA, 0.5, 1.0, 2.5]), min_size=1),
       st.booleans())
def test_open_window_counts_equal_full_search(ints, unit, windows, scaled):
    key = np.sort(np.array(ints, dtype=float) * unit)
    window = np.resize(np.array(windows), len(key)) * (unit if scaled else 1.0)
    np.testing.assert_array_equal(_candidate_counts(key, window), reference_counts(key, window))


@pytest.mark.parametrize("tol", [0.0, ETA])
def test_open_window_counts_on_ties(tol):
    key = np.repeat([-1.0, 0.0, 0.0 + 2 ** -1074, 3.0], [3, 4, 2, 1])
    window = np.full(len(key), tol)
    np.testing.assert_array_equal(_candidate_counts(key, window), reference_counts(key, window))


H = 2.0 ** -6


def _box(lo, grid):
    return [-lo * H, (grid - 1 - lo) * H]


PLANE_PASS = ([parse_expr(t, 2) for t in ("(var 0)", "(var 1)", "(* (var 0) (var 1))")],
              [_box(37, 201), _box(150, 201)], 201)
PLANE_FOLD = ([parse_expr(t, 2) for t in ("(pow (var 0) 2)", "(var 1)")],
              [_box(60, 121), _box(20, 121)], 121)


@pytest.fixture
def jacobi_inputs(monkeypatch):
    """Records the scaled Jacobians each call of the Jacobi receives."""
    seen = []
    rotate = envelope._orthogonalise_rows

    def record(a):
        seen.append(a.copy())
        rotate(a)

    monkeypatch.setattr(envelope, "_orthogonalise_rows", record)
    return seen


def test_plane_pass_sends_no_point_to_the_jacobi(jacobi_inputs):
    assert envelope_verdict(*PLANE_PASS).status == "PASS"
    assert sum(a.shape[2] for a in jacobi_inputs) == 0


def test_plane_fold_sends_only_its_fold_to_the_jacobi(jacobi_inputs):
    verdict = envelope_verdict(*PLANE_FOLD)
    assert verdict.status == "FAIL"
    sent = np.concatenate(jacobi_inputs, axis=2)
    # (0, y) has the Jacobian rows (2x, 0) = 0 and (0, 1)
    assert sent.shape[2] == 121
    assert not sent[0].any()
    tangent = [r["witness"] for r in verdict.reasons if r["condition"] == "tangent"]
    assert [x for x, _ in tangent] == [0.0] * 121


def test_sweep_limit_still_applies_to_undecided_points(monkeypatch):
    monkeypatch.setattr(envelope, "MAX_JACOBI_SWEEPS", 0)
    assert envelope_verdict(*PLANE_PASS).status == "PASS"
    with pytest.raises(NumericError, match="did not settle in 0 sweeps"):
        envelope_verdict(*PLANE_FOLD)


@pytest.fixture
def sweep_calls(monkeypatch):
    """Records the sizes of the arrays np.argsort and the candidate count
    receive during a test."""
    seen = {"argsort": [], "counts": []}
    argsort, counts = np.argsort, envelope._candidate_counts

    def record_argsort(a, *args, **kwargs):
        seen["argsort"].append(np.size(a))
        return argsort(a, *args, **kwargs)

    def record_counts(key, window):
        seen["counts"].append(len(key))
        return counts(key, window)

    monkeypatch.setattr(np, "argsort", record_argsort)
    monkeypatch.setattr(envelope, "_candidate_counts", record_counts)
    return seen


def test_plane_pass_separation_counts_and_orders_nothing(sweep_calls):
    assert envelope_verdict(*PLANE_PASS).status == "PASS"
    assert sweep_calls == {"argsort": [], "counts": []}


@pytest.mark.parametrize("power, joined", [(25, True), (24, False), (26, True)])
def test_keys_exactly_the_widest_window_apart_form_a_run(sweep_calls, power, joined):
    # x^p on the grid 0, 1/2, 1, 3/2, 2 with tol 0 has one weight, 1, so the
    # keys are the values; the widest window is 4 eps 2^p = 2^(p - 50) and
    # the gap from f(0) = 0 to f(1/2) = 2^-p equals it at p = 25. No window
    # but the widest reaches that far, so there is no candidate, and without
    # a witness the point codes are never built.
    gens = [parse_expr(f"(pow (var 0) {power})", 1)]
    sample = envelope._sample(gens, [(0.0, 2.0)], 5, jac=False)
    assert separation_check(gens, [(0.0, 2.0)], 5, 0.0, sample=sample) is None
    assert sample.witnesses["separation"].shape == (2, 0)
    assert bool(sweep_calls["counts"]) == joined
    assert "codes" not in vars(sample)
