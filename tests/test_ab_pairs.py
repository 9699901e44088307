"""tools/ab_pairs.py: a checkout against itself gives identical reports
under a header that names the BLAS thread settings, bad pass counts and
limits are refused before anything is loaded, the steadier summaries are
not moved by one slow request, the p90 band names the requests at or
above each side's p90, each class ratio comes with the quartiles of its
per-pass ratios, and the side that goes first alternates per request and
per pass."""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_checkout_paired_with_itself_has_no_differing_reports():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_pairs.py"), ROOT, ROOT,
         "--workload", "series-jets", "--limit", "3", "--passes", "2"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("series-jets, seed 5: 3 requests x 2 passes; "
                        "OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=default")
    assert lines[1].startswith("pass-time ratio B/A: ")
    assert lines[-1] == "differing (exit code, stdout) pairs: 0 of 6"
    assert lines[2].startswith("per-request ratio B/A: median ")
    assert "per-class ratio B/A: count-weighted mean " in lines[2]
    for label, line in zip("AB", lines[3:5]):
        assert line.startswith(f"{label}: p50 ") and line.endswith(" ms")
        assert len(line.split("p90 of each pass: ")[1].split()) == 2 + 1  # two passes, "ms"
    assert lines[5].split() == ["p90", "band", "(requests", ">=", "pooled", "p90)", "A", "B"]
    # 3 requests x 2 passes: the pooled p90 of six times lies between the
    # fifth largest and the largest, so the largest alone makes each band
    table = lines.index(next(line for line in lines if line.startswith("class ")))
    band = [line.split() for line in lines[6:table]]
    assert all(sum(int(row[side]) for row in band) == 1 for side in (1, 2))
    # every class row ends with the spread of its per-pass ratios, q1 <= q3
    assert lines[table].split()[-2:] == ["B/A", "q1-q3"]
    for row in lines[table + 1:-1]:
        q1, q3 = map(float, row.split()[-1].split("-"))
        assert 0 < q1 <= q3


@pytest.mark.parametrize("flag,value,message", [
    ("--passes", "0", "0 is not a positive even number"),
    ("--passes", "-2", "-2 is not a positive even number"),
    ("--passes", "3", "3 is not a positive even number"),
    ("--limit", "0", "0 is below 1"),
    ("--workload", "nope", "argument --workload: invalid choice: 'nope'"),
    ("--seed", "-1", "argument --seed: -1 is below 0"),
    ("--seed", "x", "argument --seed: invalid int value: 'x'"),
    ("--passes", "2", "no-such-a has no src/diffalg/cli.py"),
])
def test_bad_pass_counts_and_limits_are_refused_before_loading(flag, value, message):
    """Refused by argparse with exit 2, before either checkout is read:
    the checkouts named here do not exist, which is refused last."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_pairs.py"), "no-such-a", "no-such-b",
         flag, value], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _ab_pairs():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_slow_request_moves_the_sum_ratio_but_not_the_steady_summaries():
    """Two passes of five requests where B is 10 % faster on every request
    except one, which stalls for 100 times its time on side B."""
    ab = _ab_pairs()
    classes = ["x", "x", "x", "y", "z"]
    a = [[1.0, 1.0, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 2.0, 4.0]]
    b = [[0.9, 0.9, 90.0, 1.8, 3.6], [0.9, 0.9, 0.9, 1.8, 3.6]]
    assert sum(b[0]) / sum(a[0]) > 10
    assert ab.request_ratio_median((a, b)) == pytest.approx(0.9)
    medians = ab.class_medians(classes, (a, b))
    assert list(medians) == ["x", "y", "z"]
    assert medians["x"] == (1.0, 0.9)
    assert ab.class_ratio_mean(classes, (a, b)) == pytest.approx(0.9)


def test_class_ratios_are_weighted_by_their_counts():
    ab = _ab_pairs()
    classes = ["x", "x", "x", "y"]
    a = [[1.0, 1.0, 1.0, 1.0]]
    b = [[0.5, 0.5, 0.5, 2.0]]
    # x counts three times at 0.5, y once at 2.0
    assert ab.class_ratio_mean(classes, (a, b)) == pytest.approx((3 * 0.5 + 2.0) / 4)
    assert ab.request_ratio_median((a, b)) == pytest.approx(0.5)


def test_the_first_side_alternates_per_request_and_per_pass():
    """A request that runs first on A in one pass runs first on B in the
    next, so a fixed cost of going first does not settle on one side."""
    ab = _ab_pairs()
    passes = [[ab.first_side(p, n) for n in range(5)] for p in range(4)]
    assert passes[0] == [0, 1, 0, 1, 0]
    assert passes[1] == [1, 0, 1, 0, 1]
    for n in range(5):
        sides = [one_pass[n] for one_pass in passes]
        assert sides.count(0) == sides.count(1) == 2


def test_the_blas_thread_settings_name_each_variable(monkeypatch):
    ab = _ab_pairs()
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert ab.blas_threads() == "OPENBLAS_NUM_THREADS=default, OMP_NUM_THREADS=2"


def test_the_p90_band_counts_the_requests_at_or_above_the_pooled_p90():
    """Two passes of ten requests: the pooled p90 of twenty times lies
    between the third and second largest, so the band holds the two
    slowest requests of all passes, and a tie at the cut counts every
    request at it."""
    ab = _ab_pairs()
    classes = ["x"] * 5 + ["y"] * 3 + ["z"] * 2
    side = [[1.0] * 5 + [2.0] * 3 + [3.0, 4.0], [1.0] * 5 + [2.0] * 3 + [3.0, 9.0]]
    assert ab.p90(side[0] + side[1]) == pytest.approx(3.1)
    assert ab.p90_band(classes, side) == {"z": 2}
    flat = [[5.0] * 10, [5.0] * 10]
    assert ab.p90_band(classes, flat) == {"x": 10, "y": 6, "z": 4}
    slow_y = [[1.0] * 5 + [7.0] * 3 + [1.0, 1.0]] * 2
    assert ab.p90_band(classes, slow_y) == {"y": 6}


def test_the_p90_of_few_samples_lies_within_them():
    """Below ten samples the p90 interpolates between the two largest
    instead of extrapolating above the largest, so a short pass still has
    its slowest request in the band."""
    ab = _ab_pairs()
    assert ab.p90([1.0, 2.0, 3.0]) == pytest.approx(2.8)
    assert ab.p90([4.0, 1.0, 2.0, 3.0, 5.0, 6.0]) == pytest.approx(5.5)
    assert ab.p90([7.0]) == 7.0
    assert ab.p90_band(["x", "y", "z"], [[1.0, 3.0, 2.0], [1.0, 2.0, 2.5]]) == {"y": 1}


def test_the_class_spread_holds_one_on_a_self_pair():
    """Thirty passes of times drawn around one true time per request; B
    has the same passes in reverse order, so its per-pass ratios are A's
    inverted: no change, whatever the noise, and each class's spread holds
    1. Identical sides give a spread of exactly 1, and B 20 % slower on
    every request puts the whole spread at 1.2."""
    ab = _ab_pairs()
    rng = np.random.default_rng(1)
    classes = ["one"] + ["two"] * 2 + ["many"] * 24
    a = [list(np.exp(0.1 * rng.standard_normal(len(classes)))) for _ in range(30)]
    b = a[::-1]
    for cls, (q1, q3) in ab.class_spreads(classes, (a, a)).items():
        assert q1 == q3 == 1.0, cls
    spreads = ab.class_spreads(classes, (a, b))
    assert list(spreads) == ["one", "two", "many"]
    for cls, (q1, q3) in spreads.items():
        assert q1 < 1.0 < q3, cls
    slow = [[1.2 * t for t in one_pass] for one_pass in a]
    assert all(q1 == pytest.approx(1.2) == q3
               for q1, q3 in ab.class_spreads(classes, (a, slow)).values())


def test_the_class_spread_is_the_quartiles_of_the_pass_ratios():
    ab = _ab_pairs()
    a = [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]
    b = [[0.8, 2.0], [0.9, 2.0], [1.0, 2.0], [1.1, 2.0], [1.6, 2.0]]
    spreads = ab.class_spreads(["x", "y"], (a, b))
    assert spreads["x"] == pytest.approx((0.9, 1.1))
    assert spreads["y"] == (1.0, 1.0)
    assert ab.class_spreads(["x"], ([[2.0]], [[3.0]])) == {"x": (1.5, 1.5)}


def test_an_unknown_class_is_refused_before_loading():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_pairs.py"), "no-such-a", "no-such-b",
         "--workload", "envelope-grid", "--class", "env-plane-pass", "--class", "nope"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "argument --class: invalid choice: 'nope' (choose from 'env-poly-pass'," in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_named_classes_alone_are_timed():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_pairs.py"), ROOT, ROOT,
         "--workload", "envelope-grid", "--class", "env-plane-fold",
         "--class", "env-jet-order", "--passes", "2"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # one env-plane-fold and two env-jet-order requests in each pass
    assert lines[0] == ("envelope-grid, seed 5, classes env-plane-fold, env-jet-order: "
                        "3 requests x 2 passes; OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=default")
    table = lines.index(next(line for line in lines if line.startswith("class ")))
    assert sorted(row.split()[0] for row in lines[table + 1:-1]) == ["env-jet-order",
                                                                      "env-plane-fold"]
    assert lines[-1] == "differing (exit code, stdout) pairs: 0 of 6"
