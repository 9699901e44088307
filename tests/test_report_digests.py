"""Every report of the benchmark corpora against its committed digest.

Each request of the three corpora at one seed must exit with the recorded
code and write the recorded stdout, byte for byte (sha256). A change in a
report, even of a residual at 1e-16, shows here; such a change is made on
purpose by regenerating `tests/data/report_digests.json` with
`tests/report_digests.py`, which lists the requests that changed.
"""
from __future__ import annotations

import pytest

import report_digests as rd


@pytest.mark.parametrize("workload", sorted(rd.WORKLOADS.WORKLOADS))
def test_reports_match_digests(workload, tmp_path):
    want = {k: v for k, v in rd.load().items() if k.startswith(workload + "/")}
    got = rd.run_workload(workload, str(tmp_path))
    diff = rd.changed(want, got)
    assert not diff, f"{len(diff)} of {len(got)} reports changed: {diff[:20]}"
