"""One pass of a corpus in a fresh interpreter: one caller, closed loop.

Run from the checkout root as

    python3 perfbench/worker.py CORPUS.json RESULT.json {plain,trace,alloc}

Each request calls diffalg.cli.main(argv) in this process, with the report
written to an in-memory stdout, and the next request starts only after the
previous report is back and checked against its expectation, which is read
from its own file only then. Every quarter second a calibration slice
is timed between requests (see calibration.py). `plain` times the calls,
`trace` records layer spans (see tracer.py), `alloc` records peak
allocations under tracemalloc. The result file holds per-request wall
times, the calibrations, mismatches, the peak resident memory and, when
traced, the layer figures.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import EVERY_S, calibrate  # noqa: E402
from workloads import check_report  # noqa: E402

SHOWN_MISMATCHES = 5


def import_program():
    """diffalg.cli from ./src of the checkout, never an installed copy."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "diffalg", "cli.py")):
        raise SystemExit("worker: src/diffalg is missing; run from the checkout root")
    sys.path.insert(0, src)
    import diffalg.cli
    if not os.path.abspath(diffalg.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: imported diffalg from {diffalg.cli.__file__}")
    return diffalg.cli


def call(cli, argv):
    """One closed-loop request: (exit code, stdout text, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising call is a failed request, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return code, out.getvalue(), t1 - t0, error


def run_pass(cli, requests, on_request=None):
    latencies, failed, mismatches, report_bytes = [], 0, [], 0
    calibrate()  # first calls into numpy's linear algebra are slower
    calibrations = [(0, calibrate())]
    since = time.perf_counter()
    for req in requests:
        if time.perf_counter() - since > EVERY_S:
            calibrations.append((len(latencies), calibrate()))
            since = time.perf_counter()
        if on_request is not None:
            on_request(req["id"])
        # start every request from an empty collector generation, as a fresh
        # CLI process would, so no request pays for an earlier one's garbage
        gc.collect()
        code, text, seconds, error = call(cli, req["argv"])
        latencies.append(seconds)
        report_bytes += len(text.encode())
        if error is not None:
            problems = [f"raised {error}"]
        else:
            try:
                report = json.loads(text) if text.strip() else None
            except json.JSONDecodeError as exc:
                report, problems = None, [f"report is not JSON: {exc}"]
            else:
                with open(req["expect"]) as fh:
                    problems = check_report(json.load(fh), code, report)
        if problems:
            failed += 1
            if len(mismatches) < SHOWN_MISMATCHES:
                mismatches.append({"id": req["id"], "class": req["class"],
                                   "argv": req["argv"], "problems": problems[:3]})
    calibrations.append((len(latencies), calibrate()))
    return {"latencies": latencies, "failed": failed,
            "mismatches": mismatches, "report_bytes": report_bytes,
            "calibrations": calibrations}


def main(argv):
    corpus_path, result_path, mode = argv
    with open(corpus_path) as fh:
        requests = json.load(fh)
    cli = import_program()
    result = {"mode": mode}
    if mode == "plain":
        result.update(run_pass(cli, requests))
    elif mode == "trace":
        import tracer
        rec = tracer.SpanRecorder()
        rec.install()
        result.update(run_pass(cli, requests, rec.set_request))
        rec.uninstall()
        rec.dump(os.path.splitext(result_path)[0] + "-spans.npz")
        result["layers"] = rec.metrics()
    elif mode == "alloc":
        import tracer
        rec = tracer.AllocRecorder()
        rec.install()
        result.update(run_pass(cli, requests))
        rec.uninstall()
        result["layers"] = rec.metrics()
    else:
        raise SystemExit(f"worker: unknown mode {mode!r}")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
