"""Benchmark of the diffalg command line: one caller, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-laws --seed 1 --seconds 30 --trace 0

The workload's seeded corpus (see workloads.py) is written under
.perfbench_work/ and sent to diffalg.cli.main, imported from ./src, by
one caller that waits for each report before sending the next request.
Each pass over the corpus runs in a fresh interpreter (worker.py), so the
process-lifetime caches of the program live exactly one pass.

--trace 0 repeats plain passes until --seconds have elapsed and prints the
end-to-end metrics. Times are rescaled to reference machine speed by the
calibration slices timed between requests and after each timed import
(see calibration.py); the raw wall times are printed in the table as
well, but not in the result line.
--trace 1 runs the corpus twice plain and twice with layer spans,
alternating, then once under tracemalloc, and prints the per-layer
metrics. Every report is checked against the expectation its input was
built with. The last line of stdout is one JSON object: correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ".perfbench_work"
SETUP_IMPORTS = 15
PASS_TIMEOUT_S = 120
# plain and traced passes alternate so that drift in machine speed does not
# read as tracing overhead; allocation tracing gets a pass of its own
TRACE_PASSES = ("plain", "trace", "plain", "trace", "alloc")
# Times the import, then the calibration slice right after it in the same
# interpreter (numpy is imported by then, so the slice cannot run first).
IMPORT_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import diffalg.cli\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibration, statistics\n"
    "calibration.calibrate()\n"
    "print(diffalg.cli.__file__)\n"
    "print(t1 - t0)\n"
    "print(statistics.median(calibration.calibrate() for _ in range(3)))\n"
)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "default (one per CPU)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def setup_seconds() -> tuple[float, float]:
    """Median time to import diffalg.cli in a fresh interpreter, at
    reference speed and raw. Each import is rescaled by the calibration
    timed in its own interpreter just after it. A first import, which may
    compile bytecode, is not counted."""
    src = os.path.abspath("src") + os.sep
    scaled, raw = [], []
    for i in range(SETUP_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, HERE], capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S, check=True)
        path, seconds, calibration_s = done.stdout.split()
        if not os.path.abspath(path).startswith(src):
            raise SystemExit(f"run: diffalg imported from {path}, not from ./src")
        if i:
            raw.append(float(seconds))
            scaled.append(float(seconds) * calibration.REFERENCE_S / float(calibration_s))
    return statistics.median(scaled), statistics.median(raw)


def run_pass(corpus_path: str, mode: str, index: int) -> dict:
    result_path = os.path.join(os.path.dirname(corpus_path), f"pass{index}-{mode}.json")
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           corpus_path, result_path, mode],
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"run: {mode} pass failed with exit {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def p90(samples):
    return statistics.quantiles(samples, n=10)[8]


def end_to_end(passes, setup) -> dict:
    """Metrics from the passes' times at reference speed; the raw wall
    times are returned as well, for the printed table."""
    out = {}
    for label, times, setup_s in (
            ("", [calibration.normalize(p["latencies"], p["calibrations"]) for p in passes],
             setup[0]),
            ("raw ", [p["latencies"] for p in passes], setup[1])):
        latencies = [t for pass_times in times for t in pass_times]
        out.update({
            f"{label}throughput_rps": (len(latencies) / sum(latencies), "requests/s"),
            f"{label}latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            f"{label}latency_p90_ms": (1000.0 * p90(latencies), "ms"),
            f"{label}setup_s": (setup_s, "s"),
        })
    out["peak_rss_mib"] = (statistics.median(p["peak_rss_mib"] for p in passes), "MiB")
    return out


UNITS = {"calls": "count", "self_s": "s", "errors": "count", "bytes": "bytes",
         "peak_alloc_mib": "MiB", "cache_hit_ratio": "ratio",
         "cache_entries": "count", "report_bytes": "bytes", "overhead_frac": "ratio"}


def per_layer(passes) -> dict:
    """Layer figures from the first traced pass and the allocation pass;
    the tracing overhead compares the alternating plain and traced passes."""
    by_mode = {mode: [p for p in passes if p["mode"] == mode] for mode in TRACE_PASSES}
    values = dict(by_mode["trace"][0]["layers"])
    values.update(by_mode["alloc"][0]["layers"])
    values["cli.report_bytes"] = by_mode["trace"][0]["report_bytes"]
    plain_s, traced_s = (sum(sum(calibration.normalize(p["latencies"], p["calibrations"]))
                             for p in by_mode[mode])
                         for mode in ("plain", "trace"))
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "diffalg", "cli.py")):
        print("run: src/diffalg/cli.py not found; run from the root of a diffalg "
              "checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    requests = workloads.build_corpus(args.workload, args.seed, workdir)
    corpus_path = os.path.join(workdir, "corpus.json")
    with open(corpus_path, "w") as fh:
        json.dump(requests, fh)

    env = environment()
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests per pass, "
          "one caller, closed loop")

    if args.trace == 0:
        setup = setup_seconds()
        passes = []
        start = time.perf_counter()
        # start another pass while that keeps the run within half a pass of --seconds
        while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < args.seconds:
            passes.append(run_pass(corpus_path, "plain", len(passes)))
        metrics = end_to_end(passes, setup)
    else:
        passes = [run_pass(corpus_path, mode, i) for i, mode in enumerate(TRACE_PASSES)]
        metrics = per_layer(passes)

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"passes: {len(passes)}, requests: {attempted}, failed: {failed} "
          f"(failed_frac {failed / attempted:.4f})")
    for p in passes:
        for m in p["mismatches"]:
            print(f"  mismatch in request {m['id']} ({m['class']}): {'; '.join(m['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if not name.startswith("raw ")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
