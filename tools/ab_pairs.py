"""Paired A/B timing of two checkouts of diffalg in one interpreter.

    python3 tools/ab_pairs.py A_CHECKOUT B_CHECKOUT [--workload series-jets]
                              [--seed 5] [--passes 4] [--limit N]
                              [--class NAME ...]

Each checkout's src/diffalg is loaded under its own package name (diffalg_a
and diffalg_b), side by side in this interpreter. One pass of the seeded
corpus of perfbench/workloads.py (this checkout's, only read) is written to
a temporary directory and every request is sent to both, one after the
other; the passes repeat that over the same corpus. Which side goes first
alternates from one request to the next and from one pass to the next, so
over the even number of passes that --passes requires, each request runs
first on each side equally often. Separate benchmark runs of the same
program drift with the speed of a shared machine by tens of percent; the
two calls of a pair see the same drift, so the ratios of paired times are
much steadier than the ratio of two runs. --class NAME, which may be
repeated, keeps only the requests of the named classes of the workload, so
the ratio of one class over many passes takes seconds; a name that is not
a class of the workload is refused. It complements perfbench/run.py and does not replace it: both
programs share one process, so peak memory and process-lifetime caches are
not measured here. As in perfbench's worker, the calibration slice of
perfbench/calibration.py runs before each pass and then every EVERY_S
seconds between requests; it keeps the BLAS threads awake, so their
wake-up stalls do not read as request time. Its timings are not used.

Prints a header naming the BLAS thread settings it ran under
(OPENBLAS_NUM_THREADS and OMP_NUM_THREADS), the pass-time ratio B/A of
each pass and their median, p50 and p90 of each side with the p90 of each
of its passes, the p90 band (per class, how many requests of all passes
of a side took at least that side's pooled p90), the per-class medians
and their ratio with its spread (the first and third quartiles of the
class's per-pass ratios B/A, which show whether a class with one or two
requests per pass resolves its ratio), and the number of requests whose
(exit code, stdout) differ between A and B, in all and per class, so a
change whose reports differ on purpose shows which classes they differ
in. One slow request moves a ratio of pass sums, so two steadier
summaries are printed next to it: the median of the per-request ratios
B/A, and the mean of the per-class ratios weighted by each class's count
of requests in a pass. Exits 1 when any pair differs, else 0.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_cli(checkout: str, name: str):
    """diffalg.cli of a checkout, imported as the package `name`."""
    package = os.path.join(os.path.abspath(checkout), "src", "diffalg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def call(cli, argv) -> tuple[int, str, float]:
    """One request after a full collection, as perfbench's worker makes it:
    (exit code, stdout, seconds)."""
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


def blas_threads() -> str:
    """The BLAS thread settings this process runs under, "default" for one
    that is not set."""
    return ", ".join(f"{name}={os.environ.get(name, 'default')}"
                     for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


def p90(samples: list[float]) -> float:
    """The 0.9 quantile interpolated between the samples (the inclusive
    method), so it never lies above the slowest request, however few there
    are. perfbench/run.py's exclusive method puts it 0.8 of a rank higher
    and, below ten samples, above the largest one."""
    return (statistics.quantiles(samples, n=10, method="inclusive")[8]
            if len(samples) > 1 else samples[0])


def p90_band(classes: list[str], side) -> dict[str, int]:
    """{class: count of its requests, over all passes of one side, at or
    above that side's pooled p90}, in order of first appearance; side[pass][n]
    holds the seconds of request n, of class classes[n]. These requests
    make the p90, so a claim about it names them."""
    cut = p90([t for one_pass in side for t in one_pass])
    counts = dict.fromkeys(classes, 0)
    for one_pass in side:
        for cls, t in zip(classes, one_pass):
            counts[cls] += t >= cut
    return {cls: n for cls, n in counts.items() if n}


def first_side(pass_index: int, n: int) -> int:
    """The side (0 for A, 1 for B) whose call of request n goes first in
    pass pass_index."""
    return (pass_index + n) % 2


def class_medians(classes: list[str], times) -> dict[str, tuple[float, float]]:
    """{class: (median A seconds, median B seconds)} over all passes, in
    order of first appearance; classes[n] is the class of request n and
    times[side][pass][n] its seconds."""
    out = {}
    for cls in dict.fromkeys(classes):
        a, b = ([t for one_pass in side for c, t in zip(classes, one_pass) if c == cls]
                for side in times)
        out[cls] = (statistics.median(a), statistics.median(b))
    return out


def class_spreads(classes: list[str], times) -> dict[str, tuple[float, float]]:
    """{class: (first, third quartile)} of the class's per-pass ratios B/A
    of medians, in order of first appearance: a class ratio whose spread
    holds 1 is not told apart from no change. With one pass both are its
    one ratio."""
    out = {}
    for cls in dict.fromkeys(classes):
        ratios = [statistics.median(t for c, t in zip(classes, pass_b) if c == cls)
                  / statistics.median(t for c, t in zip(classes, pass_a) if c == cls)
                  for pass_a, pass_b in zip(*times)]
        quartiles = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if len(ratios) > 1 else ratios * 3)
        out[cls] = (quartiles[0], quartiles[2])
    return out


def request_ratio_median(times) -> float:
    """Median over every request of every pass of its paired ratio B/A."""
    return statistics.median(b / a for pass_a, pass_b in zip(*times)
                             for a, b in zip(pass_a, pass_b))


def class_ratio_mean(classes: list[str], times) -> float:
    """Mean of the per-class ratios of medians B/A, each class weighted by
    its count of requests in a pass."""
    counts = {cls: classes.count(cls) for cls in dict.fromkeys(classes)}
    return sum(counts[cls] * mb / ma
               for cls, (ma, mb) in class_medians(classes, times).items()) / len(classes)


def differing_lines(differ: dict[str, int], total: int) -> list[str]:
    """The count of differing (exit code, stdout) pairs out of total and,
    when any differ, their count per class; differ maps each class, in
    order of first appearance, to its count of differing pairs."""
    lines = [f"differing (exit code, stdout) pairs: {sum(differ.values())} of {total}"]
    if any(differ.values()):
        lines.append("differing pairs per class: "
                     + ", ".join(f"{cls} {n}" for cls, n in differ.items() if n))
    return lines


def positive_even(text: str) -> int:
    """A pass count: positive and even, so that each request goes first on
    each side equally often."""
    n = int(text)
    if n < 1 or n % 2:
        raise argparse.ArgumentTypeError(f"{text} is not a positive even number")
    return n


def at_least(low: int):
    """An argparse type for an integer of at least `low`."""
    def check(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return n
    check.__name__ = "int"  # "invalid int value: ..." for a text that is no integer
    return check


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from calibration import EVERY_S, calibrate
    from workloads import WORKLOADS, build_corpus

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A (the reference)")
    parser.add_argument("b", help="checkout B")
    parser.add_argument("--workload", default="series-jets", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=at_least(0), default=5)
    parser.add_argument("--passes", type=positive_even, default=4,
                        help="a positive even number")
    parser.add_argument("--limit", type=at_least(1),
                        help="only the first N requests of the pass")
    parser.add_argument("--class", dest="classes", action="append", metavar="NAME",
                        help="only the requests of this class; may be repeated")
    args = parser.parse_args(argv)
    names = [name for name, _, _ in WORKLOADS[args.workload]]
    for name in args.classes or []:
        if name not in names:
            parser.error(f"argument --class: invalid choice: {name!r} (choose from "
                         + ", ".join(map(repr, names)) + ")")
    for checkout in (args.a, args.b):
        if not os.path.isfile(os.path.join(checkout, "src", "diffalg", "cli.py")):
            parser.error(f"{checkout} has no src/diffalg/cli.py")

    clis = (load_cli(args.a, "diffalg_a"), load_cli(args.b, "diffalg_b"))
    with tempfile.TemporaryDirectory() as workdir:
        requests = [req for req in build_corpus(args.workload, args.seed, workdir)
                    if args.classes is None or req["class"] in args.classes][:args.limit]
        times = ([], [])  # per side: one list of request seconds per pass
        differ = dict.fromkeys((req["class"] for req in requests), 0)
        for pass_index in range(args.passes):
            for side in times:
                side.append([])
            calibrate()
            since = time.perf_counter()
            for n, req in enumerate(requests):
                if time.perf_counter() - since > EVERY_S:
                    calibrate()
                    since = time.perf_counter()
                first = first_side(pass_index, n)
                outcome = [None, None]
                for side in (first, 1 - first):
                    code, text, seconds = call(clis[side], req["argv"])
                    outcome[side] = (code, text)
                    times[side][-1].append(seconds)
                differ[req["class"]] += outcome[0] != outcome[1]

    ratios = [sum(b) / sum(a) for a, b in zip(*times)]
    classes = [req["class"] for req in requests]
    only = f", classes {', '.join(args.classes)}" if args.classes else ""
    print(f"{args.workload}, seed {args.seed}{only}: {len(requests)} requests x "
          f"{args.passes} passes; {blas_threads()}")
    print("pass-time ratio B/A: " + " ".join(f"{r:.3f}" for r in ratios)
          + f"  (median {statistics.median(ratios):.3f})")
    print(f"per-request ratio B/A: median {request_ratio_median(times):.3f}; "
          f"per-class ratio B/A: count-weighted mean {class_ratio_mean(classes, times):.3f}")
    for label, side in zip("AB", times):
        flat = [t for one_pass in side for t in one_pass]
        print(f"{label}: p50 {1000 * statistics.median(flat):.3f} ms, "
              f"p90 {1000 * p90(flat):.3f} ms; p90 of each pass: "
              + " ".join(f"{1000 * p90(one_pass):.3f}" for one_pass in side) + " ms")
    bands = [p90_band(classes, side) for side in times]
    print(f"{'p90 band (requests >= pooled p90)':<34} {'A':>4} {'B':>4}")
    for cls in (cls for cls in dict.fromkeys(classes) if cls in bands[0] or cls in bands[1]):
        print(f"{cls:<34} {bands[0].get(cls, 0):4d} {bands[1].get(cls, 0):4d}")
    print(f"{'class':<24} {'A ms':>9} {'B ms':>9} {'B/A':>7} {'pass B/A q1-q3':>15}")
    spreads = class_spreads(classes, times)
    for cls, (ma, mb) in class_medians(classes, times).items():
        q1, q3 = spreads[cls]
        print(f"{cls:<24} {1000 * ma:9.3f} {1000 * mb:9.3f} {mb / ma:7.3f} "
              f"{q1:7.3f}-{q3:.3f}")
    print("\n".join(differing_lines(differ, len(requests) * args.passes)))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
