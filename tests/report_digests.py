"""Exit codes and stdout digests of every request of the benchmark corpora.

The corpora are built with `perfbench/workloads.py` (loaded by path; it
never imports diffalg, so a seed gives the same inputs on every commit)
at one seed, and each request is sent to `cli.main` in this process. A
request's entry is keyed `<workload>/<id>/<class>` and holds its exit code
and the sha256 of everything it wrote to stdout. The inputs are written
under a temporary directory, whose path appears in no report.

`tests/test_report_digests.py` compares a fresh run with
`tests/data/report_digests.json`. That file changes only through this
script, run from the root of a checkout:

    PYTHONPATH=src python3 tests/report_digests.py

It rewrites the file and prints every request whose exit code or digest
changed, and a count per class.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "data", "report_digests.json")
SEED = 5


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def run_workload(workload: str, workdir: str) -> dict[str, dict]:
    """{key: {"exit": code, "sha256": stdout digest}} for one corpus."""
    from diffalg import cli

    out = {}
    for req in WORKLOADS.build_corpus(workload, SEED, workdir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req["argv"])
        key = f"{workload}/{req['id']:03d}/{req['class']}"
        out[key] = {"exit": code,
                    "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    return out


def load() -> dict[str, dict]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def dump(digests: dict[str, dict]) -> str:
    """One line per request, in key order."""
    lines = [f"{json.dumps(k)}: {json.dumps(digests[k], sort_keys=True)}"
             for k in sorted(digests)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def changed(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """Keys whose entry differs, or that exist on one side only."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main() -> int:
    old = load() if os.path.exists(DIGESTS) else {}
    new = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in sorted(WORKLOADS.WORKLOADS):
            new.update(run_workload(workload, os.path.join(workdir, workload)))
    diff = changed(old, new)
    for key in diff:
        print(f"{key}: {old.get(key)} -> {new.get(key)}")
    per_class = collections.Counter(k.split("/", 1)[0] + "/" + k.rsplit("/", 1)[1]
                                    for k in diff)
    for name, count in sorted(per_class.items()):
        print(f"{name}: {count} changed")
    print(f"{len(diff)} of {len(new)} requests changed")
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w") as fh:
        fh.write(dump(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
