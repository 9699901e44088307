"""Every field of one document of each benchmark corpus class, mutated.

One field at a time (at any depth, and along the first-item chain of each
list) is replaced by 1.5, -1, 0, 2**40, "x", null, [], true, NaN or {},
or deleted. Each request must either exit 2 with a message that names the
field, or run: a replacement of the field's own JSON kind may change the
answer (exit 0, 3 or 4), and a deletion or any other replacement must
exit as the unmutated document does. None may exit 5 or show Python's own
error text (such as "'float' object is not subscriptable").

The documents come from perfbench/workloads.py (loaded by path, read only)
at seed 5.
"""
from __future__ import annotations

import copy
import importlib.util
import json
import os
import re

import numpy as np
import pytest

from diffalg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dense-laws", "series-jets", "envelope-grid")
VALUES = [1.5, -1, 0, 2 ** 40, "x", None, [], True, float("nan"), {}]
PYTHON_TEXT = re.compile(
    r"object is not|not subscriptable|cannot unpack|unhashable|NoneType|has no attribute"
    r"|unsupported operand|object of type|argument must be|invalid literal|could not convert"
    r"|not iterable|positional argument|index out of range|KeyError|TypeError|IndexError"
    r"|AttributeError|'(int|float|str|list|dict|bool)' object|inhomogeneous"
    r"|setting an array element|could not be broadcast|matmul")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _workloads()
# the classes whose requests read a document (the others pass a name inline)
CLASSES = [name for w in WORKLOADS for name, make, _ in WL.WORKLOADS[w]
           if make(np.random.default_rng(0))[1] is not None]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The argv and document of the first request of each class that
    reads a document."""
    out = {}
    for workload in WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        for req in WL.build_corpus(workload, 5, str(work)):
            path = next((a for a in req["argv"] if a.endswith(".json")), None)
            if path is not None and req["class"] not in out:
                with open(path) as fh:
                    out[req["class"]] = (req["argv"], path, json.load(fh))
    return out


def _kind(value) -> str:
    """The JSON kind; an [re, im] pair counts as a number."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, list) and len(value) == 2 and all(_kind(x) == "number" for x in value):
        return "number"
    return type(value).__name__


def _sites(doc):
    """(path, field key, value) of every object field at any depth and of
    the first item along each list."""
    def walk(node, path, key):
        if isinstance(node, dict):
            for k, v in node.items():
                yield path + (k,), k, v
                yield from walk(v, path + (k,), k)
        elif isinstance(node, list) and node:
            yield path + (0,), key, node[0]
            yield from walk(node[0], path + (0,), key)
    yield from walk(doc, (), None)


def _parent(doc, path):
    for p in path[:-1]:
        doc = doc[p]
    return doc


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("cls", CLASSES)
def test_every_mutated_field_is_refused_by_name_or_runs(capsys, tmp_path, documents, cls):
    argv, path, doc = documents[cls]
    base, _, _ = _run(capsys, argv)
    target = str(tmp_path / "mutated.json")
    faults, count = [], 0
    for site, key, orig in _sites(doc):
        deletable = isinstance(site[-1], str)
        for value, delete in [(v, False) for v in VALUES] + [(None, True)] * deletable:
            mutated = copy.deepcopy(doc)
            parent = _parent(mutated, site)
            if delete:
                del parent[site[-1]]
            else:
                parent[site[-1]] = value
            with open(target, "w") as fh:
                json.dump(mutated, fh)
            code, out, err = _run(capsys, [target if a == path else a for a in argv])
            count += 1
            report = json.loads(out) if out.strip() else {}
            messages = [v.get("message", "") for v in report.get("violations", [])
                        if isinstance(v, dict)]
            # a deleted optional field may leave a document that another
            # field of the same object contradicts
            named = [key] + ([k for k in _parent(doc, site) if k != site[-1]] if delete else [])
            fault = None
            if code == 5:
                fault = "internal error"
            elif PYTHON_TEXT.search(err) or any(PYTHON_TEXT.search(m) for m in messages):
                fault = "Python error text"
            elif code == 2 and not (out == "" and any(str(k) in err for k in named)):
                fault = "input error that does not name the field"
            elif code != 2 and code != base and (delete or _kind(value) != _kind(orig)):
                fault = f"ran with exit {code} where the document exits {base}"
            if fault:
                faults.append((site, "deleted" if delete else value, code, fault,
                               err.strip() or messages))
    assert count > 20
    assert faults == []
