"""The function names the benchmark tracer reports on, against the package.

`perfbench/tracer.py` (loaded by path) names functions by qualified name,
module then class and attribute, in BOUNDARIES, COUNTED, CONTRACTIONS and
ALLOC_FUNCTIONS, and looks each one up among the functions it wraps. A
name that is gone from the package makes every `run.py --trace 1` run fail
with a KeyError, so each name must resolve to a function or method of
diffalg and be among the tracer's wrap targets.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
NAMES = sorted({q for quals in TRACER.BOUNDARIES.values() for q in quals}
               | set(TRACER.COUNTED) | set(TRACER.CONTRACTIONS)
               | set(TRACER.ALLOC_FUNCTIONS.values()))


def resolve(qual: str):
    layer, *attrs = qual.split(".")
    obj = importlib.import_module(f"{TRACER.PACKAGE}.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.fixture(scope="module")
def targets():
    for layer in TRACER.LAYERS:
        importlib.import_module(f"{TRACER.PACKAGE}.{layer}")
    return {t[1] for t in TRACER._targets(TRACER._modules())}


@pytest.mark.parametrize("qual", NAMES)
def test_name_resolves_to_a_wrapped_function(qual, targets):
    obj = resolve(qual)
    assert inspect.isfunction(obj) or inspect.ismethod(obj)
    assert qual in targets
