"""Properties of exact multi-index arithmetic.

Invariants exercised:
  * add/sub round trip whenever the difference is defined
  * enumeration is graded, duplicate-free, and has the closed-form count
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from diffalg import (
    DomainError,
    mi_add,
    mi_count,
    mi_enumerate,
    mi_sub,
)

small_index = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


@given(st.data())
def test_add_sub_roundtrip(data):
    a = data.draw(small_index)
    b = data.draw(st.lists(st.integers(0, 6), min_size=len(a), max_size=len(a)))
    s = mi_add(a, b)
    assert mi_sub(s, b) == tuple(a)
    assert mi_sub(s, a) == tuple(b)
    assert sum(s) == sum(a) + sum(b)


@given(st.data())
def test_sub_requires_domination(data):
    a = data.draw(small_index)
    bumped = list(a)
    bumped[0] += 1
    with pytest.raises(DomainError):
        mi_sub(a, bumped)


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        mi_add((1, -1), (0, 0))


@given(st.integers(1, 4), st.integers(0, 6))
def test_enumerate_graded_and_complete(m, n):
    idx = mi_enumerate(m, n)
    assert len(idx) == mi_count(m, n) == math.comb(m + n, m)
    assert len(set(idx)) == len(idx)
    grades = [sum(k) for k in idx]
    assert grades == sorted(grades)
    assert all(len(k) == m for k in idx)
    # within a grade: lexicographically descending, so x^n comes before y^n
    for g in range(n + 1):
        block = [k for k in idx if sum(k) == g]
        assert block == sorted(block, reverse=True)


def test_enumerate_prefix_stability():
    # raising the degree bound only appends new grades
    idx3 = mi_enumerate(2, 3)
    idx5 = mi_enumerate(2, 5)
    assert idx5[: len(idx3)] == idx3


def test_enumerate_rejects_bad_shape():
    with pytest.raises(ValueError):
        mi_enumerate(0, 3)
    with pytest.raises(ValueError):
        mi_enumerate(2, -1)
