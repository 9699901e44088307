"""The input rules of diffalg._input, through the API that calls them."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from diffalg import (DomainError, StructureAlgebra, check_stabilization, diff_order,
                     envelope_verdict, fourier_check, function_algebra, parse_expr)
from diffalg._input import Fields, envelope_options, indices
from diffalg import diffcalc
from diffalg.algebra import MAX_NAMED_DIM, LinearOp
from diffalg.diffcalc import MAX_TOWER_DEPTH, RelativeOp


@pytest.mark.parametrize("rows, want", [
    ([[0, 1], [2, 0]], [[0, 1], [2, 0]]),
    ([[0, 1.0], [2.0, 0]], [[0, 1], [2, 0]]),
    ([], np.zeros((0, 0))),
])
def test_indices_read_integers_and_integral_floats(rows, want):
    got = indices("index", rows)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows, message", [
    ([[0, 0.7]], "index entry must be an integer, not 0.7"),
    ([[0, True]], "index entry must be an integer, not True"),
    ([[0, "1"]], "index entry must be an integer, not '1'"),
    ([[0, None]], "index entry must be an integer, not None"),
    ([[0, [1]]], "index entry must be an integer, not [1]"),
    ([[0, -2]], "index entry must be >= 0, not -2"),
    ([[0, 2 ** 70]], "index entry is beyond the 64-bit integer range"),
    ([[0, 1e300]], "index entry is beyond the 64-bit integer range"),
    ([[0], [0, 1]], "each index must be a list of integers, all of one length"),
    ([3], "each index must be a list of integers, all of one length"),
])
def test_indices_refuse_anything_else(rows, message):
    with pytest.raises(ValueError) as exc:
        indices("index", rows)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 1e300])
def test_integers_stay_in_the_64_bit_range(value):
    with pytest.raises(ValueError, match="^n is beyond the 64-bit integer range$"):
        Fields({"n": value}).integer("n")
    assert Fields({"n": 2 ** 63 - 1}).integer("n") == 2 ** 63 - 1


def test_fields_name_their_path():
    doc = Fields({"a": {"b": [1.5]}, "n": 2.0}, "top")
    assert doc.integer("n") == 2
    inner = Fields(doc.raw("a"), doc.name("a"))
    with pytest.raises(ValueError, match=r"^top\.a\.b must be a non-empty list of equal"):
        inner.array("b", (None, None))
    with pytest.raises(ValueError, match=r"^top\.a\.c is missing$"):
        inner.text("c")
    assert inner.text("c", None) is None
    with pytest.raises(ValueError, match=r"^top\.a must be an object, not 3$"):
        Fields(3, "top.a")


def test_envelope_options_read_back_as_themselves():
    given = {"tol_sep": 1e-6, "tol_rank": 0, "jet_order": 2.0, "jet_points": [[0.5]]}
    read = envelope_options(given, 1)
    assert read == {"tol_sep": 1e-6, "tol_rank": 0.0, "jet_order": 2, "jet_points": [[0.5]]}
    assert envelope_options(read, 1) == read
    assert envelope_options({}, 1) == {}


@pytest.mark.parametrize("options, message", [
    ([("tol_sep", 0.5)], "options must be an object"),
    ({"tol_sep": "0.5"}, "options.tol_sep must be a number, not '0.5'"),
    ({"tol_rank": True}, "options.tol_rank must be a number, not True"),
    ({"jet_order": 1, "jet_wordlen": 0}, "options.jet_wordlen must be >= 1, not 0"),
    ({"jet_order": 1, "jet_points": [[10 ** 400]]}, "each of jet_points must be a list of 1"),
])
def test_envelope_verdict_refuses_options_off_their_rule(options, message):
    with pytest.raises(ValueError, match=message):
        envelope_verdict([parse_expr("(var 0)", 1)], [(0.0, 1.0)], 5, options)


@pytest.mark.parametrize("box", [[(True, 1.0)], [("0", "1")], [(0.0, 10 ** 400)]])
def test_envelope_verdict_refuses_a_box_of_non_numbers(box):
    with pytest.raises(ValueError, match="^box "):
        envelope_verdict([parse_expr("(var 0)", 1)], box, 5)


def test_an_order_zero_jet_certificate_runs():
    v = envelope_verdict([parse_expr("(var 0)", 1)], [(0.0, 1.0)], 5, {"jet_order": 0})
    assert v.status == "PASS"


@pytest.mark.parametrize("field, value, message", [
    ("dim", 1.5, "dim must be an integer, not 1.5"),
    ("dim", 0, "dim must be >= 1, not 0"),
    ("dim", None, "dim must be an integer, not None"),
    ("labels", [3], "labels must be null or a list of 1 strings, not [3]"),
    ("labels", ["a", "b"], "labels must be null or a list of 1 strings"),
    ("structure", 7, "structure must be 3-fold nested lists"),
])
def test_from_dict_refuses_fields_off_their_rule(field, value, message):
    doc = {"dim": 1, "structure": [[[[1.0, 0.0]]]], "involution": [[[1.0, 0.0]]],
           "unit": [[1.0, 0.0]], field: value}
    with pytest.raises(ValueError) as exc:
        StructureAlgebra.from_dict(doc)
    assert str(exc.value).startswith(message)


def test_from_dict_of_missing_fields_names_them():
    with pytest.raises(ValueError, match="^unit is missing$"):
        StructureAlgebra.from_dict({"dim": 1, "structure": [[[1.0]]], "involution": [[1.0]]})
    alg = StructureAlgebra.from_dict({"dim": 1, "structure": [[[1.0]]], "involution": [[1.0]],
                                      "unit": [1.0], "labels": ["one"]})
    assert alg.labels == ["one"]


@pytest.mark.parametrize("depth", [0, 1, -3])
def test_stabilization_needs_two_levels(depth):
    a = function_algebra(2)
    with pytest.raises(ValueError, match=f"depth must be >= 2, not {depth}"):
        check_stabilization(LinearOp.identity(a), depth)


@pytest.mark.parametrize("depth", [MAX_TOWER_DEPTH + 1, 2 ** 40])
def test_stabilization_refuses_a_tower_deeper_than_any_chain(monkeypatch, depth):
    """An ascending chain in a target of dimension at most MAX_NAMED_DIM is
    constant after MAX_NAMED_DIM + 1 levels; a deeper request is refused
    before any level is built."""
    assert MAX_TOWER_DEPTH == MAX_NAMED_DIM + 1
    monkeypatch.setattr(diffcalc, "z_tower", None)
    a = function_algebra(2)
    with pytest.raises(ValueError, match=f"^depth must be <= {MAX_TOWER_DEPTH}, not {depth}$"):
        check_stabilization(LinearOp.identity(a), depth)


def test_fields_refuse_the_keys_no_read_asked_for():
    doc = Fields({"a": 1, "b": 2.5, "c": True}, "doc")
    assert (doc.integer("a"), doc.integer("z", 7)) == (1, 7)
    with pytest.raises(ValueError, match=r"^unknown field 'doc\.b'; the fields are a, z$"):
        doc.done()
    assert doc.tolerance("b") == 2.5 and doc.flag("c")
    doc.done()


def test_diff_order_refuses_a_negative_bound():
    a = function_algebra(2)
    p = RelativeOp(LinearOp.identity(a), LinearOp.identity(a))
    with pytest.raises(ValueError, match="max_order must be >= 0, not -1"):
        diff_order(p, list(np.eye(2)), -1)
    assert diff_order(p, list(np.eye(2)), 0) == 0


@pytest.mark.parametrize("group", ["Z99999999999", (99999999999,), [4096, 2]])
def test_fourier_refuses_a_large_order_before_its_tables(group):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the supported bound 4096"):
            fourier_check(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
