"""One reader per argument kind.

Every public callable that takes an element (an `Element` or a coordinate
vector) reads it with `algebra._coords`, every one that takes a spanning
set or generator list with `algebra._rows`, and every one that takes a
multi-index from its caller with `MonomialTable.row`. So each of them
refuses an `Element` of another algebra with `DomainError`, a vector or
row of another length with `ValueError`, and a malformed or out-of-range
multi-index with `ValueError`; valid input gives the same bits whether it
comes as an `Element`, an array or a list.
"""
from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from diffalg import (Character, DerivativeSystem, DomainError, Element, LinearOp, RelativeOp,
                     SeriesElement, Subspace, TangentVector, commutator, coords_to_series,
                     cotangent_class, dauns_hofmann_check, diff_order, function_algebra,
                     jet_project, left_multiply, matrix_algebra, monomial_about,
                     multiplication_matrix, quotient_seminorm, series_algebra, subalgebra,
                     taylor_system, taylor_truncate, truncated_poly, z_tower_from_images)
from diffalg._linalg import in_span
from diffalg.jets import ChartBasis
from diffalg.multiindex import MonomialTable

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "diffalg"

# Three algebras of dimension 4, so an element of one has the length of
# the others' vectors: func:4, matrix:2 and poly:1:3.
F4, M2, P13 = function_algebra(4), matrix_algebra(2), truncated_poly(1, 3)
SERIES = series_algebra(function_algebra(1), 1, 3)
SYSTEM = taylor_system(1, 3, [0.5])
POINT = Character(F4, np.eye(4)[0])
OP = np.arange(16.0).reshape(4, 4) - 7.5j
M2_OP = RelativeOp(LinearOp(OP, M2, M2), LinearOp.identity(M2), check=False)


def _series_with(x):
    s = SeriesElement(F4, 1, 2)
    s[(1,)] = x
    return s.coeffs


def _tower(x):
    return [level.basis for level in z_tower_from_images(M2, [x], 2).levels]


def _subalgebra(x):
    sub, incl = subalgebra(F4, [F4.unit, x])
    return sub.structure, sub.involution, incl.matrix


# name: (algebra of the argument, call with the argument, reference from its coordinates)
ELEMENT_CASES = {
    "Subspace": (F4, lambda x: Subspace(F4, [x]).basis, None),
    "Subspace.contains": (F4, lambda x: Subspace(F4, np.eye(4)[1:3]).contains(x),
                          lambda v: bool(in_span(v, np.eye(4)[1:3]).all())),
    "Character.__call__": (F4, lambda x: POINT(x), lambda v: complex(POINT.functional @ v)),
    "LinearOp.__call__": (F4, lambda x: LinearOp(OP, F4, F4)(x).coords, lambda v: OP @ v),
    "TangentVector.__call__": (F4, lambda x: TangentVector(F4, np.arange(4.0), POINT)(x),
                               lambda v: complex(np.arange(4.0) @ v)),
    "subalgebra": (F4, _subalgebra, None),
    "cotangent_class": (F4, lambda x: cotangent_class(F4, POINT, x).class_coords, None),
    "commutator": (M2, lambda x: commutator(M2_OP, x).matrix, None),
    "left_multiply": (M2, lambda x: left_multiply(x, M2_OP).matrix,
                      lambda v: M2.left_mul_matrix(v) @ OP),
    "diff_order": (M2, lambda x: diff_order(M2_OP, [x], 2), None),
    "z_tower_from_images": (M2, _tower, None),
    "jet_project": (P13, lambda x: jet_project(P13, x, [0.5], 1).coords, None),
    "taylor_truncate": (P13, lambda x: taylor_truncate(P13, x, [0.5], 1).coords, None),
    "quotient_seminorm": (P13, lambda x: quotient_seminorm(P13, x, [0.5], 1), None),
    "ChartBasis.to_chart": (P13, lambda x: ChartBasis(P13, [0.5]).to_chart(x), None),
    "ChartBasis.from_chart": (P13, lambda x: ChartBasis(P13, [0.5]).from_chart(x),
                              lambda v: ChartBasis(P13, [0.5]).matrix @ v),
    "PolyAlgebra.evaluate": (P13, lambda x: P13.evaluate(x, [0.5]),
                             lambda v: complex(v @ 0.5 ** np.arange(4))),
    "SeriesElement.__setitem__": (F4, _series_with, None),
    "coords_to_series": (SERIES, lambda x: coords_to_series(SERIES, x).coeffs,
                         lambda v: v.reshape(4, 1)),
    "DerivativeSystem.apply": (SYSTEM.source, lambda x: SYSTEM.apply((1,), x).coords,
                               lambda v: SYSTEM.stack[1] @ v),
    "dauns_hofmann_check": (F4, lambda x: dauns_hofmann_check(F4, central=[F4.unit, x]), None),
}


def _other(algebra):
    """An algebra of the same dimension that is not `algebra`."""
    return M2 if algebra is F4 else F4


def _same_bits(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ELEMENT_CASES)
def test_an_element_of_another_algebra_is_a_domain_error(name):
    algebra, call, _ = ELEMENT_CASES[name]
    with pytest.raises(DomainError, match="different algebra"):
        call(_other(algebra).basis_element(1))


@pytest.mark.parametrize("name", ELEMENT_CASES)
@pytest.mark.parametrize("length", [3, 5])
def test_a_vector_of_another_length_is_a_value_error(name, length):
    algebra, call, _ = ELEMENT_CASES[name]
    with pytest.raises(ValueError, match=f"length {length} in an algebra of dimension 4"):
        call(np.eye(length)[1])


@pytest.mark.parametrize("name", ELEMENT_CASES)
def test_valid_input_gives_the_same_bits_in_every_form(name):
    """An Element, its coordinate array and the list of its coordinates
    give the same result, to the last bit, and so does the formula that
    the callable evaluates where it is one line."""
    algebra, call, ref = ELEMENT_CASES[name]
    v = (2.0 - 1.0j) * np.eye(algebra.dim)[1]
    got = call(Element(algebra, v))
    assert _same_bits(got, call(v))
    assert _same_bits(got, call(v.tolist()))
    if ref is not None:
        assert _same_bits(got, ref(v))


@pytest.mark.parametrize("call", [
    lambda other: dauns_hofmann_check(F4, central=other),
    lambda other: Subspace(F4, other),
    lambda other: Subspace(F4, np.eye(4)[:2]).contains_subspace(other),
    lambda other: Subspace(F4, np.eye(4)[:2]).equals(other),
    lambda other: Subspace(F4, np.eye(4)[:2]).add(other),
])
def test_a_subspace_of_another_algebra_is_a_domain_error(call):
    with pytest.raises(DomainError, match="different algebra"):
        call(Subspace(M2, np.eye(4)[:2]))


def test_a_subspace_counts_as_its_basis():
    assert np.array_equal(Subspace(F4, Subspace.whole(F4)).basis,
                          Subspace(F4, Subspace.whole(F4).basis).basis)


def test_a_value_that_is_no_vector_is_a_value_error():
    with pytest.raises(ValueError, match="dict is not a coordinate vector"):
        POINT({1: 2.0})
    with pytest.raises(ValueError, match="rows of length 3 in an algebra of dimension 4"):
        Subspace(F4, np.ones((2, 3)))


# --- multi-indices: m = 2 variables, order or degree 2 --------------------------

P22, F1 = truncated_poly(2, 2), function_algebra(1)
SYSTEM22 = taylor_system(2, 2, [0.5, -1.0])


def _series_get(k):
    s = SeriesElement(F1, 2, 2)
    s.coeffs[:, 0] = np.arange(6.0) + 1j
    return s[k]


def _series_set(k):
    s = SeriesElement(F1, 2, 2)
    s[k] = [3.0 - 1j]
    return s.coeffs


INDEX_CASES = {
    "MonomialTable.row": lambda k: MonomialTable(2, 2).row(k),
    "SeriesElement.__getitem__": _series_get,
    "SeriesElement.__setitem__": _series_set,
    "DerivativeSystem": lambda k: DerivativeSystem(P22, F1, 2, 2, {k: np.ones((1, 6))}).stack,
    "DerivativeSystem.op_matrix": lambda k: SYSTEM22.op_matrix(k),
    "DerivativeSystem.apply": lambda k: SYSTEM22.apply(k, np.arange(6.0)).coords,
    "jets dict polynomial": lambda k: quotient_seminorm(P22, {k: 1.0}, [0.5, 0.5], 0),
    "multiplication_matrix": lambda k: multiplication_matrix(P22, P22, {k: 1.0}),
    "monomial_about": lambda k: monomial_about(P22, [0.5, -1.0], k).coords,
}

DICT_KEYS = {"DerivativeSystem", "jets dict polynomial", "multiplication_matrix"}
MALFORMED = [(1,), (1, 0, 0), (-1, 1), (1.5, 0), (1.0, 0), "ab", 3, None]


@pytest.mark.parametrize("name", INDEX_CASES)
@pytest.mark.parametrize("k", MALFORMED, ids=repr)
def test_a_malformed_multi_index_is_a_value_error(name, k):
    with pytest.raises(ValueError, match="outside the indices|not a sequence of integers"):
        INDEX_CASES[name](k)


@pytest.mark.parametrize("name", [name for name in INDEX_CASES if name != "multiplication_matrix"])
@pytest.mark.parametrize("k", [(3, 0), (2, 1), (0, 7)])
def test_an_index_above_the_order_is_a_value_error(name, k):
    with pytest.raises(ValueError, match=rf"index \({k[0]}, {k[1]}\) is outside the indices "
                                         r"of order N=2 in m=2 variables"):
        INDEX_CASES[name](k)


def test_multiplication_drops_a_term_above_the_target_degree():
    """x^beta x^alpha lies above the degree for every alpha, so such a
    term goes nowhere, as it always did."""
    assert not multiplication_matrix(P22, P22, {(3, 0): 1.0, (0, 7): 2.0}).any()


@pytest.mark.parametrize("name", INDEX_CASES)
def test_a_valid_multi_index_gives_the_same_bits_in_every_form(name):
    call = INDEX_CASES[name]
    got = call((1, 1))
    forms = [(np.int64(1), np.int32(1)), (True, 1)]
    if name not in DICT_KEYS:  # a dict key must be hashable
        forms += [[1, 1], np.array([1, 1])]
    for k in forms:
        assert _same_bits(got, call(k))


def test_the_row_is_the_graded_rank():
    table = MonomialTable(3, 4)
    assert [table.row(k) for k in table.exponents] == list(range(table.dim))


def test_the_operator_index_message_names_the_operator():
    with pytest.raises(ValueError) as info:
        DerivativeSystem(truncated_poly(1, 1), F1, 1, 1, {(2,): [[0.0, 1.0]]})
    assert str(info.value) == ("operator index (2,) is outside the indices of order N=1 "
                               "in m=1 variables")


# --- the readers are the only readers --------------------------------------------


def _isinstance_element_sites():
    """(module, enclosing function or class) of every isinstance(..., Element)."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and "Element" in {n.id for n in ast.walk(node.args[1])
                                      if isinstance(n, ast.Name)}):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
                    scope = parents[scope]
                owner = parents.get(scope)
                name = (f"{owner.name}.{scope.name}" if isinstance(owner, ast.ClassDef)
                        else scope.name)
                sites.append((path.name, name))
    return sites


def test_only_the_reader_and_element_test_for_elements():
    sites = _isinstance_element_sites()
    assert ("algebra.py", "_coords") in sites
    assert all(module == "algebra.py" and (name == "_coords" or name.startswith("Element."))
               for module, name in sites), sites


def test_the_replaced_readers_are_gone():
    import diffalg._linalg
    import diffalg.algebra
    import diffalg.diffcalc
    import diffalg.series

    assert diffalg.diffcalc._coords is diffalg.algebra._coords
    assert not hasattr(diffalg._linalg, "as_matrix")
    assert not hasattr(diffalg.series.SeriesElement, "_row")


ELEMENT_OPERANDS = {
    "+": lambda x: (F4.one() + x).coords,
    "-": lambda x: (F4.one() - x).coords,
    "isclose": lambda x: F4.one().isclose(x),
}


@pytest.mark.parametrize("op", ELEMENT_OPERANDS)
def test_element_operands_are_read_as_elements(op):
    call = ELEMENT_OPERANDS[op]
    x = np.array([1.0, -2.0, 0.5j, 1.0])
    assert _same_bits(call(x), call(Element(F4, x)))
    assert _same_bits(call(list(x)), call(Element(F4, x)))
    assert _same_bits(call(np.ones(4)), call(F4.one()))
    with pytest.raises(ValueError, match="a vector of length 3 in an algebra of dimension 4"):
        call(np.ones(3))
    with pytest.raises(DomainError, match="different algebra"):
        call(M2.one())
