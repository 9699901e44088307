"""The jet certificate in the jet algebra at s against an exact rational
reference.

`exact_jets.exact_by_length` decides with nothing rounded what
`jet_surjectivity_check` decides in floating point. The seeded families
(`exact_jets.random_family`) are small polynomial generators, some at s =
0 and some missing a variable, so that both sides of Nakayama's lemma
occur: at a word length >= n the jets are spanned exactly when the
Jacobian at s has rank m.
"""
from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from diffalg import DomainError, envelope, jet_surjectivity_check, mi_count, parse_expr
from diffalg.envelope import Const, Prod, Sum, Var
from exact_jets import exact_by_length, random_family

FAMILIES = [random_family(np.random.default_rng(seed)) for seed in range(320)]


def test_families_cover_both_sides_of_nakayama():
    full = [exact_by_length(g, s, n, 1)[1] == len(s) for g, s, n in FAMILIES]
    assert 60 <= sum(full) <= len(full) - 60


@pytest.mark.parametrize("seed", range(len(FAMILIES)))
def test_by_length_equals_the_exact_reference(seed):
    gens, s, n = FAMILIES[seed]
    want = exact_by_length(gens, s, n, n + 1)[0]
    for wordlen in sorted({1, n, n + 1}):
        res = jet_surjectivity_check(gens, s, n, wordlen)
        assert res.by_length == want[:wordlen + 1]
        assert res.expected == mi_count(len(s), n)


@pytest.mark.parametrize("seed", range(len(FAMILIES)))
def test_passes_from_length_n_exactly_when_the_jacobian_has_rank_m(seed):
    gens, s, n = FAMILIES[seed]
    full = exact_by_length(gens, s, n, 1)[1] == len(s)
    for wordlen in (n, n + 1):
        res = jet_surjectivity_check(gens, s, n, wordlen)
        assert res.stalled and res.ok == full


@pytest.mark.parametrize("seed", range(0, len(FAMILIES), 4))
def test_spans_do_not_change_under_affine_rescaling(seed):
    gens, s, n = FAMILIES[seed]
    rng = np.random.default_rng(10_000 + seed)
    a = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), len(gens)))
    b = rng.uniform(-1e3, 1e3, len(gens))
    scaled = [Sum(Prod(Const(aj), g), Const(bj)) for g, aj, bj in zip(gens, a, b)]
    assert (jet_surjectivity_check(scaled, s, n, n + 1).by_length
            == jet_surjectivity_check(gens, s, n, n + 1).by_length)


# --- far points and scaled generators -------------------------------------------


@pytest.mark.parametrize("s", [1e4, 1e8, 1e160])
@pytest.mark.parametrize("n", [1, 2])
def test_coordinate_passes_far_from_the_origin(s, n):
    res = jet_surjectivity_check([Var(0)], [s], n)
    assert res.ok and res.by_length == list(range(1, n + 2))


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6])
def test_scaled_coordinate_spans_every_jet(c):
    res = jet_surjectivity_check([Prod(Const(c), Var(0))], [0.3], 2)
    assert res.ok and res.by_length == [1, 2, 3]


def test_jets_that_are_not_finite_are_refused():
    with pytest.raises(DomainError, match=r"at \[1\.35e\+308\] are not finite"):
        jet_surjectivity_check([parse_expr("(pow (var 0) 2)", 1)], [1.35e308], 2)


def test_variable_outside_the_point_is_refused():
    with pytest.raises(DomainError, match="outside the algebra's variables"):
        jet_surjectivity_check([Var(2)], [0.0, 0.0], 1)


def test_order_zero_is_the_constants():
    res = jet_surjectivity_check([Var(0)], [0.5], 0)
    assert res.ok and res.by_length == [1, 1] and res.expected == 1


# --- design -------------------------------------------------------------------


def test_envelope_imports_nothing_from_jets_or_multiindex():
    path = pathlib.Path(envelope.__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"jets", "multiindex", "diffalg.jets", "diffalg.multiindex"}


def test_one_check_builds_one_algebra_of_the_jet_order(monkeypatch):
    built = []
    real = envelope.truncated_poly

    def counting(m, degree):
        built.append((m, degree))
        return real(m, degree)

    monkeypatch.setattr(envelope, "truncated_poly", counting)
    gens = [parse_expr("(pow (var 0) 9)", 2), parse_expr("(* (var 1) (var 0))", 2)]
    jet_surjectivity_check(gens, [0.5, 0.5], 3, wordlen=5)
    assert built == [(2, 3)]
