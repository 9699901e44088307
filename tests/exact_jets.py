"""An exact rational reference for the jet certificate.

`exact_by_length` computes what `jet_surjectivity_check` decides with
nothing rounded: the jets of the generators at s in `Fraction` arithmetic
(the float constants and coordinates read exactly), every word of at most
L generator jets less their values, multiplied out and truncated at the
jet order, and the rank of those words by Gaussian elimination over the
rationals. `random_family` draws the seeded small polynomial families the
tests compare on.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from diffalg.envelope import Const, Pow, Prod, Sum, Var


def _mul(p: dict, q: dict, n: int) -> dict:
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            k = tuple(i + j for i, j in zip(a, b))
            if sum(k) <= n:
                out[k] = out.get(k, 0) + x * y
    return out


def exact_jet(e, s: list[Fraction], n: int) -> dict:
    """{exponent: Fraction} of the Taylor polynomial of e at s in x - s,
    truncated at degree n."""
    m = len(s)
    zero = (0,) * m
    if isinstance(e, Const):
        return {zero: Fraction(e.value)}
    if isinstance(e, Var):
        out = {zero: s[e.index]}
        if n >= 1:
            out[tuple(int(i == e.index) for i in range(m))] = Fraction(1)
        return out
    if isinstance(e, Sum):
        out = dict(exact_jet(e.a, s, n))
        for k, c in exact_jet(e.b, s, n).items():
            out[k] = out.get(k, 0) + c
        return out
    if isinstance(e, Prod):
        return _mul(exact_jet(e.a, s, n), exact_jet(e.b, s, n), n)
    if isinstance(e, Pow):
        base, out = exact_jet(e.base, s, n), {zero: Fraction(1)}
        for _ in range(e.power):
            out = _mul(out, base, n)
        return out
    raise TypeError(e)


def exact_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def exact_by_length(gens, s, n: int, wordlen: int) -> tuple[list[int], int]:
    """(dimension of the span of the words of length <= L for L = 0 ..
    wordlen, exact rank of the Jacobian at s)."""
    s = [Fraction(float(x)) for x in s]
    m = len(s)
    zero = (0,) * m
    h = []
    for g in gens:
        jet = exact_jet(g, s, n)
        jet.pop(zero, None)
        h.append(jet)
    monomials = [k for k in itertools.product(range(n + 1), repeat=m) if sum(k) <= n]
    rows, out = [], []
    for r in range(wordlen + 1):
        for word in itertools.combinations_with_replacement(range(len(h)), r):
            prod = {zero: Fraction(1)}
            for j in word:
                prod = _mul(prod, h[j], n)
            rows.append([prod.get(k, Fraction(0)) for k in monomials])
        out.append(exact_rank(rows))
    units = [tuple(int(i == v) for i in range(m)) for v in range(m)]
    jacobian = exact_rank([[hj.get(u, Fraction(0)) for u in units] for hj in h]) if n else m
    return out, jacobian


def random_family(rng):
    """(generators, point, order): m <= 3 variables, at most 4 generators,
    order n <= 3. Each generator is a constant plus one to three terms c
    x^k with powers of at most 3 in its own variables, and some skip a
    variable; a third of the points are 0, where generators without a
    linear term lose rank."""
    m = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    gens = []
    for _ in range(k):
        own = [i for i in range(m) if rng.random() < 0.8] or [int(rng.integers(m))]
        expr = Const(float(np.round(rng.uniform(-2, 2), 3)))
        for _ in range(int(rng.integers(1, 4))):
            term = Const(float(np.round(rng.uniform(-2, 2), 3)))
            for i in own:
                p = int(rng.integers(0, 4))
                if p:
                    term = Prod(term, Pow(Var(i), p))
            expr = Sum(expr, term)
        gens.append(expr)
    s = [0.0] * m if rng.random() < 1 / 3 else np.round(rng.uniform(-1, 1, m), 4).tolist()
    return gens, s, n
