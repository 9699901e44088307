"""Command-line front end: file-based inputs, JSON reports, stable exits.

Exit codes: 0 success/PASS, 2 parse error (a ValueError: every input
field is read and refused by diffalg._input), 3 domain error or FAIL,
4 numeric failure or INCONCLUSIVE, 5 internal error (any other exception
in a subcommand, a KeyError or TypeError included, reported as {"type":
"internal", "message": "<ExceptionType>: <message>"} without a
traceback). When the reader of stdout closes it early, the rest of the
report is dropped and the exit code is still the request's own. Reports
carry the input digest and the seed, so identical inputs and seeds
produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import _linalg as la
from ._input import Fields, algebra, array, envelope_options, indices, integer, sized, tolerance
from .algebra import (Character, LinearOp, PolyAlgebra, function_algebra,
                      matrix_algebra, direct_sum, truncated_poly)
from .dersys import DerivativeSystem, _pack, from_homomorphism, verify_system
from .diffcalc import (MAX_TOWER_DEPTH, RelativeOp, check_stabilization, diff_order,
                       truncation_hom)
from .envelope import Reasons, envelope_verdict, parse_expr
from .errors import DomainError, NumericError
from .geometry import _duality
from .jets import jet_project, jet_space, quotient_seminorm, taylor_truncate
from .multiindex import mi_count
from .series import SeriesElement, ser_unit, series_algebra, series_to_coords
from .spectra import dauns_hofmann_check, fourier_check

__all__ = ["main"]


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()] if obj.ndim else to_jsonable(obj.item())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Reasons):
        return to_jsonable(obj.to_list())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _digest(subcommand: str, payload: bytes) -> str:
    return hashlib.sha256(subcommand.encode() + b":" + payload).hexdigest()


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_isfinite = math.isfinite
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


def _float_texts(items) -> list[str] | None:
    """The reprs of the items, or None unless every item is a finite float."""
    try:
        texts = list(map(_float_repr, items))
    except TypeError:
        return None
    return texts if all(map(_isfinite, items)) else None


def _list_pieces(texts: list[str], level: int) -> list[str]:
    """The pieces of a non-empty list at depth `level` whose item texts are
    given: the item texts with the brackets and separators interleaved."""
    inner = "\n" + "  " * (level + 1)
    parts = ["," + inner] * (2 * len(texts))
    parts[0] = "[" + inner
    parts[1::2] = texts
    parts.append("\n" + "  " * level + "]")
    return parts


def _complex_rows(items, level: int) -> list[str] | None:
    """The pieces at `level` of a list of complex numbers as their
    [real, imag] rows, or None unless every item is a complex number with
    finite parts: one row template, its real and imaginary texts written
    into their strides."""
    if not all(isinstance(z, complex) for z in items):
        return None
    parts = np.array(items, dtype=complex)
    if not np.isfinite(parts).all():
        return None
    row, cell = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    pieces = [row + "]," + row + "[" + cell, None, "," + cell, None] * len(items)
    pieces[0] = "[" + row + "[" + cell
    pieces[1::4] = map(_float_repr, parts.real.tolist())
    pieces[3::4] = map(_float_repr, parts.imag.tolist())
    pieces.append(row + "]" + "\n" + "  " * level + "]")
    return pieces


def _write(obj, level: int, out: list[str]) -> None:
    """Appends the pieces of obj's JSON text at nesting depth `level` to
    out; see _render."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        first = obj[0]
        texts = _float_texts(obj) if isinstance(first, float) else None
        pieces = (_list_pieces(texts, level) if texts is not None else
                  _complex_rows(obj, level) if isinstance(first, complex) else None)
        if pieces is not None:
            out += pieces
            return
        inner = "\n" + "  " * (level + 1)
        out.append("[" + inner)
        sep = "," + inner
        for x in obj:
            _write(x, level + 1, out)
            out.append(sep)
        out[-1] = "\n" + "  " * level + "]"
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = ",\n" + "  " * (level + 1)
        opened = len(out)
        for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(sep + _encode_str(k) + ": ")
            _write(v, level + 1, out)
        # the dict opens where its first separator stands
        out[opened] = "{" + out[opened][1:]
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, Reasons):
        if len(obj):
            obj._json_pieces(level, _write, out)
        else:
            out.append("[]")
    else:
        _write(to_jsonable(obj), level, out)


def _render(obj, level: int = 0) -> str:
    """JSON text of obj at nesting depth `level`, byte-identical to what
    json.dumps(to_jsonable(obj), sort_keys=True, indent=2) writes there.

    Values json writes natively are rendered inline; any other leaf goes
    through to_jsonable, the single conversion rule. The whole text is
    written as pieces into one list (brackets, separators, keys and item
    texts) and joined once, so each byte is copied once however deep it
    sits. A verdict's Reasons writes its own pieces at each depth it
    appears at, as the list of dicts it stands for, from axis texts made
    once.
    """
    out: list[str] = []
    _write(obj, level, out)
    return "".join(out)


def _emit(report: dict, out: str | None):
    # the text and the newline are written apart: joining them would copy
    # the whole report once more
    text = _render(report)
    if out:
        with open(out, "w") as fh:
            for lo in range(0, len(text), 2 ** 16):  # encoded a slice at a time
                fh.write(text[lo:lo + 2 ** 16])
            fh.write("\n")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; send what is left to the null device, so
            # that the interpreter's last flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- subcommand handlers ----------------------------------------------
# each returns (results, violations, exit_code)


def cmd_algebra_check(data, args):
    alg = algebra("", data, check=False)
    bad = alg.axiom_violations(args.tol_zero)
    results = {
        "dim": alg.dim,
        "commutative": alg.is_commutative(),
        "axioms_ok": not bad,
    }
    violations = [{"type": "axiom", "message": m} for m in bad]
    return results, violations, (0 if not bad else 3)


def cmd_dersys_verify(data, args):
    doc = Fields(data)
    m, order = doc.integer("m"), doc.integer("N")
    source, target = doc.algebra("source"), doc.algebra("target")
    index, matrix = doc.rows("ops", "index", "matrix")
    doc.done()
    index = indices("index", index)
    if matrix:
        matrix = sized("ops matrix", array("ops matrix", matrix, (None, None, None)),
                       (None, target.dim, source.dim))
    system = DerivativeSystem(source, target, m, order,
                              dict(zip(map(tuple, index.tolist()), matrix)))
    report = verify_system(system, args.tol_zero)
    results = {"m": m, "N": order, "ok": report.ok,
               "max_residual": report.max_residual}
    violations = [{"type": "axiom", "axiom": v["axiom"],
                   "index": list(v["index"]), "pair": v["pair"],
                   "residual": v["residual"]} for v in report.violations]
    if report.ok:
        _pack(system, args.tol_zero)
        results["packs_to_homomorphism"] = True
    return results, violations, (0 if report.ok else 3)


def cmd_difforder(data, args):
    doc = Fields(data)
    source = doc.algebra("source")
    target = doc.algebra("target", default=source)
    dims = (target.dim, source.dim)
    op_mat = doc.array("operator", (None, None), dims=dims)
    action_mat = doc.array("action", (None, None), default=None, dims=dims)
    gens = doc.array("generators", (None, None), default=None, dims=(None, source.dim))
    max_n = doc.integer("max_order", 6, low=0)
    doc.done()
    if action_mat is not None:
        action = LinearOp(action_mat, source, target)
    elif target is source:
        action = LinearOp.identity(source)
    elif (isinstance(source, PolyAlgebra) and isinstance(target, PolyAlgebra)
          and source.mvars == target.mvars and target.degree <= source.degree):
        action = truncation_hom(source, target)
    else:
        raise ValueError("an explicit action matrix is required for this pair")
    p = RelativeOp(LinearOp(op_mat, source, target), action)
    gens = np.eye(source.dim) if gens is None else gens
    order = diff_order(p, gens, max_n, tol=max(args.tol_zero, 1e-10),
                       samples=args.instances, seed=args.seed)
    results = {"order": order, "max_order": max_n,
               "generator_count": len(gens)}
    return results, [], 0


def cmd_ztower(data, args):
    doc = Fields(data)
    source, target = doc.algebra("source"), doc.algebra("target")
    phi_mat = doc.array("phi", (None, None), dims=(target.dim, source.dim))
    depth = doc.integer("depth", 2, low=2, high=MAX_TOWER_DEPTH)
    enforce = doc.flag("enforce", False)
    doc.done()
    phi = LinearOp(phi_mat, source, target)
    rep = check_stabilization(phi, depth, enforce_preconditions=enforce, tol=args.tol_zero)
    results = {k: rep[k] for k in ("involutive", "involution_residual", "dims",
                                   "z1_dim", "z2_dim", "stabilized",
                                   "mutual_containment")}
    violations = []
    code = 0
    if rep["involutive"] and not rep["stabilized"]:
        violations.append({"type": "stabilization", "dims": rep["dims"],
                           "message": "involutive action with a non-constant tower"})
        code = 3
    return results, violations, code


def cmd_jet(data, args):
    doc = Fields(data)
    m, order = doc.integer("m"), doc.integer("order")
    point = doc.array("point", (None,), finite=False, real=True)
    index, coeffs = doc.rows("f", "index", "coeff")
    index = indices("index", index)
    coeffs = array("coeff", coeffs, (None,), finite=False) if coeffs else np.zeros(0)
    degree = doc.integer("degree", None)
    doc.done()
    degf = int(index.sum(axis=1).max(initial=0))
    bound = max(order + 2, degf) if degree is None else degree
    if degf > bound:
        raise ValueError(f"polynomial degree {degf} exceeds the bound {bound}")
    alg = truncated_poly(m, bound)
    rows = alg.table.rows(index)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        i = bad[0]
        raise ValueError(f"coefficient {coeffs[i]} of index {index[i].tolist()} is not finite")
    coords = np.zeros(alg.dim, dtype=complex)
    np.add.at(coords, rows, coeffs)
    # overflow from finite inputs shows as a NaN route residual (exit 4)
    with np.errstate(all="ignore"):
        jt = jet_project(alg, coords, point, order, route="taylor")
        js = jet_project(alg, coords, point, order, route="solve")
        residual = float(np.abs(jt.coords - js.coords).max())
        if not residual <= 1e-8 * (1.0 + float(np.abs(coords).max())):
            raise NumericError(f"jet routes disagree by {residual:.2e}")
        seminorm = quotient_seminorm(alg, coords, point, order)
        if not math.isfinite(seminorm):
            raise NumericError("jet seminorm is beyond the float range")
        space = jet_space(alg, point, order)
        results = {
            "jet": list(jt.coords),
            "labels": space.quotient.labels,
            "dim": space.quotient.dim,
            "expected_dim": mi_count(m, order),
            "routes_residual": residual,
            "seminorm": seminorm,
            "truncation": list(taylor_truncate(alg, coords, point, order).coords),
        }
    return results, [], 0


def cmd_tangent(data, args):
    doc = Fields(data)
    alg = doc.algebra("algebra")
    character = doc.array("character", (None,), default=None, dims=(alg.dim,))
    point = doc.array("point", (None,), real=True, default=None)
    real = doc.flag("real", False)
    doc.done()
    if character is not None:
        functional = character
    elif point is not None:
        if not isinstance(alg, PolyAlgebra):
            raise ValueError("point evaluation needs a polynomial algebra; "
                             "pass an explicit character vector instead")
        if len(point) != alg.mvars:
            raise ValueError(f"point must have {alg.mvars} entries, not {len(point)}")
        with np.errstate(over="ignore"):
            functional = alg.table.monomials(point).astype(complex)
        if not np.isfinite(functional).all():
            raise DomainError(f"point {point.tolist()} is out of reach: its monomials "
                              f"up to degree {alg.degree} are not finite")
    else:
        raise ValueError("need either a character vector or a point")
    ch = Character(alg, functional)
    if not ch.is_character(1e-8):
        raise DomainError("the functional is not a character of the algebra")
    taus, classes, gram = _duality(alg, ch, real)
    invertible = bool(gram.shape[0] == gram.shape[1] == la.rank(gram))
    results = {
        "tangent_dim": len(taus),
        "cotangent_dim": len(classes),
        "dims_equal": len(taus) == len(classes),
        "tangent_basis": [list(t.functional) for t in taus],
        "cotangent_representatives": [list(x.representative) for x in classes],
        "pairing_gram": [list(row) for row in gram],
        "gram_invertible": invertible,
    }
    ok = results["dims_equal"] and invertible
    violations = [] if ok else [{"type": "duality",
                                 "message": "tangent and cotangent data do not match"}]
    return results, violations, (0 if ok else 3)


def cmd_envelope(data, args):
    doc = Fields(data)
    m = doc.integer("m")
    if m < 1:
        raise ValueError("the box needs at least one axis (m >= 1)")
    gens = doc.each("generators", parse_expr, m)
    box = doc.array("box", (None, 2), finite=False, real=True)
    grid = doc.integer("grid")
    options = envelope_options(doc.raw("options", {}), m)
    doc.done()
    if len(box) != m:
        raise ValueError(f"box must list {m} intervals")
    verdict = envelope_verdict(gens, box, grid, options)
    # the reasons as the verdict holds them (a FAIL's Reasons is rendered
    # from its witness arrays, without building its dicts)
    reasons = verdict._reasons
    results = {"status": verdict.status, "reasons": reasons, "meta": verdict.meta}
    code = {"PASS": 0, "FAIL": 3, "INCONCLUSIVE": 4}[verdict.status]
    return results, reasons, code


def cmd_dauns_hofmann(data, args):
    if isinstance(data, str):
        alg, central = algebra("", data), None
    else:
        doc = Fields(data)
        alg = doc.algebra("algebra")
        central = doc.array("central", (None, None), default=None, dims=(None, alg.dim))
        doc.done()
    rep = dauns_hofmann_check(alg, central, tol=max(args.tol_zero, 1e-9),
                              seed=args.seed)
    violations = [] if rep["ok"] else [
        {"type": "decomposition", "fiber_dims": rep["fiber_dims"],
         "section_rank": rep["section_rank"],
         "message": "section map is not a unital *-isomorphism"}]
    return rep, violations, (0 if rep["ok"] else 3)


def cmd_fourier(data, args):
    spec = data
    if not isinstance(data, str):
        doc = Fields(data)
        spec = doc.text("group")
        doc.done()
    rep = fourier_check(spec, seed=args.seed)
    violations = [] if rep["ok"] else [
        {"type": "fourier", "message": "a transform identity failed",
         "residuals": {k: rep[k] for k in rep if k.endswith("_residual")}}]
    return rep, violations, (0 if rep["ok"] else 3)


# --- selftest sweeps ---------------------------------------------------


def _random_coords(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.abs(v).max()


def _random_series(rng, base, mvars, order) -> SeriesElement:
    s = SeriesElement(base, mvars, order)
    for row in s.coeffs:
        row[:] = _random_coords(rng, base.dim)
    return s


def _sweep_series(rng, instances):
    bases = [function_algebra(1), matrix_algebra(2), function_algebra(4)]
    failures, worst = 0, 0.0
    for i in range(instances):
        base = bases[i % len(bases)]
        m, order = 1 + i % 2, 2 + i % 2
        x = _random_series(rng, base, m, order)
        y = _random_series(rng, base, m, order)
        z = _random_series(rng, base, m, order)
        res = max(((x * y) * z - x * (y * z)).norm(),
                  ((x * y).star() - y.star() * x.star()).norm())
        worst = max(worst, res)
        if res > 1e-10:
            failures += 1
    return {"name": "series_ring_laws", "instances": instances,
            "failures": failures, "worst_residual": worst}


def _sweep_dersys(rng, instances):
    failures, worst = 0, 0.0
    for i in range(instances):
        base = matrix_algebra(2) if i % 2 else function_algebra(2)
        m, order = 1 + i % 2, 2
        source = truncated_poly(1, order)
        target = series_algebra(base, m, order)
        u = SeriesElement(base, m, order)
        for row in u.coeffs[1:]:
            c = _random_coords(rng, base.dim)
            row[:] = (c + base.star_coords(c)) / 2.0
        cols = []
        power = ser_unit(base, m, order)
        for _ in range(source.dim):
            cols.append(series_to_coords(target, power))
            power = power * u
        h = LinearOp(np.column_stack(cols), source, target)
        try:
            system = from_homomorphism(h)
            if not verify_system(system).ok:
                failures += 1
                continue
            back = _pack(system, 1e-9)
            res = float(np.abs(back.matrix - h.matrix).max())
        except (DomainError, NumericError):
            failures += 1
            continue
        worst = max(worst, res)
        if res > 1e-12:
            failures += 1
    return {"name": "derivative_system_round_trip", "instances": instances,
            "failures": failures, "worst_residual": worst}


def _sweep_towers(rng, instances):
    from .algebra import subalgebra
    failures = 0
    for i in range(instances):
        n = 2 + i % 3
        alg = matrix_algebra(n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = h + h.conj().T
        h /= np.linalg.norm(h, 2)
        rows = [np.eye(n, dtype=complex).reshape(-1)]
        power = np.eye(n, dtype=complex)
        for _ in range(n):
            power = power @ h
            rows.append(power.reshape(-1))
        sub, incl = subalgebra(alg, rows)
        rep = check_stabilization(incl, depth=3)
        if not (rep["involutive"] and rep["stabilized"]):
            failures += 1
    return {"name": "tower_stabilization", "instances": instances,
            "failures": failures, "worst_residual": 0.0}


def _sweep_jets(rng, instances):
    failures, worst = 0, 0.0
    for i in range(instances):
        m = 1 + i % 3
        order = 1 + i % 4
        alg = truncated_poly(m, order + 2)
        coords = _random_coords(rng, alg.dim)
        s = rng.uniform(-1.0, 1.0, size=m)
        jt = jet_project(alg, coords, s, order, route="taylor")
        js = jet_project(alg, coords, s, order, route="solve")
        res = float(np.abs(jt.coords - js.coords).max())
        worst = max(worst, res)
        if res > 1e-9 or jt.algebra.dim != mi_count(m, order):
            failures += 1
    return {"name": "jet_route_agreement", "instances": instances,
            "failures": failures, "worst_residual": worst}


def _sweep_truncation(rng, instances):
    failures, worst = 0, 0.0
    for i in range(instances):
        m = 1 + i % 2
        order = 1 + i % 3
        bound = order + 1
        big = truncated_poly(m, 2 * bound)
        low = range(mi_count(m, bound))
        f = np.zeros(big.dim, dtype=complex)
        g = np.zeros(big.dim, dtype=complex)
        f[low] = _random_coords(rng, len(low))
        g[low] = _random_coords(rng, len(low))
        s = rng.uniform(-1.0, 1.0, size=m)
        ef = taylor_truncate(big, f, s, order).coords
        eg = taylor_truncate(big, g, s, order).coords
        idem = float(np.abs(taylor_truncate(big, ef, s, order).coords - ef).max())
        gap = big.mul_coords(f, g) - big.mul_coords(ef, eg)
        cong = float(np.abs(jet_project(big, gap, s, order).coords).max())
        res = max(idem, cong)
        worst = max(worst, res)
        if idem > 1e-12 or cong > 1e-9:
            failures += 1
    return {"name": "taylor_truncation_laws", "instances": instances,
            "failures": failures, "worst_residual": worst}


def _sweep_envelope():
    x = parse_expr("(var 0)")
    x2 = parse_expr("(pow (var 0) 2)")
    x3 = parse_expr("(pow (var 0) 3)")
    box = [(-1.0, 1.0)]
    good = envelope_verdict([x], box, 51).status == "PASS"
    v = envelope_verdict([x2, x3], box, 51)
    bad = v.status == "FAIL" and any(r["condition"] == "tangent" for r in v.reasons)
    return {"name": "envelope_canonical", "instances": 2,
            "failures": int(not good) + int(not bad), "worst_residual": 0.0}


def _sweep_spectra(seed):
    failures = 0
    cases = [direct_sum(matrix_algebra(2), matrix_algebra(3)),
             matrix_algebra(3),
             function_algebra(4),
             direct_sum(matrix_algebra(2), function_algebra(2))]
    for alg in cases:
        if not dauns_hofmann_check(alg, seed=seed)["ok"]:
            failures += 1
    for spec in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z8xZ2"):
        if not fourier_check(spec, seed=seed)["ok"]:
            failures += 1
    return {"name": "spectra_checks", "instances": 10,
            "failures": failures, "worst_residual": 0.0}


def cmd_selftest(data, args):
    rng = np.random.default_rng(args.seed)
    n = args.instances
    suites = [
        _sweep_series(rng, n),
        _sweep_dersys(rng, max(5, n // 2)),
        _sweep_towers(rng, max(5, n // 3)),
        _sweep_jets(rng, n),
        _sweep_truncation(rng, n),
        _sweep_envelope(),
        _sweep_spectra(args.seed),
    ]
    violations = [{"type": "suite", "name": s["name"], "failures": s["failures"]}
                  for s in suites if s["failures"]]
    results = {"suites": suites, "ok": not violations}
    return results, violations, (0 if not violations else 3)


# --- driver ------------------------------------------------------------


HANDLERS = {
    "algebra-check": cmd_algebra_check,
    "dersys-verify": cmd_dersys_verify,
    "difforder": cmd_difforder,
    "ztower": cmd_ztower,
    "jet": cmd_jet,
    "tangent": cmd_tangent,
    "envelope": cmd_envelope,
    "dauns-hofmann": cmd_dauns_hofmann,
    "fourier": cmd_fourier,
    "selftest": cmd_selftest,
}

_INLINE_OK = {"algebra-check", "dauns-hofmann", "fourier"}


def _flag(parse, rule, *bounds):
    """An argparse type: the text read by `parse` and checked by its input rule."""
    def check(text):
        value = parse(text)  # argparse reports "invalid int value: ..." if this fails
        try:
            return rule("value", value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    check.__name__ = parse.__name__
    return check


def _seed(name, n):
    """np.random.default_rng takes any integer seed of at least 0."""
    if n < 0:
        raise ValueError(f"{name} must be >= 0, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Checks for structure-constant involutive algebras: "
                    "derivative systems, differential operators, jets, "
                    "tangent data, density certificates, fiberwise "
                    "decompositions, and the finite Fourier analogue.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_flag(int, _seed), default=0,
                        help="seed for randomized sweeps (recorded in the report)")
    common.add_argument("--tol-zero", type=_flag(float, tolerance), default=1e-9,
                        help="zero-test tolerance")
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--instances", type=_flag(int, integer, 1), default=100,
                        help="instance count for randomized sweeps")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "algebra-check": "validate the axioms of an algebra spec (name or file)",
        "dersys-verify": "check the axioms of a family of derivative operators",
        "difforder": "compute the order of a differential operator",
        "ztower": "compute the relative centralizer tower of an action",
        "jet": "project a polynomial to its finite jet at a point",
        "tangent": "tangent and cotangent data at a character",
        "envelope": "run the sampled density certificates on generators",
        "dauns-hofmann": "verify the fiberwise decomposition over a center",
        "fourier": "verify the finite abelian Fourier identities",
        "selftest": "run the randomized invariant sweeps",
    }
    for name, handler in HANDLERS.items():
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "selftest":
            continue
        p.add_argument("input",
                       help="input JSON file" + (" or inline spec string"
                                                 if name in _INLINE_OK else ""))
    return parser


# Built once per process: parse_args leaves the parser unchanged, and
# building its ten subparsers costs about as much as a small request.
_PARSER = build_parser()


def _load_input(args) -> tuple[object, bytes]:
    if args.subcommand == "selftest":
        payload = f"instances={args.instances}".encode()
        return None, payload
    raw = args.input
    if args.subcommand in _INLINE_OK and not raw.endswith(".json"):
        return raw, raw.encode()
    with open(raw, "rb") as fh:
        payload = fh.read()
    return json.loads(payload.decode()), payload


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        data, payload = _load_input(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # json reads nesting by recursion, so a deeply nested file ends there
        print(f"diffalg: input error: {exc}", file=sys.stderr)
        return 2

    base = {"subcommand": args.subcommand,
            "inputs_digest": _digest(args.subcommand, payload),
            "seed": args.seed}
    try:
        results, violations, code = HANDLERS[args.subcommand](data, args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        # before ValueError, which LinAlgError subclasses
        _emit({**base, "results": {},
               "violations": [{"type": "numeric", "message": str(exc)}]}, args.out)
        return 4
    except ValueError as exc:
        print(f"diffalg: parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        _emit({**base, "results": {},
               "violations": [{"type": "domain", "message": str(exc)}]}, args.out)
        return 3
    except Exception as exc:
        _emit({**base, "results": {},
               "violations": [{"type": "internal",
                               "message": f"{type(exc).__name__}: {exc}"}]}, args.out)
        return 5
    _emit({**base, "results": results, "violations": violations}, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
