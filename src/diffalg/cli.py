"""Command-line front end: file-based inputs, JSON reports, stable exits.

Exit codes: 0 success/PASS, 2 parse error, 3 domain error or FAIL,
4 numeric failure or INCONCLUSIVE, 5 internal error (an unexpected
exception in a subcommand, reported as {"type": "internal", "message":
"<ExceptionType>: <message>"} without a traceback). Reports carry the
input digest and the seed, so identical inputs and seeds produce
byte-identical reports.
"""
from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys

import numpy as np

from . import _linalg as la
from .algebra import (Character, LinearOp, PolyAlgebra, StructureAlgebra,
                      algebra_from_name, function_algebra, matrix_algebra,
                      direct_sum, truncated_poly)
from .dersys import DerivativeSystem, from_homomorphism, to_homomorphism, verify_system
from .diffcalc import RelativeOp, check_stabilization, diff_order, truncation_hom
from .envelope import Reasons, envelope_verdict, parse_expr
from .errors import DomainError, NumericError
from .geometry import cotangent_space, pairing, tangent_space
from .jets import jet_project, jet_space, quotient_seminorm, taylor_truncate
from .multiindex import mi_count, mi_enumerate
from .series import SeriesElement, ser_unit, series_algebra, series_to_coords
from .spectra import dauns_hofmann_check, fourier_check

__all__ = ["main"]


# --- input parsing -----------------------------------------------------


def _entry(e) -> complex:
    if isinstance(e, bool):
        raise ValueError(f"bad numeric entry {e!r}")
    if isinstance(e, (int, float)):
        return complex(e)
    if (isinstance(e, (list, tuple)) and len(e) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e)):
        return complex(e[0], e[1])
    raise ValueError(f"bad numeric entry {e!r}")


def parse_vector(data) -> np.ndarray:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError("vector must be a non-empty list")
    return np.array([_entry(e) for e in data], dtype=complex)


def parse_matrix(data) -> np.ndarray:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError("matrix must be a non-empty list of rows")
    rows = [parse_vector(r) for r in data]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return np.array(rows, dtype=complex)


def load_algebra(spec, check: bool = True) -> StructureAlgebra:
    """Accepts a constructor name, {"name": ...}, or a full structure dict."""
    if isinstance(spec, str):
        return algebra_from_name(spec)
    if isinstance(spec, dict):
        if "name" in spec:
            return algebra_from_name(spec["name"])
        if "structure" in spec:
            return StructureAlgebra.from_dict(spec, check=check)
    raise ValueError("algebra spec must be a name string or a structure dict")


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


def _list_text(texts: list[str], level: int) -> str:
    """A non-empty list at depth `level` whose item texts are given, as one
    join with the separators interleaved."""
    inner = "\n" + "  " * (level + 1)
    parts = ["," + inner] * (2 * len(texts))
    parts[0] = "[" + inner
    parts[1::2] = texts
    parts.append("\n" + "  " * level + "]")
    return "".join(parts)


def _float_rows(rows, level: int) -> list[str] | None:
    """The texts at `level` of a list of non-empty lists of finite floats,
    or None if the items are anything else."""
    out = []
    for row in rows:
        texts = _float_texts(row) if type(row) is list and row else None
        if texts is None:
            return None
        out.append(_list_text(texts, level))
    return out


def _render(obj, level: int = 0) -> str:
    """JSON text of obj at nesting depth `level`, byte-identical to what
    json.dumps(to_jsonable(obj), sort_keys=True, indent=2) writes there.

    Values json writes natively are rendered inline; any other leaf goes
    through to_jsonable, the single conversion rule. Each list or dict is
    one join over its pieces: brackets, separators and the item texts. A
    verdict's Reasons writes its own text at each depth it appears at, as
    the list of dicts it stands for, from axis texts made once.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    is_list = isinstance(obj, (list, tuple))
    is_dict = not is_list and isinstance(obj, dict)
    if not (is_list or is_dict or isinstance(obj, Reasons)):
        return _render(to_jsonable(obj), level)
    if not obj:
        return "{}" if is_dict else "[]"
    if not (is_list or is_dict):
        return obj._json_text(level, _render)
    if is_list:
        first = obj[0]
        texts = (_float_texts(obj) if isinstance(first, float) else
                 _float_rows(obj, level + 1) if type(first) is list else None)
        if texts is None:
            texts = [_render(x, level + 1) for x in obj]
        return _list_text(texts, level)
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    parts = []
    for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
        parts += (sep, _encode_str(k) + ": ", _render(v, level + 1))
    parts[0] = "{" + inner
    parts.append("\n" + "  " * level + "}")
    return "".join(parts)


def _emit(report: dict, out: str | None):
    # the text and the newline are written apart: joining them would copy
    # the whole report once more
    text = _render(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


# --- subcommand handlers ----------------------------------------------
# each returns (results, violations, exit_code)


def cmd_algebra_check(data, args):
    alg = load_algebra(data, check=False)
    bad = alg.axiom_violations(args.tol_zero)
    results = {
        "dim": alg.dim,
        "commutative": alg.is_commutative(),
        "axioms_ok": not bad,
    }
    violations = [{"type": "axiom", "message": m} for m in bad]
    return results, violations, (0 if not bad else 3)


def cmd_dersys_verify(data, args):
    m, order = int(data["m"]), int(data["N"])
    source = load_algebra(data["source"])
    target = load_algebra(data["target"])
    ops = {}
    for entry in data["ops"]:
        ops[tuple(int(t) for t in entry["index"])] = parse_matrix(entry["matrix"])
    system = DerivativeSystem(source, target, m, order, ops)
    report = verify_system(system, args.tol_zero)
    results = {"m": m, "N": order, "ok": report.ok,
               "max_residual": report.max_residual}
    violations = [{"type": "axiom", "axiom": v["axiom"],
                   "index": list(v["index"]), "pair": v["pair"],
                   "residual": v["residual"]} for v in report.violations]
    if report.ok:
        to_homomorphism(system, args.tol_zero)
        results["packs_to_homomorphism"] = True
    return results, violations, (0 if report.ok else 3)


def cmd_difforder(data, args):
    source = load_algebra(data["source"])
    target = load_algebra(data["target"]) if "target" in data else source
    op_mat = parse_matrix(data["operator"])
    if "action" in data:
        action = LinearOp(parse_matrix(data["action"]), source, target)
    elif target is source:
        action = LinearOp.identity(source)
    elif (isinstance(source, PolyAlgebra) and isinstance(target, PolyAlgebra)
          and source.mvars == target.mvars and target.degree <= source.degree):
        action = truncation_hom(source, target)
    else:
        raise ValueError("an explicit action matrix is required for this pair")
    p = RelativeOp(LinearOp(op_mat, source, target), action)
    if "generators" in data:
        gens = [parse_vector(v) for v in data["generators"]]
    else:
        gens = list(np.eye(source.dim))
    max_n = int(data.get("max_order", 6))
    order = diff_order(p, gens, max_n, tol=max(args.tol_zero, 1e-10),
                       samples=args.instances, seed=args.seed)
    results = {"order": order, "max_order": max_n,
               "generator_count": len(gens)}
    return results, [], 0


def cmd_ztower(data, args):
    source = load_algebra(data["source"])
    target = load_algebra(data["target"])
    phi = LinearOp(parse_matrix(data["phi"]), source, target)
    depth = int(data.get("depth", 2))
    rep = check_stabilization(phi, depth,
                              enforce_preconditions=bool(data.get("enforce", False)),
                              tol=args.tol_zero)
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
    m, order = int(data["m"]), int(data["order"])
    point = np.real(parse_vector(data["point"]))
    terms = [(tuple(int(t) for t in e["index"]), _entry(e["coeff"]))
             for e in data["f"]]
    degf = max((sum(k) for k, _ in terms), default=0)
    bound = int(data.get("degree", max(order + 2, degf)))
    if degf > bound:
        raise ValueError(f"polynomial degree {degf} exceeds the bound {bound}")
    alg = truncated_poly(m, bound)
    coords = np.zeros(alg.dim, dtype=complex)
    for k, c in terms:
        if len(k) != m:
            raise ValueError(f"index {k} does not have {m} entries")
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient {c} of index {list(k)} is not finite")
        coords[alg.exp_index[k]] += c
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
    alg = load_algebra(data["algebra"])
    if "character" in data:
        functional = parse_vector(data["character"])
    elif "point" in data:
        if not isinstance(alg, PolyAlgebra):
            raise ValueError("point evaluation needs a polynomial algebra; "
                             "pass an explicit character vector instead")
        s = np.real(parse_vector(data["point"]))
        functional = alg.table.monomials(s).astype(complex)
    else:
        raise ValueError("need either a character vector or a point")
    ch = Character(alg, functional)
    if not ch.is_character(1e-8):
        raise DomainError("the functional is not a character of the algebra")
    taus = tangent_space(alg, ch, real=bool(data.get("real", False)),
                         tol=args.tol_rank)
    classes, _ = cotangent_space(alg, ch)
    gram = np.array([[pairing(t, x) for x in classes] for t in taus],
                    dtype=complex) if taus and classes else np.zeros((0, 0))
    square = gram.shape[0] == gram.shape[1]
    invertible = bool(square and gram.shape[0] == la.rank(gram)) if gram.size else square
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
    m = int(data["m"])
    gens = [parse_expr(text, m) for text in data["generators"]]
    if not gens:
        raise ValueError("need at least one generator")
    box = data["box"]
    if len(box) != m:
        raise ValueError(f"box must list {m} intervals")
    verdict = envelope_verdict(gens, box, int(data["grid"]),
                               data.get("options"))
    # the reasons as the verdict holds them (a FAIL's Reasons is rendered
    # from its witness arrays, without building its dicts)
    reasons = verdict._reasons
    results = {"status": verdict.status, "reasons": reasons, "meta": verdict.meta}
    code = {"PASS": 0, "FAIL": 3, "INCONCLUSIVE": 4}[verdict.status]
    return results, reasons, code


def cmd_dauns_hofmann(data, args):
    if isinstance(data, str):
        alg, central = algebra_from_name(data), None
    else:
        alg = load_algebra(data["algebra"])
        central = ([parse_vector(v) for v in data["central"]]
                   if data.get("central") else None)
    rep = dauns_hofmann_check(alg, central, tol=max(args.tol_zero, 1e-9),
                              seed=args.seed)
    violations = [] if rep["ok"] else [
        {"type": "decomposition", "fiber_dims": rep["fiber_dims"],
         "section_rank": rep["section_rank"],
         "message": "section map is not a unital *-isomorphism"}]
    return rep, violations, (0 if rep["ok"] else 3)


def cmd_fourier(data, args):
    spec = data if isinstance(data, str) else data["group"]
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
    for k in mi_enumerate(mvars, order):
        s[k] = _random_coords(rng, base.dim)
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
        for k in mi_enumerate(m, order):
            if sum(k) == 0:
                continue
            c = _random_coords(rng, base.dim)
            u[k] = (c + base.star_coords(c)) / 2.0
        cols = []
        power = ser_unit(base, m, order)
        for _ in range(source.dim):
            cols.append(series_to_coords(target, power))
            power = power * u
        h = LinearOp(np.column_stack(cols), source, target)
        try:
            system = from_homomorphism(h)
            back = to_homomorphism(system)
            res = float(np.abs(back.matrix - h.matrix).max())
        except (DomainError, NumericError):
            failures += 1
            continue
        worst = max(worst, res)
        if res > 1e-12 or not verify_system(system).ok:
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
        low = [j for j, k in enumerate(big.exponents) if sum(k) <= bound]
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
    n = max(1, args.instances)
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

_FILE_COMMANDS = {"dersys-verify", "difforder", "ztower", "jet", "tangent",
                  "envelope"}
_INLINE_OK = {"algebra-check", "dauns-hofmann", "fourier"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Checks for structure-constant involutive algebras: "
                    "derivative systems, differential operators, jets, "
                    "tangent data, density certificates, fiberwise "
                    "decompositions, and the finite Fourier analogue.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps (recorded in the report)")
    common.add_argument("--tol-zero", type=float, default=1e-9,
                        help="zero-test tolerance")
    common.add_argument("--tol-rank", type=float, default=1e-8,
                        help="rank/pivot tolerance")
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--instances", type=int, default=100,
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    except (ValueError, KeyError, TypeError) as exc:
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
