"""Command-line interface.

Subcommands::

    cs-seifert    exact invariants from presentation + representation data
    verify-table  recompute the Sigma(2, 3, 11) invariant table
    classify      isometry type of a U(2,1) matrix
    variation     CS change along a connection path, both routes
    find-reps     search for representations in prescribed classes
    mul           product of two universal-cover elements
    check-u21     membership / cover-element validation

All inputs are JSON read from a file argument or stdin ("-"); all
outputs go to stdout, human-readable by default, as a structured
envelope with --json.  An envelope is one line of strict JSON, with no
NaN or Infinity: a non-finite residual in a fail payload is null.  Pipe
it through ``python -m json.tool`` to read it.

Exit codes:

    0  success
    1  malformed input: anything rejected while reading and decoding the
       document (one nested too deeply for the JSON parser included),
       including the checks of the constructors the decoders call
       (integer entries, coprime moduli, family parameters,
       rotation-number range, sample count)
    2  validation failure: any check after decoding; also argparse's
       usage error for a bad option, such as an option the command does
       not take, a tolerance that is not a finite number > 0, a budget
       below 1 or a negative seed
    3  the search did not converge

A command line is dispatched on its first word.  When that names a
command, the command's own sub-parser parses the rest, so a usage error
there names the command in its usage line; only a line that names no
command (an empty one, ``-h``, an unknown command, an option before the
command) goes to the top-level parser.  Either way the envelope's
``command`` is the command's name.

Commands read their document through ``_parse``, the only place that
turns a decoding failure into ``MalformedInput``; ``main`` is the only
place that maps an exception to an exit code.  A failure raised as an
exception gets an empty payload.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .repfinder import NotASolution, extract_lift_data, find_representation
from .seifert import (
    burns_epstein,
    canonical_lift_data,
    cs_closed,
    cs_pipeline,
    implied_angles,
    presentation,
    sigma_2_3_11_fixture,
    validate_rep,
)
from .ug21 import TOL_ANGLE, TOL_GROUP, GElement, check_u21, classify, g_multiply, is_reducible
from .variation import cs_delta_closed, cs_delta_quadrature

# JSONDecodeError is a ValueError; json.loads raises RecursionError on a deeply nested document.
_MALFORMED = (OSError, ValueError, TypeError, KeyError, RecursionError)
_DOMAIN = (ValueError, TypeError, ArithmeticError, RuntimeError)


class MalformedInput(ValueError):
    """The input document could not be read or decoded (exit 1)."""


def _parse(args, decode):
    """Load the command's JSON document and return ``decode(doc)``."""
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        return decode(json.loads(text))
    except _MALFORMED as exc:
        raise MalformedInput(f"malformed input: {exc}") from exc


def _ok(payload):
    return 0, "ok", payload, []


def _fail(code, payload, diagnostics):
    return code, "fail", payload, list(diagnostics)


def _decode_source(doc):
    if "data" in doc:
        return "data", jsonio.decode_rep_data(doc["data"])
    if "angles" in doc:
        return "angles", jsonio.decode_angles(doc["angles"])
    raise ValueError("input needs either 'data' or 'angles'")


def cmd_cs_seifert(args):
    pres, (kind, source) = _parse(args, lambda doc: (jsonio.decode_presentation(doc), _decode_source(doc)))
    if kind == "angles":
        data = canonical_lift_data(pres, *source)  # valid by its own checks (see its docstring)
    else:
        data = source
        failed = validate_rep(pres, data)
        if failed:
            diags = [f"constraint {name} failed: {detail}" for name, detail in failed]
            return _fail(2, {"data": jsonio.encode_rep_data(data)}, diags)
    cs = cs_closed(pres, data, validate=False)
    pipe = cs_pipeline(pres, data, validate=False)
    mu = burns_epstein(cs)
    payload = {
        "presentation": jsonio.encode_presentation(pres),
        "data": jsonio.encode_rep_data(data),
        "cs": jsonio.encode_fraction(cs),
        "cs_decimal": float(cs),
        "burns_epstein": jsonio.encode_fraction(mu),
        "burns_epstein_decimal": float(mu),
        "pipeline_cs": jsonio.encode_fraction(pipe),
        "pipeline_agrees": pipe == cs,
    }
    if pipe != cs:
        return _fail(2, payload, ["closed formula and pipeline disagree"])
    return _ok(payload)


def cmd_verify_table(args):
    cases = sigma_2_3_11_fixture()
    if args.case is not None:
        cases = tuple(c for c in cases if c.label == str(args.case))
    pres = presentation((2, 3, 11))
    rows = []
    for case in cases:
        data = canonical_lift_data(pres, case.generators, case.central)
        pipe = cs_pipeline(pres, data, validate=False)
        closed = cs_closed(pres, data, validate=False)
        rows.append({
            "case": case.label,
            "expected": jsonio.encode_fraction(case.expected_cs),
            "pipeline": jsonio.encode_fraction(pipe),
            "closed": jsonio.encode_fraction(closed),
            "burns_epstein": jsonio.encode_fraction(burns_epstein(closed)),
            "match": pipe == closed == case.expected_cs,
        })
    all_match = all(r["match"] for r in rows)
    payload = {"presentation": jsonio.encode_presentation(pres), "cases": rows, "all_match": all_match}
    if not all_match:
        bad = [r["case"] for r in rows if not r["match"]]
        return _fail(2, payload, [f"table mismatch in case(s): {', '.join(bad)}"])
    return _ok(payload)


def _decode_matrix_doc(doc):
    return jsonio.decode_matrix(doc["matrix"] if isinstance(doc, dict) else doc)


def cmd_classify(args):
    m = _parse(args, _decode_matrix_doc)
    residual = check_u21(m)
    if residual > args.tol_group:
        return _fail(2, {"residual": jsonio.encode_real(residual)}, [
            f"matrix is not in U(2,1): residual {residual:.3e} > tol-group {args.tol_group:.3e}"
        ])
    return _ok({"type": classify(m).value, "residual": residual})


def cmd_variation(args):
    path, n = _parse(args, jsonio.decode_path)
    closed = cs_delta_closed(path)
    quad = cs_delta_quadrature(path, n)
    difference = abs(closed - quad)
    # Not finite when either route is not, or when their difference overflows.
    if not math.isfinite(difference):
        return _fail(2, {"family": path.family}, [
            f"variation is not finite: closed {closed!r}, quadrature {quad!r}"
        ])
    grid = path.sample_grid()  # a sampled path integrates on its own grid, not on n panels
    return _ok(
        {
            "family": path.family,
            "closed": closed,
            "quadrature": quad,
            "difference": difference,
            "n": n if grid is None else len(grid) - 1,
        }
    )


def cmd_find_reps(args):
    pres, target = _parse(
        args, lambda doc: (jsonio.decode_presentation(doc), jsonio.decode_class_target(doc["target"]))
    )
    # Pre-flight: the exact lift must exist before any search is worth it;
    # it is also the lift the search's candidate is accepted against.
    lift = canonical_lift_data(pres, *implied_angles(pres, target))
    result = find_representation(pres, target, seed=args.seed, budget=args.budget)
    try:
        data, residual = extract_lift_data(pres, result, target, lift)
    except NotASolution as exc:
        search = jsonio.encode_search_result(result, exc.residual, False)
        return _fail(3, {"search": search}, [f"search did not converge: best {exc} after budget {args.budget}"])
    cs = cs_closed(pres, data, validate=False)
    payload = {
        "presentation": jsonio.encode_presentation(pres),
        "search": jsonio.encode_search_result(result, residual, True),
        "data": jsonio.encode_rep_data(data),
        "cs": jsonio.encode_fraction(cs),
        "cs_decimal": float(cs),
        "burns_epstein": jsonio.encode_fraction(burns_epstein(cs)),
        "irreducible": not is_reducible(result.matrices),
    }
    return _ok(payload)


def cmd_mul(args):
    g, h = _parse(args, lambda doc: (jsonio.decode_g_element(doc["g"]), jsonio.decode_g_element(doc["h"])))
    g.validate(args.tol_group, args.tol_angle)
    h.validate(args.tol_group, args.tol_angle)
    return _ok({"product": jsonio.encode_g_element(g_multiply(g, h))})


def _decode_check_u21(doc):
    if isinstance(doc, dict) and "theta1" in doc:
        return jsonio.decode_g_element(doc)
    return _decode_matrix_doc(doc)


def cmd_check_u21(args):
    obj = _parse(args, _decode_check_u21)
    if isinstance(obj, GElement):
        obj.validate(args.tol_group, args.tol_angle)
        return _ok({"kind": "g_element", "residual": check_u21(obj.a), "valid": True})
    residual = check_u21(obj)
    if residual > args.tol_group:
        return _fail(2, {"kind": "matrix", "residual": jsonio.encode_real(residual), "valid": False}, [
            f"membership residual {residual:.3e} > tol-group {args.tol_group:.3e}"
        ])
    return _ok({"kind": "matrix", "residual": residual, "valid": True})


def _render_table(payload) -> str:
    rows = payload["cases"]
    labels = [r["case"] for r in rows]
    width = 9
    lines = ["Sigma(2, 3, 11) invariant table"]
    lines.append("case".ljust(14) + "".join(lab.rjust(width) for lab in labels))
    lines.append("expected".ljust(14) + "".join(r["expected"].rjust(width) for r in rows))
    lines.append("closed".ljust(14) + "".join(r["closed"].rjust(width) for r in rows))
    lines.append("pipeline".ljust(14) + "".join(r["pipeline"].rjust(width) for r in rows))
    lines.append("burns-epstein".ljust(14) + "".join(r["burns_epstein"].rjust(width) for r in rows))
    good = sum(1 for r in rows if r["match"])
    lines.append(f"status: {good}/{len(rows)} match")
    return "\n".join(lines)


def _render_human(command, status, payload, diagnostics) -> str:
    lines = []
    if command == "verify-table" and payload.get("cases"):
        lines.append(_render_table(payload))
    else:
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            lines.append(f"{key}: {value}")
    lines.append(f"status: {status}")
    for d in diagnostics:
        lines.append(f"! {d}")
    return "\n".join(lines)


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type of an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, whose sub-parsers are the commands."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own sub-parser, by name."""
    parser = argparse.ArgumentParser(
        prog="csu21",
        description="Chern-Simons and Burns-Epstein invariants of U(2,1)-cover representations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a structured JSON envelope")
    group_tol = argparse.ArgumentParser(add_help=False)
    group_tol.add_argument("--tol-group", type=_tolerance, default=TOL_GROUP, help="membership residual tolerance")
    both_tols = argparse.ArgumentParser(add_help=False, parents=[group_tol])
    both_tols.add_argument("--tol-angle", type=_tolerance, default=TOL_ANGLE, help="angle congruence tolerance")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_, with_input=True, tols=()):
        p = sub.add_parser(name, help=help_, parents=[common, *tols])
        p.set_defaults(func=func, command=name)
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="input JSON file, or - for stdin")
        return p

    add("cs-seifert", cmd_cs_seifert, "exact invariant of Seifert representation data")
    p = add("verify-table", cmd_verify_table, "recompute the Sigma(2,3,11) table", with_input=False)
    p.add_argument("--case", type=int, choices=range(1, 6), help="restrict to one table case")
    add("classify", cmd_classify, "isometry type of a U(2,1) matrix", tols=[group_tol])
    add("variation", cmd_variation, "CS change along a connection path")
    p = add("find-reps", cmd_find_reps, "search for representations in prescribed classes")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="search RNG seed")
    p.add_argument("--budget", type=_int_at_least(1), default=64, help="number of search starts")
    add("mul", cmd_mul, "multiply two universal-cover elements", tols=[both_tols])
    add("check-u21", cmd_check_u21, "validate a matrix or cover element", tols=[both_tols])
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    # A command line that starts with a command is parsed by that command's
    # own sub-parser; only one that names no command reaches the top level.
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 0
    try:
        # Overflow and invalid values surface as non-finite results, which
        # each command reports itself; numpy must not warn on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            code, status, payload, diagnostics = args.func(args)
    except MalformedInput as exc:
        code, status, payload, diagnostics = _fail(1, {}, [str(exc)])
    except _DOMAIN as exc:
        code, status, payload, diagnostics = _fail(2, {}, [str(exc)])
    if args.json:
        doc = {"command": args.command, "status": status, "payload": payload, "diagnostics": diagnostics}
        print(json.dumps(doc, allow_nan=False))  # no indent: an indent forces the pure-Python encoder
    else:
        print(_render_human(args.command, status, payload, diagnostics))
    return code


if __name__ == "__main__":
    sys.exit(main())
