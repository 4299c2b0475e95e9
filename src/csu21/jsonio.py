"""JSON encoding/decoding for the file formats the CLI speaks.

Conventions: complex numbers are [re, im] pairs, matrices are 3x3
row-major arrays of pairs, exact rationals are "num/den" strings (bare
integers also accepted on input), cover elements carry their two angle
lifts alongside the matrix.  Decoders raise ValueError on anything
structurally off and on non-finite numbers; domain validation happens in
the core modules.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .repfinder import SearchResult
from .seifert import (
    CentralAngles,
    ClassTarget,
    GeneratorAngles,
    LiftedRepData,
    SeifertPresentation,
    presentation,
)
from .ug21 import GElement
from .variation import ConnectionPath, LinearParam, PolyParam, SampledParam


MAX_PANELS = 2**16  # largest quadrature panel count a document may ask for


def _require(cond: bool, msg: str, *args) -> None:
    # ``msg`` is a str.format template, filled from ``args`` only on failure.
    if not cond:
        raise ValueError(msg.format(*args))


def _real(v) -> float:
    # The message is formatted only on failure: this runs once per number decoded.
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"expected a finite number, got {v!r}")


def encode_real(x) -> float | None:
    """A float for an envelope; strict JSON has no NaN or infinity, so those become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def decode_complex(v) -> complex:
    _require(isinstance(v, (list, tuple)) and len(v) == 2, "complex entries are [re, im] pairs, got {!r}", v)
    return complex(_real(v[0]), _real(v[1]))


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_matrix(data) -> np.ndarray:
    _require(isinstance(data, list) and len(data) == 3, "matrix must be 3 rows")
    rows = []
    for row in data:
        _require(isinstance(row, list) and len(row) == 3, "matrix rows must have 3 entries")
        rows.append([decode_complex(v) for v in row])
    return np.array(rows, dtype=complex)


def encode_matrix(m) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    _require(m.shape == (3, 3), "matrix must be 3x3, got {}", m.shape)
    return [[encode_complex(m[i, j]) for j in range(3)] for i in range(3)]


def decode_g_element(data) -> GElement:
    _require(isinstance(data, dict), "cover element must be an object")
    _require(
        set(data) >= {"matrix", "theta1", "theta2"},
        "cover element needs matrix, theta1, theta2",
    )
    return GElement(decode_matrix(data["matrix"]), _real(data["theta1"]), _real(data["theta2"]))


def encode_g_element(g: GElement) -> dict:
    return {"matrix": encode_matrix(g.a), "theta1": float(g.theta1), "theta2": float(g.theta2)}


def decode_fraction(v) -> Fraction:
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return Fraction(int(v))
    _require(isinstance(v, str), "exact values are 'num/den' strings or integers, got {!r}", v)
    try:
        return Fraction(v.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {v!r}: {exc}") from exc


def encode_fraction(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _int(v) -> int:
    _require(isinstance(v, numbers.Integral) and not isinstance(v, bool), "expected an integer, got {!r}", v)
    return int(v)


def decode_presentation(data) -> SeifertPresentation:
    _require(isinstance(data, dict) and "a" in data, "presentation needs a moduli list 'a'")
    a = data["a"]
    _require(isinstance(a, list), "'a' must be a list of integers")
    b = data.get("b")
    _require(b is None or isinstance(b, list), "'b' must be a list of integers")
    return presentation([_int(x) for x in a], None if b is None else [_int(x) for x in b])


def encode_presentation(pres: SeifertPresentation) -> dict:
    return {"a": list(pres.a), "b": list(pres.b)}


def decode_rep_data(data) -> LiftedRepData:
    _require(isinstance(data, dict), "representation data must be an object")
    missing = {"p0", "q0", "r0", "p", "q", "r", "s"} - set(data)
    _require(not missing, "representation data missing {}", sorted(missing))
    for key in ("p", "q", "r", "s"):
        _require(isinstance(data[key], list), "'{}' must be a list", key)
    return LiftedRepData(
        decode_fraction(data["p0"]),
        decode_fraction(data["q0"]),
        decode_fraction(data["r0"]),
        tuple(decode_fraction(v) for v in data["p"]),
        tuple(decode_fraction(v) for v in data["q"]),
        tuple(decode_fraction(v) for v in data["r"]),
        tuple(_int(v) for v in data["s"]),
    )


def encode_rep_data(data: LiftedRepData) -> dict:
    return {
        "p0": encode_fraction(data.p0),
        "q0": encode_fraction(data.q0),
        "r0": encode_fraction(data.r0),
        "p": [encode_fraction(v) for v in data.p],
        "q": [encode_fraction(v) for v in data.q],
        "r": [encode_fraction(v) for v in data.r],
        "s": list(data.s),
    }


def decode_angles(data) -> tuple[tuple[GeneratorAngles, ...], CentralAngles]:
    _require(isinstance(data, dict), "angle data must be an object")
    _require(
        set(data) >= {"generators", "central"},
        "angle data needs 'generators' and 'central'",
    )
    gens = []
    _require(isinstance(data["generators"], list), "'generators' must be a list")
    for g in data["generators"]:
        _require(isinstance(g, dict), "each generator entry must be an object")
        missing = {"fractions", "theta1_turns", "theta2_turns"} - set(g)
        _require(not missing, "generator entry missing {}", sorted(missing))
        fr = g["fractions"]
        _require(isinstance(fr, list) and len(fr) == 3, "'fractions' must be a triple")
        gens.append(
            GeneratorAngles(
                tuple(decode_fraction(v) for v in fr),
                decode_fraction(g["theta1_turns"]),
                decode_fraction(g["theta2_turns"]),
            )
        )
    c = data["central"]
    _require(isinstance(c, dict) and {"theta1_turns", "theta2_turns"} <= set(c), "'central' needs both turn fields")
    central = CentralAngles(decode_fraction(c["theta1_turns"]), decode_fraction(c["theta2_turns"]))
    return tuple(gens), central


def encode_angles(gens, central: CentralAngles) -> dict:
    return {
        "generators": [
            {
                "fractions": [encode_fraction(f) for f in g.fractions],
                "theta1_turns": encode_fraction(g.theta1_turns),
                "theta2_turns": encode_fraction(g.theta2_turns),
            }
            for g in gens
        ],
        "central": {
            "theta1_turns": encode_fraction(central.theta1_turns),
            "theta2_turns": encode_fraction(central.theta2_turns),
        },
    }


def _decode_param_curve(entry):
    _require(isinstance(entry, dict) and "kind" in entry, "parameter paths need a 'kind'")
    kind = entry["kind"]
    if kind == "linear":
        missing = {"from", "to"} - set(entry)
        _require(not missing, "linear path missing {}", sorted(missing))
        return LinearParam(_real(entry["from"]), _real(entry["to"]))
    if kind == "samples":
        _require("values" in entry and isinstance(entry["values"], list), "sampled path needs a 'values' list")
        return SampledParam(tuple(_real(v) for v in entry["values"]))
    if kind == "poly":
        _require("coeffs" in entry and isinstance(entry["coeffs"], list), "poly path needs a 'coeffs' list")
        return PolyParam(tuple(_real(v) for v in entry["coeffs"]))
    raise ValueError(f"unknown parameter path kind {kind!r}")


def decode_path(data) -> tuple[ConnectionPath, int]:
    """Decode a connection path; returns (path, quadrature panel count)."""
    _require(isinstance(data, dict) and "family" in data, "path needs a 'family' tag")
    params = data.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    curves = {name: _decode_param_curve(entry) for name, entry in params.items()}
    n = _int(data.get("n", 256))
    # The quadrature grid holds n + 1 points per array: bound its memory.
    _require(n <= MAX_PANELS, "panel count {} exceeds {}", n, MAX_PANELS)
    path = ConnectionPath(data["family"], curves)
    return path, n


def decode_class_target(data) -> ClassTarget:
    _require(isinstance(data, dict), "class target must be an object")
    missing = {"generators", "central"} - set(data)
    _require(not missing, "class target missing {}", sorted(missing))
    _require(isinstance(data["generators"], list), "'generators' must be a list")
    fractions = []
    for tri in data["generators"]:
        _require(isinstance(tri, list) and len(tri) == 3, "each generator class is a triple of rotation numbers")
        fractions.append(tuple(decode_fraction(v) for v in tri))
    c = data["central"]
    _require(isinstance(c, dict) and {"fraction", "lifts"} <= set(c), "'central' needs 'fraction' and 'lifts'")
    lifts = c["lifts"]
    _require(isinstance(lifts, list) and len(lifts) == 2, "'lifts' must be a pair of integers")
    return ClassTarget(tuple(fractions), decode_fraction(c["fraction"]), (_int(lifts[0]), _int(lifts[1])))


def encode_class_target(target: ClassTarget) -> dict:
    return {
        "generators": [[encode_fraction(f) for f in tri] for tri in target.fractions],
        "central": {
            "fraction": encode_fraction(target.central_fraction),
            "lifts": list(target.central_lifts),
        },
    }


def encode_search_result(result: SearchResult) -> dict:
    return {
        "matrices": [encode_matrix(m) for m in result.matrices],
        "residual": float(result.residual),
        "seed": int(result.seed),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }
