"""JSON encoding/decoding for the file formats the CLI speaks.

Conventions: complex numbers are [re, im] pairs, matrices are 3x3
row-major arrays of pairs, cover elements carry their two angle lifts
alongside the matrix.  An exact rational is a JSON integer or a string
of the form ``-?[0-9]+(/[0-9]+)?`` in ASCII digits: an optional "-",
digits and an optional "/digits", with no sign after the slash, no "+",
no spaces, no decimal point or exponent and no underscores.  It is
written as "num/den".  A real number is a JSON integer or float, and an
integer a JSON integer; a bool is neither.

Decoders raise ValueError on anything structurally off and on
non-finite numbers.  The integer entries of presentations, twists and
central lifts go unread to the core constructors, which refuse a
non-integer with TypeError; domain validation happens in the core
modules.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .repfinder import SearchResult
from .seifert import (
    CentralAngles,
    ClassTarget,
    GeneratorAngles,
    LiftedRepData,
    SeifertPresentation,
    _echo,
    presentation,
)
from .ug21 import GElement
from .variation import ConnectionPath, LinearParam, PolyParam, SampledParam


# Largest quadrature panel count a document may ask for.  The quadrature
# holds the six parameter curves, their derivatives and the density as
# float arrays of n + 1 points, O(n) memory: at most about 16 MB at the cap.
MAX_PANELS = 2**16


def _require(cond: bool, msg: str, *args) -> None:
    # ``msg`` is a str.format template, filled from ``args`` only on failure.
    # A check that echoes an offending input value raises itself, through
    # ``_echo``, which cuts the value short.
    if not cond:
        raise ValueError(msg.format(*args))


_JSON_NUMBERS = frozenset((int, float))  # the concrete types json.loads gives numbers; bool is neither


def _real(v) -> float:
    # The message is formatted only on failure: this runs once per number decoded.
    if type(v) in _JSON_NUMBERS:
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"expected a finite number, got {_echo(v)}")


def _reals(values: list) -> tuple[float, ...]:
    """``_real`` of every entry.

    A list of finite JSON ints and floats, the usual case, is converted by
    C-level maps; any other list goes through ``_real`` entry by entry,
    which names the first bad entry.
    """
    if set(map(type, values)) <= _JSON_NUMBERS:
        try:
            xs = tuple(map(float, values))
        except OverflowError:  # an integer beyond the float range: _real reports it
            pass
        else:
            if all(map(math.isfinite, xs)):
                return xs
    return tuple(map(_real, values))


def encode_real(x) -> float | None:
    """A float for an envelope; strict JSON has no NaN or infinity, so those become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def decode_complex(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"complex entries are [re, im] pairs, got {_echo(v)}")
    return complex(_real(v[0]), _real(v[1]))


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
    return np.stack([m.real, m.imag], -1).tolist()


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
    """A JSON integer, or a string -?[0-9]+(/[0-9]+)? in ASCII digits, as a Fraction."""
    if type(v) is not str:
        if type(v) is not int:
            raise ValueError(f"exact values are 'num/den' strings or integers, got {_echo(v)}")
        return Fraction(v)
    num, slash, den = v.partition("/")
    if not (v.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"bad rational literal {_echo(v)}: not of the form [-]digits[/digits]")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or int's digit limit
        raise ValueError(f"bad rational literal {_echo(v)}: {exc}") from exc


def encode_fraction(f: Fraction | int) -> str:
    """The exact value as a "num/den" string; a float or bool is refused, not converted."""
    if isinstance(f, Fraction):
        return f"{f.numerator}/{f.denominator}"
    if isinstance(f, int) and not isinstance(f, bool):
        return f"{f}/1"
    raise TypeError(f"exact values are Fraction or int, got {f!r}")


def decode_presentation(data) -> SeifertPresentation:
    _require(isinstance(data, dict) and "a" in data, "presentation needs a moduli list 'a'")
    a = data["a"]
    _require(isinstance(a, list), "'a' must be a list of integers")
    b = data.get("b")
    _require(b is None or isinstance(b, list), "'b' must be a list of integers")
    return presentation(a, b)


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
        data["s"],
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
        return SampledParam(_reals(entry["values"]))
    if kind == "poly":
        _require("coeffs" in entry and isinstance(entry["coeffs"], list), "poly path needs a 'coeffs' list")
        return PolyParam(_reals(entry["coeffs"]))
    raise ValueError(f"unknown parameter path kind {_echo(kind)}")


def decode_path(data) -> tuple[ConnectionPath, int]:
    """Decode a connection path; returns (path, quadrature panel count)."""
    _require(isinstance(data, dict) and "family" in data, "path needs a 'family' tag")
    params = data.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    curves = {name: _decode_param_curve(entry) for name, entry in params.items()}
    n = data.get("n", 256)
    if type(n) is not int:
        raise ValueError(f"expected an integer, got {_echo(n)}")
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
    return ClassTarget(tuple(fractions), decode_fraction(c["fraction"]), lifts)


def encode_class_target(target: ClassTarget) -> dict:
    return {
        "generators": [[encode_fraction(f) for f in tri] for tri in target.fractions],
        "central": {
            "fraction": encode_fraction(target.central_fraction),
            "lifts": list(target.central_lifts),
        },
    }


def encode_search_result(result: SearchResult, residual: float, converged: bool) -> dict:
    """A search's candidate with the residual and verdict of ``extract_lift_data``;
    a non-finite residual is null, as in every other fail payload."""
    return {
        "matrices": [encode_matrix(m) for m in result.matrices],
        "residual": encode_real(residual),
        "seed": int(result.seed),
        "iterations": int(result.iterations),
        "converged": bool(converged),
    }
