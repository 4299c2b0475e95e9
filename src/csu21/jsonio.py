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
non-finite numbers.  Every shape check goes through ``fields`` (an
object and its required keys) and ``array`` (a list, of a given length
if one is asked for), so a document of the wrong shape gets one of
three diagnostics: "<what> must be an object", "<what> must be a list"
(with " of <k> entries" when the length is fixed) or "<what> missing
[<keys>]".  The integer entries of presentations, twists and central
lifts go unread to the core constructors, which refuse a non-integer
with TypeError; domain validation happens in the core modules.
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


def fields(data, what: str, *keys: str) -> list:
    """The entries ``keys`` of the JSON object ``data``, in order.

    The one shape rule of every document: anything but an object raises
    ValueError "<what> must be an object", and an object without some of
    ``keys`` raises "<what> missing [<those keys>]".
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    try:
        return [data[key] for key in keys]
    except KeyError:
        raise ValueError(f"{what} missing {[key for key in keys if key not in data]}") from None


def array(data, what: str, length: int | None = None) -> list:
    """``data`` if it is a JSON array, of ``length`` entries when given; else ValueError."""
    if not isinstance(data, list) or length is not None and len(data) != length:
        raise ValueError(f"{what} must be a list" + ("" if length is None else f" of {length} entries"))
    return data


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
    rows = [[decode_complex(v) for v in array(row, "matrix row", 3)] for row in array(data, "matrix", 3)]
    return np.array(rows, dtype=complex)


def encode_matrix(m) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    _require(m.shape == (3, 3), "matrix must be 3x3, got {}", m.shape)
    return np.stack([m.real, m.imag], -1).tolist()


def decode_g_element(data) -> GElement:
    m, theta1, theta2 = fields(data, "cover element", "matrix", "theta1", "theta2")
    return GElement(decode_matrix(m), _real(theta1), _real(theta2))


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
    (a,) = fields(data, "presentation", "a")
    b = data.get("b")
    return presentation(array(a, "'a'"), None if b is None else array(b, "'b'"))


def encode_presentation(pres: SeifertPresentation) -> dict:
    return {"a": list(pres.a), "b": list(pres.b)}


def decode_rep_data(data) -> LiftedRepData:
    p0, q0, r0, *lists = fields(data, "representation data", "p0", "q0", "r0", "p", "q", "r", "s")
    p, q, r, s = (array(v, repr(key)) for key, v in zip("pqrs", lists))
    return LiftedRepData(
        decode_fraction(p0),
        decode_fraction(q0),
        decode_fraction(r0),
        tuple(map(decode_fraction, p)),
        tuple(map(decode_fraction, q)),
        tuple(map(decode_fraction, r)),
        s,
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
    generators, central = fields(data, "angle data", "generators", "central")
    gens = []
    for entry in array(generators, "'generators'"):
        fractions, theta1, theta2 = fields(entry, "generator entry", "fractions", "theta1_turns", "theta2_turns")
        fractions = tuple(map(decode_fraction, array(fractions, "'fractions'", 3)))
        gens.append(GeneratorAngles(fractions, decode_fraction(theta1), decode_fraction(theta2)))
    theta1, theta2 = fields(central, "'central'", "theta1_turns", "theta2_turns")
    return tuple(gens), CentralAngles(decode_fraction(theta1), decode_fraction(theta2))


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
    (kind,) = fields(entry, "parameter path", "kind")
    if kind == "linear":
        return LinearParam(*map(_real, fields(entry, "linear path", "from", "to")))
    if kind == "samples":
        (values,) = fields(entry, "sampled path", "values")
        return SampledParam(_reals(array(values, "'values'")))
    if kind == "poly":
        (coeffs,) = fields(entry, "poly path", "coeffs")
        return PolyParam(_reals(array(coeffs, "'coeffs'")))
    raise ValueError(f"unknown parameter path kind {_echo(kind)}")


def decode_path(data) -> tuple[ConnectionPath, int]:
    """Decode a connection path; returns (path, quadrature panel count)."""
    (family,) = fields(data, "path", "family")
    params = data.get("params", {})
    fields(params, "'params'")  # an object, of any keys
    curves = {name: _decode_param_curve(entry) for name, entry in params.items()}
    n = data.get("n", 256)
    if type(n) is not int:
        raise ValueError(f"expected an integer, got {_echo(n)}")
    # The quadrature grid holds n + 1 points per array: bound its memory.
    _require(n <= MAX_PANELS, "panel count {} exceeds {}", n, MAX_PANELS)
    return ConnectionPath(family, curves), n


def decode_class_target(data) -> ClassTarget:
    generators, central = fields(data, "class target", "generators", "central")
    fractions = tuple(
        tuple(map(decode_fraction, array(tri, "generator class", 3))) for tri in array(generators, "'generators'")
    )
    fraction, lifts = fields(central, "'central'", "fraction", "lifts")
    return ClassTarget(fractions, decode_fraction(fraction), array(lifts, "'lifts'", 2))


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
