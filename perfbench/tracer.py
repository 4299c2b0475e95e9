"""Per-layer tracing from outside the package.

``Tracer`` wraps public functions of csu21's modules under every name a
caller can reach them by: each ``csu21.*`` module attribute bound to the
function object is replaced by one wrapper, so ``csu21.repfinder.lie_exp``
and ``csu21.ug21.lie_exp`` both count as ``ug21.lie_exp``.  A wrapper
keeps a span stack in memory; a span's self time is its duration minus
the durations of the wrapped calls made inside it.  A call into a layer
from inside the same layer (``decode_matrix`` inside
``decode_g_element``) is folded into the enclosing span, so ``calls``
counts entries into the layer.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, function names); the jsonio entries sum over
# every decode_*/encode_* function of the module.
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "jsonio.decode": ("jsonio", "decode_"),
    "jsonio.encode": ("jsonio", "encode_"),
    "seifert.validate_rep": ("seifert", ("validate_rep",)),
    "seifert.canonical_lift_data": ("seifert", ("canonical_lift_data",)),
    "seifert.cs_closed": ("seifert", ("cs_closed",)),
    "seifert.cs_pipeline": ("seifert", ("cs_pipeline",)),
    "repfinder.find_representation": ("repfinder", ("find_representation",)),
    "repfinder.extract_lift_data": ("repfinder", ("extract_lift_data",)),
    "repfinder.relation_residual": ("repfinder", ("relation_residual",)),
    "ug21.lie_exp": ("ug21", ("lie_exp",)),
    "ug21.classify": ("ug21", ("classify",)),
    "ug21.is_reducible": ("ug21", ("is_reducible",)),
    "ug21.g_multiply": ("ug21", ("g_multiply",)),
    "ug21.check_u21": ("ug21", ("check_u21",)),
    "variation.cs_delta_closed": ("variation", ("cs_delta_closed",)),
    "variation.cs_delta_quadrature": ("variation", ("cs_delta_quadrature",)),
    "variation.gauge_shift_boundary_integral": ("variation", ("gauge_shift_boundary_integral",)),
    "normal_forms.direction_matrix": ("normal_forms", ("direction_matrix",)),
}


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[list] = []  # [layer, start, time in child spans]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, func):
        """``func`` with a span of ``layer`` around each call."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            span = [layer, clock(), 0.0]
            stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - span[2]

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "csu21" or name.startswith("csu21.")]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[f"csu21.{modname}"]
            if isinstance(names, str):
                names = tuple(n for n in vars(home) if n.startswith(names) and callable(getattr(home, n)))
            for name in names:
                func = getattr(home, name)
                wrapper = self.wrap(layer, func)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self, jobs: int) -> dict:
        out = {}
        for layer in LAYERS:
            calls = self.calls[layer]
            out[f"{layer}.calls_per_job"] = (calls / jobs if jobs else 0.0, "calls/job")
            out[f"{layer}.self_us"] = (1e6 * self.self_s[layer] / calls if calls else 0.0, "us")
        return out
