"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/tracer.py`` names package functions by module and name; a
rename makes its ``install`` fail, which would crash every traced
benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import csu21
import csu21.cli
from csu21.jsonio import encode_class_target

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracer_module):
    t = tracer_module.Tracer()
    try:
        t.install()
        yield t
    finally:
        t.uninstall()  # also after an install that failed part way


def test_tracer_wraps_every_layer(tracer_module, tracer):
    for layer, (modname, names) in tracer_module.LAYERS.items():
        home = sys.modules[f"csu21.{modname}"]
        if isinstance(names, str):
            names = [n for n in vars(home) if n.startswith(names) and callable(getattr(home, n))]
        assert names, layer
        for name in names:
            assert hasattr(getattr(home, name), "__wrapped__"), (layer, name)
    # The names the commands call go through the wrappers too.
    for name in ("extract_lift_data", "find_representation", "canonical_lift_data", "validate_rep"):
        assert hasattr(getattr(csu21.cli, name), "__wrapped__"), name
    tracer.uninstall()
    assert not hasattr(csu21.cli.extract_lift_data, "__wrapped__")
    assert not hasattr(csu21.repfinder.relation_residual, "__wrapped__")


def test_traced_find_reps_accepts_once_and_does_not_validate(tracer, tmp_path, monkeypatch):
    # One job: one lift of the target, one search, one acceptance against
    # that lift (one residual), and no validate_rep, whose checks the lift
    # implies.
    doc = {"a": [2, 3, 11], "target": encode_class_target(csu21.sigma_2_3_11_targets()[4])}
    path = tmp_path / "class5.json"
    path.write_text(json.dumps(doc))
    implied_angles, implied = csu21.seifert.implied_angles, []

    def counting(*args):
        implied.append(args)
        return implied_angles(*args)

    for name, module in list(sys.modules.items()):  # every name the function is reachable by
        if name.split(".")[0] == "csu21" and getattr(module, "implied_angles", None) is implied_angles:
            monkeypatch.setattr(module, "implied_angles", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert csu21.cli.main(["find-reps", str(path), "--seed", "1", "--budget", "16", "--json"]) == 0
    calls = tracer.calls
    assert calls["repfinder.find_representation"] == 1
    assert calls["repfinder.extract_lift_data"] == 1
    assert calls["repfinder.relation_residual"] == 1
    assert calls["seifert.canonical_lift_data"] == 1
    assert len(implied) == 1
    assert calls["seifert.validate_rep"] == 0
