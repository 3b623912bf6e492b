"""The names the benchmark relies on, read from BENCHMARK.json.

perfbench/tracing.py wraps every public function of the layer modules and
names each span after the attribute it found the function under.  A
per-layer metric such as ``bohr.lift.self_s`` therefore needs ``lift`` to be
a public function defined in ``ddseries.bohr``, and no second public name in
that module may be bound to the same function object: the tracer would name
the spans after whichever name it met last, and the first name's metrics
would read 0.  A public alias is written as a one-line def instead, or
imported from another module.
"""

import importlib
import json
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the layer modules the tracer wraps (perfbench/tracing.py, LAYERS)
LAYERS = ("series", "double", "compose", "factor", "bohr", "superpose",
          "analyze", "parser", "formats")


def _per_layer_functions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return sorted({tuple(n.split(".")[:2]) for n in names
                   if n.count(".") == 2 and n.split(".")[0] in LAYERS})


def _public_functions(module):
    return {attr: value for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType) and not attr.startswith("_")
            and value.__module__ == module.__name__}


def test_per_layer_metrics_name_functions():
    assert _per_layer_functions()


@pytest.mark.parametrize("layer,name", _per_layer_functions())
def test_metric_names_a_public_function_of_its_layer(layer, name):
    module = importlib.import_module("ddseries." + layer)
    assert name in _public_functions(module), "%s.%s" % (layer, name)


@pytest.mark.parametrize("layer", LAYERS)
def test_no_two_public_names_share_a_function(layer):
    module = importlib.import_module("ddseries." + layer)
    seen = {}
    for attr, fn in _public_functions(module).items():
        assert id(fn) not in seen, "%s.%s is %s.%s" % (layer, attr, layer, seen[id(fn)])
        seen[id(fn)] = attr
