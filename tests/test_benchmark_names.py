"""The benchmark's per-layer metric names resolve against the package.

perfbench's tracer finds each per-layer metric of BENCHMARK.json by the
name of a traced function or layer, so a refactor that deletes or renames
one of them would leave the benchmark unable to report it.
"""

import importlib.util
import json
import os

import modvar.cli  # noqa: F401  (imports every layer the tracer wraps)
from modvar import util

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_per_layer_metric_name_resolves():
    tracer = _tracer()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]
                 if not m["name"].startswith("trace.")]
    assert names
    with tracer.Tracer() as tr:
        util.e(0.0)
        p = tr.drain()
    # an unknown or untraced name raises KeyError
    assert sorted(tracer.layer_metrics(p, names)) == sorted(names)
