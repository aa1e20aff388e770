"""The benchmark's span tracer still finds every function it times.

perfbench/tracer.py wraps functions by module and name; a name that moves or
goes away is reported in ``Tracer.absent`` and its per-layer metrics vanish
from the benchmark's output without failing it.
"""

import importlib.util
import sys
from pathlib import Path

from dtm2d import solve_example

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_target_resolves_and_inference_is_traced(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        tracer.active = True
        solve_example(3, 20)
        tracer.active = False
    finally:
        tracer.uninstall()
    inference = tracer.stats["solver.infer_missing_seed"]
    assert inference.calls == 1
    assert inference.counts == {"exact": 1}
