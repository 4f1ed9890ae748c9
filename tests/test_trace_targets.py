"""Every callable the benchmark's tracer wraps still exists.

``bench_e2e/tracer.py`` finds its layers by (module, class, attribute)
from outside; a callable that moved only earns a stderr warning, and
the per-layer metrics taken from its span silently read ``null``.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench_e2e" / "tracer.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()  # resolves TARGETS exactly as a traced run does
    try:
        assert module.TARGETS
        assert tracer.missing == set()
    finally:
        tracer.remove()
