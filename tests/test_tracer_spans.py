"""Every span the bench tracer wraps names a function that still exists.

`bench/tracer.py` patches each `LAYERS` entry by name when a traced bench
run starts, so a deleted or renamed function would only fail there.  The
tracer module is loaded from its file without installing anything.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_span_resolves():
    missing = [f"{mod}.{fn}" for mod, fns in _layers().items() for fn in fns
               if not callable(getattr(importlib.import_module(f"chslab.{mod}"), fn, None))]
    assert missing == []
