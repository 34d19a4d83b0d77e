"""The benchmark's span targets exist in the package.

The benchmark's tracer (`bench/spans.py`) times the package by rebinding
named functions and methods, and reports a name it cannot find instead of
failing.  Renaming or deleting a traced name therefore changes what the
benchmark measures without breaking it; this test makes such a change fail
here, so that it is made together with the benchmark.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import switchgame

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_exists():
    for module in pkgutil.iter_modules(switchgame.__path__):
        importlib.import_module(f"switchgame.{module.name}")
    found = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(found)
    found.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
