"""The names the traced benchmark wraps must exist in the package.

perfbench/tracing.py wraps qforms functions by name from outside the
package; a deletion or rename here would only surface when the benchmark
runs.  The module imports nothing but the standard library, so it is
loaded from its file without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import qforms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve_in_qforms():
    tracing = _load_tracing()
    names = [*tracing.SPANS, *tracing.COUNTED, *tracing.TIMED]
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"qforms.{module}"), attr)), name
    assert callable(qforms.build_sieve)
