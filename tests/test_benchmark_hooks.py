"""The names the benchmark's tracer hooks into must exist in medburn.

``perfbench/tracing.py`` wraps functions and reads oracle caches by name, so
renaming or deleting one breaks the benchmark without breaking any solver
test.  The tracer module is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_names_resolve():
    tracing = _load_tracing()
    for modname, names in tracing.TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    oracle = importlib.import_module("medburn.oracle")
    for name in tracing.ORACLE_CACHES:
        cache = getattr(oracle, name, None)
        assert hasattr(cache, "cache_clear") and hasattr(cache, "cache_info"), name


def test_benchmark_clears_every_oracle_cache():
    # A verify op starts from empty oracle caches only if the benchmark clears
    # them all; a cache it does not name would carry work from op to op.
    tracing = _load_tracing()
    oracle = importlib.import_module("medburn.oracle")
    caches = {
        name for name, obj in vars(oracle).items()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    }
    assert caches == set(tracing.ORACLE_CACHES)
