"""Imports every hypkonvex submodule, and the bench modules that
test_bench_names reads, before any test runs.

Hypothesis draws about 5% of its choices from the literals of the local
modules already imported (its ``_get_local_constants``; test files are left
out), so without this a derandomized property test would draw other examples
depending on which tests, and so which modules, ran before it.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import hypkonvex

for _module in pkgutil.iter_modules(hypkonvex.__path__):
    importlib.import_module("hypkonvex." + _module.name)

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, _BENCH)
try:
    for _name in ("gen", "tracer", "sweep"):
        importlib.import_module(_name)
finally:
    sys.path.remove(_BENCH)
