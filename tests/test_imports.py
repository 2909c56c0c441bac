"""The package is its modules: importing it loads none of them, and each imports alone.

Every check runs in a fresh interpreter, so no module loaded by another test
can hide a missing import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "hypkonvex").glob("*.py") if p.stem != "__init__")


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_package_import_loads_no_module():
    proc = _run("import sys, hypkonvex; print(sorted(m for m in sys.modules if m.startswith('hypkonvex.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    proc = _run("import hypkonvex.%s" % name)
    assert proc.returncode == 0, proc.stderr


def test_the_package_loads_no_xml_library():
    # frames are written from a text template, so no module needs xml.etree
    code = "import sys; import %s; print(sorted(m for m in sys.modules if m.split('.')[0] == 'xml'))"
    proc = _run(code % ", ".join("hypkonvex." + name for name in MODULES))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
