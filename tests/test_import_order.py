"""Every top-level ``repro.*`` module imports first in a fresh interpreter.

The test session itself imports ``repro.nvdla`` early (``conftest.py``),
which hides import cycles that only bite when another package is the
first thing a program imports — ``import repro.compiler`` once failed
that way through ``compiler.ops → repro.nvdla → nvdla.fastpath →
compiler.loadable``.  Each case therefore runs in its own subprocess.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
FIRST_IMPORTS = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.name != "__main__"
) + ["repro.compiler.compile"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
