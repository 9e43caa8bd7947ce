import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import slidesvm

MODULES = ["slidesvm"] + [
    f"slidesvm.{info.name}" for info in pkgutil.iter_modules(slidesvm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []



def test_cli_import_leaves_out_scipy_sparse():
    # every CLI process pays for what ``import slidesvm.cli`` loads; scipy.sparse
    # alone costs about 0.08 s and 2 MB, and nothing in the package needs it
    src = Path(slidesvm.__file__).resolve().parent.parent
    code = "import sys, slidesvm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
