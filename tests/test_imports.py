"""Import-time dependencies of the ``repro`` package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib
import pkgutil
import sys

import repro

names = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name.rsplit(".", 1)[-1] != "__main__"
]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules)
"""


def test_no_module_imports_numpy():
    """Every module under ``repro`` imports without numpy: the package
    declares networkx as its only runtime dependency."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    count, numpy_imported = proc.stdout.split()
    assert int(count) > 0
    assert numpy_imported == "False", "a module under repro imports numpy"
