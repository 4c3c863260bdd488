"""Package-level checks."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rmstgst


def test_every_public_name_exists():
    missing = []
    for info in pkgutil.iter_modules(rmstgst.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"rmstgst.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of every cold command;
    # scipy.special covers the normal distribution functions the package uses.
    src = str(Path(rmstgst.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, rmstgst.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
