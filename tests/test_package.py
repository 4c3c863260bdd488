"""Package-level checks."""

from __future__ import annotations

import importlib
import pkgutil

import rmstgst


def test_every_public_name_exists():
    missing = []
    for info in pkgutil.iter_modules(rmstgst.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"rmstgst.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
