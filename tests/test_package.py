"""The package metadata in pyproject.toml names only things that exist."""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_scripts_import():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_exists():
    readme = PROJECT.get("readme")
    if isinstance(readme, dict):
        readme = readme.get("file")
    if readme is not None:
        assert (ROOT / readme).is_file()


def test_reimport_frees_the_old_modules():
    # a module-level typing.Union alias is kept by typing's cache, and so is
    # every earlier copy of the module it names, when solfree is re-imported
    code = """
import gc, importlib, sys, weakref

def load():
    for name in [n for n in sys.modules if n == "solfree" or n.startswith("solfree.")]:
        del sys.modules[name]
    for name in ("cyclic", "torus", "transfer", "rounding"):
        importlib.import_module("solfree." + name)
    return [weakref.ref(sys.modules["solfree.cyclic"].CyclicSet),
            weakref.ref(sys.modules["solfree.torus"].GridSet)]

refs = load()
load()
gc.collect()
sys.exit(sum(ref() is not None for ref in refs))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0, f"{done.returncode} old classes still alive"
