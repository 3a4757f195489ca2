"""The package metadata in pyproject.toml names only things that exist, and
the benchmark's tracer still finds the functions it wraps."""

import importlib
import importlib.util
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


def _fresh_solfree():
    for name in [n for n in sys.modules if n == "solfree" or n.startswith("solfree.")]:
        del sys.modules[name]
    for name in ("cyclic", "torus", "transfer", "rounding"):
        importlib.import_module("solfree." + name)
    return sys.modules["solfree"]


def test_tracer_sees_the_counting_layers():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    saved = {n: m for n, m in sys.modules.items() if n == "solfree" or n.startswith("solfree.")}
    tracer = tracer_module.Tracer()
    try:
        sf = _fresh_solfree()
        tracer.install(tracer_module.solfree_modules(), tracer_module.layer_table(sf))
        form = sf.LinearForm((1, 1, -1))
        A = sf.cyclic.CyclicSet.from_members(7, [1, 2, 4])
        G = sf.torus.GridSet.from_cells(6, [1, 2, 4])
        sf.cyclic.solution_measure_convolution(form, [A] * 3)
        sf.torus.solution_measure_grid(form, [G] * 3)
        sf.torus.is_free_grid(form, G)
    finally:
        tracer.restore()
        for name in [n for n in sys.modules if n == "solfree" or n.startswith("solfree.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    for span in (
        "kernels.convolve",
        "cyclic.measure_conv",
        "torus.measure_grid",
        "torus.eulerian_table",
        "torus.is_free_grid",
    ):
        assert tracer.calls[span] > 0, span
