"""The package metadata in pyproject.toml names only things that exist."""

import importlib
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
