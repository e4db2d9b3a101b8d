"""Packaging metadata: ``pyproject.toml`` and the process-level imports.

``setup.py`` is only a shim; the project metadata lives in
``pyproject.toml``.  These tests parse it and resolve the console
script, and check that importing the CLI stays free of numpy.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as stream:
        return tomllib.load(stream)


def test_pyproject_declares_name_and_src_layout():
    data = _pyproject()
    assert data["project"]["name"]
    assert data["project"]["version"]
    assert data["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert (ROOT / "src" / "repro" / "__init__.py").is_file()


def test_console_script_resolves_to_cli_main():
    target = _pyproject()["project"]["scripts"]["repro"]
    module_name, _, attr = target.partition(":")
    assert (module_name, attr) == ("repro.cli", "main")
    module = importlib.import_module(module_name)
    from repro.cli import main

    assert getattr(module, attr) is main


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"
