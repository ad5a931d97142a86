"""A built package carries the bundled programs' ``.p4`` sources, which
each ``repro.programs`` module parses when its program is built."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import programs

ROOT = Path(__file__).parent.parent


def test_build_py_ships_every_program_source(tmp_path):
    # build_py writes an egg-info directory beside the sources, so it
    # runs on a copy, never on the checkout.
    pytest.importorskip("setuptools")
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path)
    shutil.copytree(
        ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    build = tmp_path / "build"
    subprocess.run(
        [
            sys.executable, "-c", "from setuptools import setup; setup()",
            "build_py", "--build-lib", str(build),
        ],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    shipped = {p.stem for p in (build / "repro" / "programs").glob("*.p4")}
    modules = {m for m in programs.__all__ if m != "EXAMPLE_TARGET"}
    assert shipped == modules
