"""Makes ``repro`` importable for ``pytest benchmarks/stack`` (run.py
gets it from the environment it re-executes itself in)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
