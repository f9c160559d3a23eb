"""Import bracekit from the source tree of the checkout the benchmark sits in.

The benchmark measures this checkout only: it refuses to run when the tree
has no ``src/bracekit`` or when Python would import another copy.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graded", "multimap", "brace", "symbrace", "homotopy", "fuzz", "checks", "workspace", "cli")


def import_bracekit(src: Path = SRC):
    """The bracekit package of ``src``, with every module imported."""
    init = src / "bracekit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no bracekit source tree at {src}")
    sys.path.insert(0, str(src))
    bk = importlib.import_module("bracekit")
    if Path(bk.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported bracekit from {bk.__file__}, not {src}")
    for name in MODULES:
        importlib.import_module(f"bracekit.{name}")
    return bk
