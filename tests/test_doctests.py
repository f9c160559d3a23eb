"""Run the examples in the bracekit docstrings as tests."""

import doctest
import importlib
import pkgutil

import bracekit


def test_every_module_doctest_passes():
    attempted = 0
    for info in pkgutil.iter_modules(bracekit.__path__):
        module = importlib.import_module(f"bracekit.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0
