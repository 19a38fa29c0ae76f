"""The public API holds no function that only tests call."""

import ast
import inspect
from pathlib import Path

import fracvel

ROOT = Path(__file__).resolve().parents[1]


def names_used(paths):
    """Every name read as a bare name or an attribute in the given files."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_function_has_a_caller_outside_the_tests():
    # definitions, imports and __all__ strings do not count as callers
    sources = sorted((ROOT / "src" / "fracvel").glob("*.py")) + sorted(
        (ROOT / "demos").glob("*.py"))
    used = names_used(sources)
    functions = [name for name in fracvel.__all__
                 if inspect.isfunction(getattr(fracvel, name))]
    assert functions
    assert sorted(name for name in functions if name not in used) == []
