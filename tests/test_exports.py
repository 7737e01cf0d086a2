import ast
import importlib
from pathlib import Path

import pytest

import homsim

MODULES = ["units", "quadrature", "jsa", "hom", "imperfections", "fitdata"]


def reexports():
    """(module, name) of every ``from .module import name`` in homsim/__init__.py."""
    tree = ast.parse(Path(homsim.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"homsim.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_names_in_their_modules_all():
    pairs = reexports()
    assert {module for module, _ in pairs} == set(MODULES)
    stray = [f"{module}.{name}" for module, name in pairs
             if name not in importlib.import_module(f"homsim.{module}").__all__]
    assert stray == []
    assert all(hasattr(homsim, name) for _, name in pairs)
