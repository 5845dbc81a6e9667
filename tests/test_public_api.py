"""Each module's ``__all__`` names only what the module defines."""

import importlib

import pytest

MODULES = [
    "sulvalab",
    "sulvalab.analysis",
    "sulvalab.catalog",
    "sulvalab.cli",
    "sulvalab.exactreal",
    "sulvalab.geom",
    "sulvalab.sulvascript",
    "sulvalab.svg_render",
]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    public = module.__all__
    assert len(public) == len(set(public))
    assert [n for n in public if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)
