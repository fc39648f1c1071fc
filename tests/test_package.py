"""The package namespace republishes each module's public names."""

import importlib

import pytest

import meanskit


@pytest.mark.parametrize("module", ["linalg", "connections", "measures", "verify"])
def test_every_public_name_is_exported(module):
    mod = importlib.import_module(f"meanskit.{module}")
    for name in mod.__all__:
        assert getattr(meanskit, name) is getattr(mod, name), name
