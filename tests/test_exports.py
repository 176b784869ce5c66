"""Every name a pushmdp module exports in ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import pushmdp

MODULES = ["pushmdp"] + [
    f"pushmdp.{info.name}" for info in pkgutil.iter_modules(pushmdp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
