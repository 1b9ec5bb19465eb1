"""Every public name resolves to its defining module, and the package
re-exports the defining module's object rather than a stale copy."""
import importlib
import inspect

import pytest

import qequil

MODULES = ("spectra", "states", "measure", "averaging", "bounds", "haar",
           "constructions", "batteries", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_to_their_module(name):
    mod = importlib.import_module(f"qequil.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    for attr in mod.__all__:
        obj = getattr(mod, attr)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, f"{attr} comes from {obj.__module__}"


def test_package_reexports_are_the_defining_objects():
    for attr in [n for n in vars(qequil) if not n.startswith("_")]:
        obj = getattr(qequil, attr)
        if inspect.ismodule(obj):
            continue
        owner = importlib.import_module(obj.__module__)
        assert getattr(owner, attr) is obj, attr
        assert attr in owner.__all__, f"{attr} is not public in {owner.__name__}"
