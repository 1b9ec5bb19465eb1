"""Every public name resolves to its defining module, the package
re-exports the defining module's object rather than a stale copy, every
public name, and every public method and property of an exported class, has
a caller inside the library, and every parameter default is overridden by
some call inside the library."""
import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

import qequil

MODULES = ("spectra", "states", "measure", "averaging", "bounds", "haar",
           "constructions", "batteries", "cli")
# Public API that no experiment calls: file round trips and constructions
# offered to users of the library. A method is named with its class.
ENTRY_POINTS = {"save_state", "distinguishability", "save_measurement",
                "load_measurement", "harmonic_oscillator_3d_boltzmann",
                "EnergySpectrum.save"}
# Defaults that no library call overrides, as ``function(parameter)``: tests
# pass ``main`` its argument list.
UNTURNED_DEFAULTS = {"main(argv)"}


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


def _public_names():
    """(full name, ENTRY_POINTS key) for every public name of the modules,
    and for every public method and property defined on an exported class,
    whose key is ``Class.member``."""
    for name in MODULES:
        mod = importlib.import_module(f"qequil.{name}")
        for attr in mod.__all__:
            yield f"{name}.{attr}", attr
            obj = getattr(mod, attr)
            if not inspect.isclass(obj):
                continue
            for member, raw in vars(obj).items():
                if not member.startswith("_") and (inspect.isfunction(raw) or isinstance(
                        raw, (property, classmethod, staticmethod))):
                    yield f"{name}.{attr}.{member}", f"{attr}.{member}"


def _library_nodes():
    return [node for path in Path(qequil.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))]


def test_every_public_name_has_a_library_caller():
    """A public name, method or property that only tests reach belongs in the
    tests: as an oracle in helpers.py, or nowhere. A member counts as called
    only when it is read as an attribute (``x.member``)."""
    names, attributes = set(), set()
    for node in _library_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    uncalled = [full for full, key in _public_names() if key not in ENTRY_POINTS
                and key.rpartition(".")[2] not in
                (attributes if "." in key else names | attributes)]
    assert not uncalled, uncalled


def test_every_parameter_default_is_overridden_in_the_library():
    """A default that no library call overrides, by position or by keyword,
    is a knob nothing turns: its value belongs in the body, or the parameter
    should be required. Calls resolve by bare or attribute name; a method's
    first parameter takes no call position, and ``__init__`` is called by its
    class's name."""
    nodes = _library_nodes()
    reach = {}  # callee name -> [most positional arguments, keyword names]
    for call in (node for node in nodes if isinstance(node, ast.Call)):
        seen = reach.setdefault(getattr(call.func, "id", getattr(call.func, "attr", None)),
                                [0, set()])
        spread = any(isinstance(arg, ast.Starred) for arg in call.args)
        seen[0] = max(seen[0], math.inf if spread else len(call.args))
        seen[1].update(keyword.arg for keyword in call.keywords)  # None for **mapping
    methods = {}  # def -> (name it is called by, parameters the call skips)
    for cls in (node for node in nodes if isinstance(node, ast.ClassDef)):
        for f in (f for f in cls.body if isinstance(f, ast.FunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            methods[f] = (cls.name if f.name == "__init__" else f.name, 0 if static else 1)
    unturned = []
    for f in (node for node in nodes if isinstance(node, ast.FunctionDef)):
        name, skip = methods.get(f, (f.name, 0))
        count, keywords = reach.get(name, (0, set()))
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        params += [(arg.arg, math.inf) for arg, default
                   in zip(f.args.kwonlyargs, f.args.kw_defaults) if default is not None]
        unturned += [f"{name}({param})" for param, position in params
                     if not ({param, None} & keywords or count > position)]
    assert set(unturned) == UNTURNED_DEFAULTS, unturned
