import importlib
import pkgutil

import groco


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from groco.<module> import *` and misleads readers of the module head
    modules = [groco] + [
        importlib.import_module(f"groco.{info.name}") for info in pkgutil.iter_modules(groco.__path__)
    ]
    checked = 0
    for module in modules:
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        checked += bool(exported)
    assert checked >= 8  # the package and its seven library modules
