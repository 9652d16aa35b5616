"""Every name a module of the package exports through __all__ resolves."""

import importlib
import pkgutil

import hjbkit


def test_every_name_in_all_resolves():
    exported = 0
    for info in pkgutil.iter_modules(hjbkit.__path__, "hjbkit."):
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        exported += len(names)
    assert exported > 0
