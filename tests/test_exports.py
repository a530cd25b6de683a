import importlib
import pkgutil

import pytest

import lepage

MODULES = ["lepage"] + [f"lepage.{m.name}" for m in pkgutil.iter_modules(lepage.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
