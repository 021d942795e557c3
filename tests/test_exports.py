import importlib
import pkgutil

import pytest

import gcx

MODULES = sorted(info.name for info in pkgutil.iter_modules(gcx.__path__))


def test_every_module_is_listed():
    assert {"chart", "cli", "multilinear", "spinor", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", ["gcx"] + [f"gcx.{module}" for module in MODULES])
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted would fail `from gcx... import *` only when used
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == [], f"{name}.__all__ names what it does not define"
