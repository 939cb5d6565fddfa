"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import atomlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(atomlab.__path__))


def test_package_exports_resolve():
    missing = [name for name in atomlab.__all__
               if not hasattr(atomlab, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"atomlab.{name}")
    exports = getattr(mod, "__all__", ())
    assert len(exports) == len(set(exports))
    assert [n for n in exports if not hasattr(mod, n)] == []
