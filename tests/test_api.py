"""Every name a module lists in ``__all__`` exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import mlpf

MODULES = sorted(m.name for m in pkgutil.iter_modules(mlpf.__path__, "mlpf."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", ())
    assert [n for n in public if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)
