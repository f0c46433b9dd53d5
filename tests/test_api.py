"""Every name a module lists in ``__all__`` exists, so ``import *`` works,
every module attribute that README.md or a docstring names exists, and
every script README.md names exists and is run by a CLI test."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import mlpf

MODULES = sorted(m.name for m in pkgutil.iter_modules(mlpf.__path__, "mlpf."))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", ())
    assert [n for n in public if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


def test_readme_module_references_resolve():
    """Each `module.name` (or `mlpf.module.name`) in README.md that starts
    with an mlpf module names an attribute of that module."""
    modules = {name.removeprefix("mlpf."): name for name in MODULES}
    refs = [(m, n) for m, n in re.findall(r"`(?:mlpf\.)?([a-z_]+)\.(\w+)", README.read_text())
            if m in modules]
    assert refs
    assert [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(modules[m]), n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_docstring_constants_resolve(name):
    """Each ``UPPER_CASE`` name in a docstring of a module is one of its attributes."""
    module = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    names = {n for doc in docs for n in re.findall(r"``([A-Z][A-Z0-9_]+)``", doc)}
    assert sorted(n for n in names if not hasattr(module, n)) == []


def test_readme_scripts_exist():
    """Each `scripts/<name>.py` that README.md names is a file in scripts/."""
    named = set(re.findall(r"scripts/(\w+\.py)", README.read_text()))
    assert named
    assert sorted(n for n in named if not (README.parent / "scripts" / n).is_file()) == []


def test_every_script_is_smoke_tested():
    """Each file in scripts/ is named by a test in tests/test_cli.py, which
    runs it, so no script drops out of the test suite."""
    tree = ast.parse((pathlib.Path(__file__).parent / "test_cli.py").read_text())
    named = {node.value for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test")
             for node in ast.walk(fn) if isinstance(node, ast.Constant)}
    scripts = sorted(p.name for p in (README.parent / "scripts").iterdir() if p.is_file())
    assert scripts
    assert [name for name in scripts if name not in named] == []
