"""Every name a module lists in ``__all__`` exists, so ``import *`` works,
every module attribute that README.md or a docstring names exists, and
every script README.md names exists and is run by a CLI test, and
README.md names every file a benchmark run writes."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import mlpf
from mlpf.bench import emit_outputs, parse_config, run_benchmark

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


def test_readme_names_every_benchmark_output(tmp_path):
    """Each file ``emit_outputs`` writes is named in README.md."""
    cfg = parse_config({"model": "ou", "T": 1, "L_data": 1, "repeats": 2, "master_seed": 0,
                        "output_dir": str(tmp_path), "estimators": [
                            {"id": "pf", "rule": "single_pf", "L_min": 1, "L_max": 1, "base": 2.0}]})
    written = emit_outputs(*run_benchmark(cfg), cfg.output_dir)
    names = sorted(pathlib.Path(p).name for paths in written.values() for p in paths)
    assert [name for name in names if name not in README.read_text()] == []
