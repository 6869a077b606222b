"""The package namespace: what each import loads, and the lazy public names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgrestore

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(statement):
    """The ``sys.modules`` keys after ``statement`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


class TestImportGraph:
    def test_worker_imports_load_neither_verifier_nor_loops(self):
        # what an external denoiser worker imports: each spawn pays for it
        loaded = modules_after("import pgrestore.denoisers, pgrestore.io")
        left_out = {"pgrestore.theory", "pgrestore.schemes", "pgrestore.guidance",
                    "pgrestore.metrics", "pgrestore.cli", "subprocess"}
        assert loaded & left_out == set()
        assert {"pgrestore.linops", "pgrestore.io", "pgrestore.denoisers"} <= loaded

    def test_cli_does_not_load_the_verifier(self):
        assert "pgrestore.theory" not in modules_after("import pgrestore.cli")

    def test_package_loads_numpy_and_linops(self):
        loaded = modules_after("import pgrestore")
        assert {"numpy", "pgrestore.linops"} <= loaded
        assert {"pgrestore.theory", "pgrestore.schemes", "pgrestore.cli"} & loaded == set()


class TestNamespace:
    def test_every_public_name_is_its_submodules_object(self):
        for name in pgrestore.__all__:
            value = getattr(pgrestore, name)
            assert value.__module__.startswith("pgrestore.")
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_dir_lists_every_public_name(self):
        assert set(pgrestore.__all__) <= set(dir(pgrestore))

    def test_star_import(self):
        namespace = {}
        exec("from pgrestore import *", namespace)
        assert set(pgrestore.__all__) <= set(namespace)
        assert namespace["run_scheme"] is pgrestore.schemes.run_scheme

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pgrestore.no_such_name  # noqa: B018
        assert not hasattr(pgrestore, "no_such_name")

    def test_submodules_resolve_as_attributes(self):
        assert pgrestore.theory is importlib.import_module("pgrestore.theory")
        assert pgrestore.kernels is importlib.import_module("pgrestore.kernels")

    def test_first_access_caches_the_value_in_the_package(self):
        # tracing proxies patch run_scheme through vars(pgrestore)
        run_scheme = pgrestore.run_scheme
        assert vars(pgrestore)["run_scheme"] is run_scheme


def test_no_module_level_import_is_unused():
    # Fails on a module-level import whose name the module never uses (an `__all__` entry
    # counts as a use). A line marked `# noqa: F401` is exempt, with its reason on or above it.
    unused = []
    for path in sorted((SRC / "pgrestore").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {entry.value for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, (ast.List, ast.Tuple))
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for entry in node.value.elts}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
