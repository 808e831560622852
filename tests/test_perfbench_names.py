"""Every package name the benchmark reads resolves in ``ramanls``.

``perfbench/`` changes only with the benchmark itself, so a package name
it reads that is renamed or removed would otherwise show only in the
traced benchmark run.  This parses its files, imports none of them, and
resolves each name: the traced modules and functions of ``tracing.py``,
the ``from ramanls ...`` imports of ``make_refs.py``, and the attributes
``make_refs.py``, ``item1.py`` and ``run.py`` read through ``ramanls``
or ``cli``.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

import ramanls
import ramanls.cli  # not imported by the package itself; run.py imports it

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def assigned(name: str, file: str = "tracing.py"):
    """The value of the module-level assignment ``name = ...`` of a
    perfbench file, evaluated on its own (its lambdas are not called)."""
    for node in tree(file).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return eval(compile(ast.Expression(node.value), file, "eval"), {})
    raise LookupError(f"{file} assigns no {name}")


def test_traced_modules_and_functions_resolve():
    modules = assigned("MODULES")
    assert modules and all(inspect.ismodule(getattr(ramanls, m)) for m in modules)
    targets = assigned("TARGETS")
    assert targets
    for module, function in targets:
        assert module in modules and callable(getattr(getattr(ramanls, module), function))


def test_make_refs_imports_resolve():
    imported = [(node.module, alias.name) for node in ast.walk(tree("make_refs.py"))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "ramanls"
                for alias in node.names]
    assert ("ramanls.lippmann_schwinger", "GRID_PHASE_LIMIT") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def dotted(node):
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("file", ["make_refs.py", "item1.py", "run.py"])
def test_package_attributes_read_by_perfbench_resolve(file):
    roots = {"ramanls": ramanls, "cli": ramanls.cli}
    chains = {name for node in ast.walk(tree(file))
              if (name := dotted(node)) and name.split(".")[0] in roots}
    assert chains
    for chain in chains:
        root, *attrs = chain.split(".")
        functools.reduce(getattr, attrs, roots[root])  # AttributeError names the gap


def test_grid_limit_and_fastest_frequency_resolve():
    # make_refs.py and item1.py read both: GRID_PHASE_LIMIT / mu_max is the
    # mandated grid step.
    assert isinstance(ramanls.lippmann_schwinger.GRID_PHASE_LIMIT, float)
    assert isinstance(ramanls.SpectralData.mu_max, property)
    assert ramanls.spectral_m0sq(ramanls.RamanParams(400.0, 0.0, 200j, 120.0)).mu_max > 0
