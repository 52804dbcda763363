"""The benchmark's traced layer names against the package.

``perfbench/metrics.py`` names each traced function as ``module.function``
in the keys of ``MOVES`` (those of a time or a call count) and ``PROBES``.
A key that names no function measures nothing: its layer reads 0.0 on
every run.  So every key must name a public function that its
``relequil`` module defines, except the few listed here, which name
functions already gone and wait for the benchmark to rename them.  The
file is parsed, not imported.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

METRICS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"

# functions the benchmark still traces under a name the package no longer defines
STALE = {
    "symmetry.character_table",
    "symmetry.joint_invariant_subspaces",
    "spectrum.purify_eigenvalues",
    "spectrum.linearization_matrix",
    "central.is_central_configuration",
    "pipeline.polygon_group_for",
}


def _dict_keys(tree, name):
    """The string keys of the module-level dict literal assigned to ``name``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError(f"{METRICS.name} assigns no dict literal {name}")


def _traced_functions():
    tree = ast.parse(METRICS.read_text())
    names = {key.rpartition(".")[0] for key in _dict_keys(tree, "MOVES")
             if key.rpartition(".")[2] in ("ms", "self_ms", "calls")}
    return sorted(names | set(_dict_keys(tree, "PROBES")))


def test_the_stale_names_are_traced():
    # an exemption goes once the benchmark renames or drops its key
    assert STALE <= set(_traced_functions())


@pytest.mark.parametrize("name", [n for n in _traced_functions() if n not in STALE])
def test_each_traced_name_is_a_function_of_its_module(name):
    module_name, _, function = name.partition(".")
    module = importlib.import_module(f"relequil.{module_name}")
    assert not function.startswith("_"), name
    fn = getattr(module, function, None)
    assert inspect.isfunction(fn), f"relequil.{module_name} defines no function {function}"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"
