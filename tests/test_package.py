import ast
import importlib
from pathlib import Path

import pytest

import obflab

SRC = Path(obflab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _imports(tree: ast.AST):
    """Every module or module.name an import statement brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_adaptive_quadrature_in_the_package(path):
    # the adaptive references live in tests/oracles.py; the package has one grid integrator
    found = [name for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
             if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    assert not found, f"{path.name} imports {found}"


# the scalar incomplete gamma, its exponential integrals, the upper gammas and
# the exact term algebra they once fed: the package's one Gamma route is
# numerics.lower_gamma_ladder, the only module that calls scipy's gammainc;
# the scalar reference lives in tests/oracles.py
_SCALAR_GAMMA = {"upper_incomplete_gamma", "exp1", "expn", "gammaincc", "Fraction", "GammaLadder"}


def _names(tree: ast.AST):
    """Every identifier a module defines, imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scalar_incomplete_gamma_in_the_package(path):
    banned = _SCALAR_GAMMA if path.name == "numerics.py" else _SCALAR_GAMMA | {"gammainc"}
    found = sorted(set(_names(ast.parse(path.read_text(encoding="utf-8")))) & banned)
    assert not found, f"{path.name} names {found}"


# numpy's bit generators and the calls that build one
_BIT_GENERATORS = {"BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
                   "RandomState", "default_rng"}


def _bit_generator_uses(tree: ast.AST, scope: str = ""):
    """(enclosing function, name) for each bit generator a module names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _bit_generator_uses(node, node.name)
            continue
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in _BIT_GENERATORS:
            yield scope, name
        yield from _bit_generator_uses(node, scope)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_channel_substream_builds_a_bit_generator(path):
    # every random draw of a run comes from channel.substream, so the bit
    # generator is named in one place and a run's streams follow its seed
    uses = list(_bit_generator_uses(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "channel.py":
        assert [scope for scope, _ in uses] == ["substream"], uses
    else:
        assert not uses, f"{path.name} builds {uses}"


def _module_imports(tree: ast.Module):
    """(bound name, what it names) for each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, f"{node.module or '.'}.{a.name}")
                        for a in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # no linter runs on the package: an import its module neither uses nor exports is dead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = "obflab" if path.stem == "__init__" else f"obflab.{path.stem}"
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= set(getattr(importlib.import_module(module), "__all__", ()))
    unused = [target for name, target in _module_imports(tree) if name not in kept]
    assert not unused, f"{path.name} never uses {unused}"


@pytest.mark.parametrize("module", ["obflab", *(f"obflab.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"
