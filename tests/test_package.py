"""The lazy package namespace: every public name resolves to the object
its home module defines, and unknown names fail as on any module.  The
package source holds no assert statement."""

import ast
import importlib
import pathlib

import pytest

import spectile


def test_all_has_no_duplicates():
    assert len(spectile.__all__) == len(set(spectile.__all__))


@pytest.mark.parametrize("name", sorted(spectile._HOME))
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"spectile.{spectile._HOME[name]}")
    value = getattr(spectile, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__
    assert vars(spectile)[name] is value  # later lookups skip __getattr__


@pytest.mark.parametrize("name", ["brute_force_spectra", "ResourceLimitError",
                                  "root_sum_value", "is_p_tile"])
def test_test_oracles_are_not_public(name):
    # the oracles live in tests/oracles.py, outside the package
    assert name not in spectile.__all__
    assert not hasattr(spectile, name)
    assert not hasattr(spectile.spectra, name)
    assert not hasattr(spectile.cyclotomic, name)
    assert not hasattr(spectile.intervals, name)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every invariant raises
    # AssertionError explicitly and still holds under -O
    found = []
    for path in sorted(pathlib.Path(spectile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_object_new_is_called_only_in_value_unchecked():
    # one constructor skips the value types' checks: _Value._unchecked
    found = []
    for path in sorted(pathlib.Path(spectile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = [(path.stem, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}"
                if (isinstance(child, ast.Attribute)
                        and child.attr == "__new__"
                        and isinstance(child.value, ast.Name)
                        and child.value.id == "object"):
                    found.append(inner)
                scopes.append((inner, child))
    assert found == ["cyclotomic._Value._unchecked"], found


def test_star_import_binds_every_name():
    namespace = {}
    exec("from spectile import *", namespace)
    assert set(spectile.__all__) <= set(namespace)
    assert namespace["__version__"] == spectile.__version__


def test_dir_lists_every_public_name():
    assert set(spectile.__all__) <= set(dir(spectile))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        spectile.nope
    assert not hasattr(spectile, "nope")


def test_submodules_resolve_as_attributes():
    for module in spectile._HOMES:
        assert getattr(spectile, module) is importlib.import_module(
            f"spectile.{module}")
