"""The `>>>` examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import spectile

# spectile.__main__ calls main() on import, so it is not imported here
MODULES = ["spectile"] + [
    f"spectile.{info.name}" for info in pkgutil.iter_modules(spectile.__path__)
    if info.name != "__main__"]


def test_every_module_is_collected():
    assert {"spectile.cyclotomic", "spectile.intervals", "spectile.cli"} \
        <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"
