"""The package root: every name has one home, its module."""

import types

import resowave
# cli imports every layer module, as the benchmark's workloads do
from resowave import cli


def test_package_root_holds_only_submodules_and_version():
    # the benchmark tracer wraps module attributes, so a function re-exported
    # at the root would be a second, untraced way to call it
    assert isinstance(resowave.__version__, str)
    names = {name: value for name, value in vars(resowave).items()
             if not name.startswith("__")}
    assert names
    for name, value in names.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"resowave.{name}"
