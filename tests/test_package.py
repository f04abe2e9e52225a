"""The package namespace: each public name written once, and each module
imported the first time it is used."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import driftsketch

_SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(driftsketch.__path__) if not m.name.startswith("_")
)


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(driftsketch.__all__))
    def test_name_is_its_defining_modules_object(self, name):
        obj = getattr(driftsketch, name)
        if name == "KERNEL_BACKEND":
            assert obj == "pure"
            return
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("driftsketch.")
        assert getattr(home, name) is obj

    def test_dir_covers_names_and_submodules(self):
        assert _SUBMODULES == ["cli", "core", "extract", "head", "noiselab", "sketchlib",
                               "stats", "store"]
        assert {*driftsketch.__all__, *_SUBMODULES} <= set(dir(driftsketch))

    @pytest.mark.parametrize("name", _SUBMODULES)
    def test_submodule_read_as_an_attribute(self, name):
        assert getattr(driftsketch, name) is sys.modules[f"driftsketch.{name}"]

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from driftsketch import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(driftsketch.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
            driftsketch.frobnicate  # noqa: B018


def test_sketching_loads_only_what_it_uses():
    """A fresh process that imports the package and makes one signature
    loads neither ``numpy.random`` nor the store, head, noise lab, stats or
    CLI modules; reading a library, gating and encoding the gate's report
    load no head, noise lab, stats or CLI module (see ``startup_guard.py``)."""
    env = dict(os.environ, PYTHONPATH=str(Path(driftsketch.__file__).parents[1]))
    guard = Path(__file__).with_name("startup_guard.py")
    proc = subprocess.run([sys.executable, str(guard)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "loaded none of" in proc.stdout
    assert str(Path(driftsketch.__file__)) in proc.stdout
