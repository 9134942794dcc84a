"""The package loads lazily: ``import osculant`` runs no submodule, the
CLI parser runs only ``cli`` and ``errors``, and a subcommand runs only
the modules it calls: ``nef`` runs neither the census nor the battery,
and ``census`` not the battery.  The package's names resolve, on first
use, to the objects their submodules define."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osculant

# runs in a fresh interpreter; type() does not trigger a lazy load
_PROBE = """
import contextlib, io, json, sys, types

def executed():
    return sorted(name for name, module in list(sys.modules.items())
                  if name.startswith("osculant.")
                  and type(module) is types.ModuleType)

import osculant
stages = {"import": executed()}
import osculant.cli
osculant.cli.build_parser()
stages["parser"] = executed()
with contextlib.redirect_stdout(io.StringIO()):
    stages["code"] = osculant.cli.main(["nef", "4", "2", "3,2,2,2"])
stages["nef"] = executed()
with contextlib.redirect_stdout(io.StringIO()):
    stages["census_code"] = osculant.cli.main(
        ["census", "--n-max", "4", "--d-max", "2", "--gamma-max", "9",
         "--output", "csv"])
stages["census"] = executed()
print(json.dumps(stages))
"""


def test_submodule_bodies_run_on_first_use():
    src = str(Path(osculant.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)
    assert stages["import"] == []
    assert stages["parser"] == ["osculant.cli", "osculant.errors"]
    assert stages["code"] == 0
    assert "osculant.nef" in stages["nef"]
    for idle in ("osculant.verify", "osculant.families", "osculant.expr",
                 "osculant.jobs"):
        assert idle not in stages["nef"]
    # the census may come to load jobs; it never loads verify or expr
    assert stages["census_code"] == 0
    assert "osculant.families" in stages["census"]
    for idle in ("osculant.verify", "osculant.expr"):
        assert idle not in stages["census"]


def test_exports_are_their_submodules_objects():
    assert osculant.__all__ == sorted(osculant._EXPORTS)
    for name in osculant.__all__:
        module, attr = osculant._EXPORTS[name]
        owner = sys.modules[f"osculant.{module}"]
        value = getattr(osculant, name)
        assert value is getattr(owner, attr), name
        defined_in = getattr(value, "__module__", owner.__name__)
        assert defined_in == owner.__name__, name


def test_star_import_and_dir_list_all():
    namespace: dict = {}
    exec("from osculant import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == osculant.__all__
    assert set(osculant.__all__) <= set(dir(osculant))
    assert "__version__" in dir(osculant)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        osculant.no_such_name
