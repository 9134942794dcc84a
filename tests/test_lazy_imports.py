"""The package loads lazily: ``import osculant`` runs no submodule, the
CLI parser runs only ``cli`` and ``errors``, and a subcommand runs only
the modules it calls: ``nef`` runs neither the census nor the battery,
and ``census`` not the battery.  Neither loads ``fractions`` (nor
``decimal``, which it imports), since neither builds a Fraction, and a
passing ``verify-paper`` loads neither ``traceback`` nor ``textwrap``,
which only a failing job needs.  ``json`` is loaded only to render JSON
or text output, so neither the parser nor a CSV census loads it.  The
package's names resolve, on first use, to the objects their submodules
define."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osculant
import osculant.cli

# runs in a fresh interpreter; type() does not trigger a lazy load.  It
# imports json only to print, after every stage has been recorded
_PROBE = """
import contextlib, io, sys, types

def executed():
    return sorted(name for name, module in list(sys.modules.items())
                  if name.startswith("osculant.")
                  and type(module) is types.ModuleType)

def stdlib():
    return sorted(set(sys.modules) & {"fractions", "decimal", "traceback",
                                      "textwrap"})

import osculant
stages = {"import": executed()}
import osculant.cli
osculant.cli.build_parser()
stages["parser"] = executed()
stages["parser_json"] = "json" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    stages["code"] = osculant.cli.main(["nef", "4", "2", "3,2,2,2"])
stages["nef"] = executed()
stages["nef_out"] = out.getvalue()
stages["nef_stdlib"] = stdlib()
with contextlib.redirect_stdout(io.StringIO()):
    stages["census_code"] = osculant.cli.main(
        ["census", "--n-max", "4", "--d-max", "2", "--gamma-max", "9",
         "--output", "csv"])
stages["census"] = executed()
stages["census_stdlib"] = stdlib()
spec = osculant.LambdaSpec(4, 2, (3, 2, 2, 2))
report = osculant.verify_minimizer_claim(spec)
stages["minimizer"] = [type(report.min_value).__name__,
                       *{type(c[2]).__name__ for c in report.candidates}]
stages["minimizer_stdlib"] = stdlib()
import json
print(json.dumps(stages))
"""


def _probe(script: str) -> dict:
    """The JSON that script prints, run in a fresh interpreter."""
    src = str(Path(osculant.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def stages():
    return _probe(_PROBE)


def test_submodule_bodies_run_on_first_use(stages):
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


def test_json_is_loaded_only_to_render_json(stages):
    assert stages["parser_json"] is False
    # the nef command's JSON output loads it, and its bytes are the ones
    # rendered here, where json was loaded long before
    out = stages["nef_out"]
    with contextlib.redirect_stdout(io.StringIO()) as here:
        assert osculant.cli.main(["nef", "4", "2", "3,2,2,2"]) == 0
    assert out == here.getvalue()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_CENSUS_CSV = """
import contextlib, io, sys
import osculant.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = osculant.cli.main(["census", "--n-max", "4", "--d-max", "2",
                              "--gamma-max", "9", "--output", "csv"])
loaded = "json" in sys.modules
import json
print(json.dumps([code, loaded, out.getvalue()]))
"""


def test_a_csv_census_loads_no_json():
    code, loaded, text = _probe(_CENSUS_CSV)
    assert (code, loaded) == (0, False)
    assert text.startswith("n,d,gamma0,") and text.count("\n") > 1


def test_nef_and_census_load_no_fractions_until_one_is_built(stages):
    assert stages["nef_stdlib"] == []
    assert stages["census_stdlib"] == []
    # the minimizer claim's values are still Fractions
    assert stages["minimizer"] == ["Fraction", "Fraction"]
    assert stages["minimizer_stdlib"] == ["decimal", "fractions"]


_BATTERY = """
import contextlib, io, json, sys
import osculant.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = osculant.cli.main(["verify-paper", "--output", "json"])
print(json.dumps([code, sorted(set(sys.modules) & {"traceback", "textwrap"})]))
"""


def test_a_passing_battery_loads_no_traceback():
    assert _probe(_BATTERY) == [0, []]


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
