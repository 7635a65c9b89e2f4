"""Import layering: lazy package exports and per-entry-point budgets.

Every package ``__init__`` lists its public names once, in a
:func:`repro.lazy_exports` table, and imports nothing until a name is
read.  The export tests check each table against the modules it
points at; the budget tests pin, in a fresh interpreter, the exact set
of ``repro`` modules each entry point loads, so a module-level import
that drags in an unused layer shows up as a diff here.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def _packages():
    return sorted(".".join(path.parent.relative_to(SRC).parts)
                  for path in (SRC / "repro").rglob("__init__.py"))


def _export_table(package):
    """The ``{module: names}`` literal handed to ``lazy_exports``."""
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            modules = [key.value for key in node.args[1].keys]
            assert len(modules) == len(set(modules)), "a module is keyed twice"
            return ast.literal_eval(node.args[1])
    raise AssertionError(package + " has no lazy_exports table")


PACKAGES = _packages()


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_all_is_the_export_table(self, package):
        module = import_module(package)
        names = [name for names in _export_table(package).values()
                 for name in names]
        assert len(names) == len(set(names)), "a name is listed twice"
        exported = [name for name in module.__all__
                    if name != "__version__"]
        assert exported == names

    def test_every_name_is_the_defining_modules_object(self, package):
        module = import_module(package)
        for home, names in _export_table(package).items():
            assert home.startswith(package + ".") or home == "repro.errors"
            defining = import_module(home)
            for name in names:
                assert getattr(module, name) is getattr(defining, name), (
                    package, name)
                assert name in dir(module)

    def test_star_import_binds_every_name(self, package):
        module = import_module(package)
        namespace = {}
        exec("from {} import *".format(package), namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        module = import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


# -- import budgets ----------------------------------------------------------

_REPORT = """
import json, sys
print(json.dumps({"modules": sorted(m for m in sys.modules
                                    if m == "repro" or m.startswith("repro.")),
                  "numpy": "numpy" in sys.modules}))
"""


def _loaded(code):
    """Modules a fresh interpreter has loaded after running ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code + _REPORT], cwd=SRC.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


KERNEL = ["repro", "repro.errors", "repro.sim", "repro.sim.calendar",
          "repro.sim.core", "repro.sim.events", "repro.sim.process"]


def test_sim_package_import_loads_no_module():
    assert _loaded("import repro.sim")["modules"] == ["repro", "repro.sim"]


def test_large_n_entry_point_loads_kernel_and_aggregate_only():
    loaded = _loaded(
        "from repro.sim.core import Environment\n"
        "from repro.workload import AggregatedClientPopulation\n"
        "env = Environment()\n"
        "AggregatedClientPopulation(env, replicas=4, users=40,\n"
        "                           service_time=0.01)\n"
        "env.run(until=1.0)\n")
    assert loaded["modules"] == sorted(KERNEL + [
        "repro.workload", "repro.workload.aggregate",
        "repro.workload.interactions"])


def test_statan_command_loads_no_simulator_and_no_numpy():
    loaded = _loaded(
        "from repro.cli import main\n"
        "assert main(['statan', 'src/repro/errors.py']) == 0\n")
    assert not loaded["numpy"]
    assert loaded["modules"] == [
        "repro", "repro.cli", "repro.errors", "repro.statan",
        "repro.statan.callgraph", "repro.statan.dataflow",
        "repro.statan.engine", "repro.statan.program",
        "repro.statan.rules", "repro.statan.sarif"]


def test_cli_help_loads_no_simulator():
    loaded = _loaded(
        "from repro.cli import build_parser\n"
        "build_parser().format_help()\n")
    assert loaded == {"modules": ["repro", "repro.cli"], "numpy": False}


#: A smoke Table-I cell, recording the loaded modules when its event
#: loop starts and again after the run.
TABLE1_SMOKE = """
import sys
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.sim.core import Environment

class Stamped(Environment):
    __slots__ = ("at_first_event",)

    def run(self, until=None):
        self.at_first_event = sorted(m for m in sys.modules
                                     if m.startswith("repro"))
        return super().run(until)

env = Stamped()
ExperimentRunner(ExperimentConfig(profile=ScaleProfile.smoke(),
                                  duration=1.0)).run(env=env)
after = sorted(m for m in sys.modules if m.startswith("repro"))
assert env.at_first_event == after, set(after) ^ set(env.at_first_event)
"""

TABLE1_MODULES = sorted(KERNEL + [
    "repro.cluster", "repro.cluster.config", "repro.cluster.runner",
    "repro.cluster.spec", "repro.cluster.topology",
    "repro.core", "repro.core.balancer", "repro.core.mechanism",
    "repro.core.member", "repro.core.policies", "repro.core.remedies",
    "repro.core.states",
    "repro.metrics", "repro.metrics.recorder", "repro.metrics.stats",
    "repro.metrics.timeseries", "repro.metrics.windows",
    "repro.netmodel", "repro.netmodel.sockets", "repro.netmodel.tcp",
    "repro.osmodel", "repro.osmodel.cpu", "repro.osmodel.disk",
    "repro.osmodel.host", "repro.osmodel.pagecache",
    "repro.osmodel.pdflush", "repro.osmodel.profiles",
    "repro.sim.monitor", "repro.sim.queues", "repro.sim.resources",
    "repro.tiers", "repro.tiers.base",
    "repro.workload", "repro.workload.client", "repro.workload.generator",
    "repro.workload.interactions", "repro.workload.mix",
    "repro.workload.request", "repro.workload.session"])


def test_table1_runner_loads_only_the_layers_it_runs():
    loaded = _loaded(TABLE1_SMOKE)["modules"]
    assert loaded == TABLE1_MODULES
    unused = ("repro.controlplane", "repro.resilience", "repro.tracing",
              "repro.cluster.faults", "repro.cluster.geo", "repro.parallel",
              "repro.analysis", "repro.statan")
    assert not [m for m in loaded if m.startswith(unused)]
