"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check the layer table against the source tree, the profile
attribution's bookkeeping, the fingerprint gate, and that the benchmark
refuses to run without the simulator's source.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import run  # noqa: E402


def test_every_source_module_has_a_layer():
    modules = layers.source_modules(SRC)
    assert "repro.sim.core" in modules
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS, module


def test_unmapped_module_is_an_error():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of("repro.not_a_layer")
    assert layers.layer_of("repro.workload.aggregate") == "aggregate"
    assert layers.layer_of("repro.workload.mix") == "workload"
    assert layers.layer_of("repro") == "tools"


def test_layer_self_times_sum_to_the_profiled_total():
    from repro.cluster.config import ScaleProfile
    from repro.cluster.runner import ExperimentConfig, ExperimentRunner

    runner = ExperimentRunner(ExperimentConfig(
        profile=ScaleProfile.smoke(), duration=1.0, seed=3,
        trace_requests=True))
    profiler = cProfile.Profile()
    profiler.runcall(runner.run)
    self_s, calls, total = layers.attribute(profiler.getstats(), SRC,
                                            "cluster")
    assert set(self_s) == set(layers.LAYERS)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)
    assert min(self_s.values()) >= 0.0
    for layer in ("sim", "workload", "tiers", "core", "tracing"):
        assert self_s[layer] > 0.0 and calls[layer] > 0, layer
    assert self_s["aggregate"] == 0.0 and calls["aggregate"] == 0


def test_same_seed_reproduces_the_recorded_fingerprint():
    reference = json.loads((HERE / "reference.json").read_text())
    seed = reference["default_seed"]
    expected = reference["fingerprints"]["geo_outage"][str(seed)]
    first = run.spawn("geo_outage", seed, "timed")
    second = run.spawn("geo_outage", seed, "timed")
    assert first["fingerprint"] == second["fingerprint"] == expected
    assert first["setup_s"] > 0.0 and first["run_s"] > 0.0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
