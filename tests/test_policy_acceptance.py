"""Acceptance cells for the modern-policy rematch (PR-8 style).

One millibottleneck-heavy cell — disk-starved Tomcats plus the
packet-loss chaos fault — run under the baseline policy and three
modern challengers.  The headline claims pinned here:

* Prequal's probe pool sees the stall through backend-reported RIF and
  routes around it: %VLRT well under the baseline's, at a measured,
  non-zero probe-message cost.
* JIQ's idle queue is even stronger in this regime: a stalled member
  never drains to idle, so it simply vanishes from the queue.
* Sticky affinity pays for its session promise under millibottlenecks:
  it beats the cumulative baseline only via its current_load fallback,
  and the broken-promise count (violations) is reported, non-zero.

Runs are seeded and the simulation is deterministic, so the thresholds
are tight for this cell rather than statistical.
"""

from dataclasses import replace

import pytest

from repro.cluster.chaos import fault_specs
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig
from repro.parallel import run_experiments


class TestRematchAcceptance:
    @pytest.fixture(scope="class")
    def cell(self):
        """Disk-starved + packet-loss: baseline vs the modern zoo."""
        profile = replace(ScaleProfile(), tomcat_disk_bandwidth=4e6)
        base = dict(profile=profile, duration=12.0, seed=42,
                    trace_lb_values=False, trace_dispatches=False,
                    faults=fault_specs("packet_loss", 12.0))
        keys = ["original_total_request", "prequal", "jiq", "sticky"]
        configs = [ExperimentConfig(bundle_key=key, **base)
                   for key in keys]
        results = run_experiments(configs, workers=4)
        return dict(zip(keys, results))

    def test_baseline_funnels_into_the_millibottleneck(self, cell):
        baseline = cell["original_total_request"]
        assert 100.0 * baseline.stats().vlrt_fraction > 5.0
        assert baseline.dropped_packets() > 0

    def test_prequal_beats_the_baseline_on_vlrt(self, cell):
        """Probed-RIF ranking dodges most of the funnel — and the probe
        overhead it pays for that is measured, not hidden."""
        baseline = cell["original_total_request"]
        prequal = cell["prequal"]
        base_vlrt = 100.0 * baseline.stats().vlrt_fraction
        prequal_vlrt = 100.0 * prequal.stats().vlrt_fraction
        assert prequal_vlrt < 0.7 * base_vlrt
        assert prequal.probe_messages() > 0
        assert prequal.goodput() > baseline.goodput()

    def test_jiq_beats_the_baseline_on_vlrt(self, cell):
        """A stalled member never drains to idle, so JIQ stops feeding
        it the moment the stall begins — no drops, sub-1% VLRT."""
        baseline = cell["original_total_request"]
        jiq = cell["jiq"]
        assert 100.0 * jiq.stats().vlrt_fraction < 1.0
        assert jiq.dropped_packets() == 0
        assert jiq.goodput() > baseline.goodput()
        assert jiq.probe_messages() == 0  # the idle queue costs no traffic

    def test_sticky_reports_its_broken_promises(self, cell):
        """Affinity under millibottlenecks: the 3-state machine forces
        failovers, and every one is counted — never silently absorbed."""
        baseline = cell["original_total_request"]
        sticky = cell["sticky"]
        assert sticky.sticky_violations() > 0
        # The current_load fallback still beats the cumulative baseline,
        # but affinity gives back part of that win.
        assert (100.0 * sticky.stats().vlrt_fraction
                < 100.0 * baseline.stats().vlrt_fraction)
        assert baseline.sticky_violations() == 0
