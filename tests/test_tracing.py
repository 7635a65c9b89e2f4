"""The span-tree tracer, critical-path decomposer and VLRT explainer.

Unit tests drive the tracer by hand through a bare kernel; the
acceptance tests reproduce the paper's headline claim from trace data
alone: on a millibottleneck run, (nearly) every VLRT request is
dominated by retransmission backoff or queue wait, and the
retransmission-dominated ones cluster at 1 s / 2 s / 3 s — the
multiples of the TCP minimum RTO (Fig. 4).
"""

import json

import pytest

from repro.cluster.runner import ExperimentRunner
from repro.cluster.scenarios import policy_run
from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.tracing import (
    BUCKET_OF_SPAN,
    SpanTracer,
    VLRT_CAUSE_BUCKETS,
    chrome_trace,
    decompose,
    explain_vlrt,
    trace_report,
    trace_to_dict,
)

from dataclasses import replace


def drive(env, generator):
    env.process(generator)
    env.run()


class TestSpanTracer:
    def test_begin_end_lifecycle(self):
        env = Environment()
        tracer = SpanTracer(env)

        def script():
            tracer.begin(1, interaction="Home")
            yield env.timeout(2.5)
            tracer.end(1, status="ok", served_by="tomcat1")

        drive(env, script())
        trace = tracer.get(1)
        assert trace.completed
        assert trace.status == "ok"
        assert trace.duration == pytest.approx(2.5)
        assert trace.root.meta["interaction"] == "Home"
        assert len(tracer) == 1

    def test_nesting_follows_open_order(self):
        env = Environment()
        tracer = SpanTracer(env)

        def script():
            tracer.begin(1)
            outer = tracer.start(1, "apache.service")
            yield env.timeout(1.0)
            inner = tracer.start(1, "tomcat.service")
            yield env.timeout(1.0)
            tracer.finish(inner)
            tracer.finish(outer)
            tracer.end(1)

        drive(env, script())
        trace = tracer.get(1)
        assert trace.signature() == (
            "request(apache.service(tomcat.service))")
        (outer,) = trace.spans_named("apache.service")
        (inner,) = trace.spans_named("tomcat.service")
        assert inner.parent is outer
        assert outer.parent is trace.root
        assert inner.depth == 2

    def test_finish_is_idempotent_and_none_safe(self):
        env = Environment()
        tracer = SpanTracer(env)

        def script():
            tracer.begin(1)
            span = tracer.start(1, "apache.service")
            yield env.timeout(1.0)
            tracer.finish(span)
            first_end = span.end
            yield env.timeout(1.0)
            tracer.finish(span)  # double close: no-op
            assert span.end == first_end
            tracer.finish(None)  # None: no-op

        drive(env, script())

    def test_out_of_order_finish_unwinds_the_stack(self):
        """A fault can close an outer span while a child is open."""
        env = Environment()
        tracer = SpanTracer(env)

        def script():
            tracer.begin(1)
            outer = tracer.start(1, "balancer.dispatch")
            inner = tracer.start(1, "balancer.endpoint_wait")
            yield env.timeout(1.0)
            tracer.finish(outer)  # out of order
            # The next span must not become a child of the closed outer.
            late = tracer.start(1, "tcp.retransmit_wait")
            tracer.finish(late)
            tracer.finish(inner)
            tracer.end(1)

        drive(env, script())
        trace = tracer.get(1)
        (late,) = trace.spans_named("tcp.retransmit_wait")
        assert late.parent.name == "balancer.endpoint_wait"

    def test_stack_unwinds_past_spans_closed_out_of_order(self):
        """Closing the innermost span makes the innermost span still
        open current again — never one already closed out of order."""
        env = Environment()
        tracer = SpanTracer(env)
        tracer.begin(1)
        outer = tracer.start(1, "balancer.dispatch")
        middle = tracer.start(1, "balancer.endpoint_wait")
        inner = tracer.start(1, "balancer.send")
        tracer.finish(middle)  # out of order
        tracer.finish(inner)   # unwinds past middle to outer
        tracer.finish(tracer.start(1, "balancer.retry_pause"))
        tracer.finish(outer)   # unwinds to the root
        tracer.finish(tracer.start(1, "tcp.retransmit_wait"))
        trace = tracer.get(1)
        (pause,) = trace.spans_named("balancer.retry_pause")
        (late,) = trace.spans_named("tcp.retransmit_wait")
        assert pause.parent.name == "balancer.dispatch"
        assert late.parent is trace.root

    def test_named_close_unwinds_past_spans_closed_out_of_order(self):
        env = Environment()
        tracer = SpanTracer(env)
        tracer.begin(1)
        outer = tracer.start(1, "apache.service")
        tracer.start_named(1, "tomcat.queue_wait")
        tracer.finish(outer)  # out of order: the named wait is innermost
        tracer.finish_named(1, "tomcat.queue_wait")
        tracer.finish(tracer.start(1, "tcp.retransmit_wait"))
        trace = tracer.get(1)
        (late,) = trace.spans_named("tcp.retransmit_wait")
        assert late.parent is trace.root

    def test_named_spans_cross_components(self):
        env = Environment()
        tracer = SpanTracer(env)

        def producer():
            tracer.begin(1)
            tracer.start_named(1, "apache.queue_wait", socket="apache1")
            tracer.start_named(1, "apache.queue_wait")  # dup: ignored
            yield env.timeout(3.0)

        def consumer():
            yield env.timeout(2.0)
            tracer.finish_named(1, "apache.queue_wait")
            tracer.finish_named(1, "apache.queue_wait")  # again: no-op
            tracer.finish_named(1, "never.opened")       # unknown: no-op
            tracer.end(1)

        env.process(producer())
        env.process(consumer())
        env.run()
        trace = tracer.get(1)
        (wait,) = trace.spans_named("apache.queue_wait")
        assert wait.duration == pytest.approx(2.0)
        assert wait.meta["socket"] == "apache1"

    def test_untraced_request_ids_are_noops(self):
        env = Environment()
        tracer = SpanTracer(env)
        assert tracer.start(99, "apache.service") is None
        tracer.end(99)
        tracer.instant(99, "apache.error_503")
        tracer.start_named(99, "tomcat.queue_wait")
        tracer.finish_named(99, "tomcat.queue_wait")
        assert len(tracer) == 0

    def test_instant_spans_have_zero_duration(self):
        env = Environment()
        tracer = SpanTracer(env)
        tracer.begin(1)
        tracer.instant(1, "hedge.issued", clone=-11)
        (span,) = tracer.get(1).spans_named("hedge.issued")
        assert span.duration == 0.0
        assert span.meta["clone"] == -11

    def test_finalize_closes_stragglers(self):
        env = Environment()
        tracer = SpanTracer(env)

        def script():
            tracer.begin(1)
            tracer.start(1, "apache.service")
            tracer.begin(2)
            yield env.timeout(4.0)
            tracer.end(2)

        drive(env, script())
        tracer.finalize()
        straggler = tracer.get(1)
        assert straggler.root.end == pytest.approx(4.0)
        assert straggler.status == "unfinished"
        assert not straggler.completed
        (span,) = straggler.spans_named("apache.service")
        assert span.meta["unfinished"] is True
        # The normally-ended trace keeps its status.
        assert tracer.get(2).completed
        assert tracer.completed_traces() == [tracer.get(2)]


class TestCriticalPath:
    def build(self, script_factory):
        env = Environment()
        tracer = SpanTracer(env)
        drive(env, script_factory(env, tracer))
        tracer.finalize()
        return tracer.get(1)

    def test_buckets_reconstruct_duration_by_self_time(self):
        def script(env, tracer):
            tracer.begin(1)
            retrans = tracer.start(1, "tcp.retransmit_wait")
            yield env.timeout(1.0)
            tracer.finish(retrans)
            service = tracer.start(1, "apache.service")
            yield env.timeout(0.010)
            inner = tracer.start(1, "tomcat.service")
            yield env.timeout(0.020)
            tracer.finish(inner)
            tracer.finish(service)
            tracer.end(1)

        path = decompose(self.build(script))
        assert sum(path.buckets.values()) == pytest.approx(
            path.total, abs=1e-12)
        assert path.buckets["retransmission"] == pytest.approx(1.0)
        assert path.buckets["service.apache"] == pytest.approx(0.010)
        assert path.buckets["service.tomcat"] == pytest.approx(0.020)
        assert path.dominant == "retransmission"
        assert path.fraction("retransmission") == pytest.approx(
            1.0 / 1.030)

    def test_children_are_clipped_to_parent_interval(self):
        """Ghost work outliving the root is not charged to the client."""
        def script(env, tracer):
            tracer.begin(1)
            span = tracer.start(1, "tomcat.service")
            yield env.timeout(0.5)
            tracer.end(1)          # client is done at 0.5 s
            yield env.timeout(1.5)
            tracer.finish(span)    # ghost service ends at 2.0 s

        path = decompose(self.build(script))
        assert path.total == pytest.approx(0.5)
        assert sum(path.buckets.values()) == pytest.approx(0.5)
        assert path.buckets["service.tomcat"] == pytest.approx(0.5)

    def test_every_instrumented_span_name_has_a_bucket(self):
        instrumented = [
            "request", "tcp.retransmit_wait", "apache.queue_wait",
            "apache.service", "balancer.dispatch",
            "balancer.endpoint_wait", "balancer.retry_pause",
            "balancer.breaker_pause", "balancer.send",
            "tomcat.queue_wait", "tomcat.service", "mysql.pool_wait",
            "mysql.service", "hedge.issued", "hedge.win",
        ]
        for name in instrumented:
            assert name in BUCKET_OF_SPAN, name

    def test_queue_wait_buckets_count_as_vlrt_causes(self):
        assert "retransmission" in VLRT_CAUSE_BUCKETS
        assert "queue_wait.apache" in VLRT_CAUSE_BUCKETS
        assert "endpoint_wait" in VLRT_CAUSE_BUCKETS
        assert "service.tomcat" not in VLRT_CAUSE_BUCKETS


class TestExplainVlrt:
    def synthetic_trace(self, env, tracer, request_id, retrans_periods,
                        service=0.005):
        def script():
            tracer.begin(request_id)
            for _ in range(retrans_periods):
                span = tracer.start(request_id, "tcp.retransmit_wait")
                yield env.timeout(1.0)
                tracer.finish(span)
            span = tracer.start(request_id, "tomcat.service")
            yield env.timeout(service)
            tracer.finish(span)
            tracer.end(request_id)

        return script()

    def test_clusters_count_rto_multiples(self):
        env = Environment()
        tracer = SpanTracer(env)
        plan = {1: 1, 2: 1, 3: 2, 4: 3, 5: 0}
        for request_id, periods in plan.items():
            env.process(self.synthetic_trace(env, tracer, request_id,
                                             periods))
        env.run()
        explanation = explain_vlrt(tracer.traces.values(), rto=1.0)
        assert explanation.total_requests == 5
        assert explanation.vlrt_count == 4   # the 0-period one is fast
        assert explanation.clusters == {1: 2, 2: 1, 3: 1}
        assert explanation.by_cause == {"retransmission": 4}
        assert explanation.explained_fraction == 1.0
        # Paths come back slowest first.
        totals = [path.total for path in explanation.paths]
        assert totals == sorted(totals, reverse=True)

    def test_no_vlrt_requests_renders_cleanly(self):
        env = Environment()
        tracer = SpanTracer(env)
        env.process(self.synthetic_trace(env, tracer, 1, 0))
        env.run()
        explanation = explain_vlrt(tracer.traces.values())
        assert explanation.vlrt_count == 0
        assert explanation.explained_fraction == 1.0
        assert "nothing to explain" in explanation.render()

    def test_to_dict_round_trips_through_json(self):
        env = Environment()
        tracer = SpanTracer(env)
        env.process(self.synthetic_trace(env, tracer, 1, 2))
        env.run()
        payload = json.loads(json.dumps(
            explain_vlrt(tracer.traces.values()).to_dict()))
        assert payload["vlrt_count"] == 1
        assert payload["clusters"] == {"2": 1}
        assert payload["paths"][0]["dominant"] == "retransmission"


# -- acceptance: the paper's claim, from traces alone ----------------------

DURATION = 12.0
SEED = 20170601


@pytest.fixture(scope="module")
def traced_original():
    """The Fig. 3-5 instability run, with request tracing on."""
    config = replace(
        policy_run("original_total_request", duration=DURATION, seed=SEED),
        trace_requests=True)
    return ExperimentRunner(config).run()


class TestVlrtAcceptance:
    def test_vlrt_requests_occurred(self, traced_original):
        assert traced_original.stats().vlrt_count > 50

    def test_trace_counts_agree_with_the_recorder(self, traced_original):
        """Trace-derived VLRTs == recorder-derived VLRTs, per request."""
        explanation = traced_original.explain_vlrt()
        assert explanation.vlrt_count == traced_original.stats().vlrt_count
        recorded = {request.request_id for request
                    in traced_original.recorder.vlrt_requests()}
        traced = {path.request_id for path in explanation.paths}
        assert traced == recorded

    def test_vlrts_attributed_to_the_papers_mechanisms(
            self, traced_original):
        """>= 90% of VLRT requests are dominated by retransmission
        backoff or queue wait (the acceptance bar; observed: 100%)."""
        explanation = traced_original.explain_vlrt()
        assert explanation.explained_fraction >= 0.9

    def test_retransmission_clustering_reproduced_from_traces(
            self, traced_original):
        """Fig. 4: clusters at 1 s, 2 s and 3 s — RTO multiples."""
        clusters = traced_original.explain_vlrt().clusters
        assert clusters.get(1, 0) > 0
        assert clusters.get(2, 0) > 0
        assert clusters.get(3, 0) > 0
        # The 1 s cluster is the largest, as in the paper.
        assert clusters[1] == max(clusters.values())

    def test_bucket_sums_reconstruct_every_completed_request(
            self, traced_original):
        for trace in traced_original.traces():
            if not trace.completed:
                continue
            path = decompose(trace)
            assert sum(path.buckets.values()) == pytest.approx(
                trace.duration, abs=1e-9)

    def test_slowest_traces_are_sorted_and_reportable(
            self, traced_original):
        slowest = traced_original.slowest_traces(3)
        durations = [trace.duration for trace in slowest]
        assert durations == sorted(durations, reverse=True)
        report = trace_report(slowest[0])
        assert "critical path" in report
        assert "request #" in report

    def test_chrome_export_is_well_formed(self, traced_original):
        document = chrome_trace(traced_original.slowest_traces(2))
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for event in complete:
            assert event["dur"] >= 0.0
            assert isinstance(event["ts"], float)
        assert any(e["ph"] == "M" for e in events)

    def test_trace_to_dict_nests_like_the_tree(self, traced_original):
        trace = traced_original.slowest_traces(1)[0]
        payload = trace_to_dict(trace)
        assert payload["request_id"] == trace.request_id
        assert payload["root"]["name"] == "request"

        def count(node):
            return 1 + sum(count(child)
                           for child in node.get("children", ()))

        assert count(payload["root"]) == trace.span_count()

    def test_untraced_result_raises_a_configuration_error(self):
        config = policy_run("original_total_request", duration=0.5)
        result = ExperimentRunner(config).run()
        with pytest.raises(ConfigurationError):
            result.traces()
