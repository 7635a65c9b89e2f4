"""Per-request span trees and the VLRT critical-path explainer.

The paper's methodology is fine-grained monitoring: VLRT requests only
become explainable when the 50-300 ms window where queue wait, the
stalled Tomcat, the accept-queue overflow and the TCP retransmission
line up is visible.  This package records that window *per request*:

* :class:`~repro.tracing.spans.SpanTracer` — one span tree per
  request, one span per hop, installed on ``Environment.tracer`` and
  zero-cost when absent (it never creates events, so golden traces are
  byte-identical with tracing on or off);
* :func:`~repro.tracing.critical_path.decompose` — attributes each
  request's latency to named buckets (queue wait per tier, service,
  endpoint wait, retransmission backoff) whose sum reconstructs the
  end-to-end response time;
* :func:`~repro.tracing.explain.explain_vlrt` — groups >1 s requests
  by dominant cause and reproduces the paper's 1 s / 2 s / 3 s
  retransmission clustering from span data alone;
* :mod:`~repro.tracing.export` — Chrome trace-event JSON and
  per-request text/JSON reports (``repro-lb trace``).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tracing.critical_path": ("BUCKET_OF_SPAN", "QUEUE_WAIT_BUCKETS",
                                    "VLRT_CAUSE_BUCKETS", "CriticalPath",
                                    "bucket_for", "decompose",
                                    "is_vlrt_cause"),
    "repro.tracing.spans": ("RequestTrace", "Span", "SpanTracer"),
    "repro.tracing.explain": ("VlrtExplanation", "explain_vlrt"),
    "repro.tracing.export": ("chrome_trace", "trace_report", "trace_to_dict",
                             "write_chrome_trace"),
})
