"""Measurement substrate: time series, windowed counters, recorders.

Everything the paper measures — point-in-time response times, 50 ms
VLRT windows, fine-grained CPU utilisation, queue-length timelines,
response-time distributions, Table-I summary statistics — is built
from the primitives in this package.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.timeseries": ("TimeSeries",),
    "repro.metrics.windows": ("WindowedCounter", "BusyTracker",
                              "PAPER_WINDOW"),
    "repro.metrics.stats": ("ResponseTimeStats", "percentile",
                            "VLRT_THRESHOLD", "NORMAL_THRESHOLD"),
    "repro.metrics.recorder": ("ResponseTimeRecorder",
                               "StreamingResponseTimeRecorder",
                               "CompletedRequest"),
    "repro.metrics.distribution": ("ResponseTimeDistribution",),
    "repro.metrics.throughput": ("throughput_series", "goodput_series",
                                 "goodput_ratio", "interval_throughput"),
})
