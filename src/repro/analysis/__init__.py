"""The paper's diagnostic methodology, made programmatic.

Queue-peak detection, millibottleneck detection from observables,
causal-chain correlation (including lag scanning, which recovers the
TCP retransmission timer from data), phase segmentation around stalls,
funnel/lock-on metrics, report builders, CSV/JSON export, and terminal
plotting.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.queueing": ("QueuePeak", "find_peaks",
                                "adaptive_threshold", "tier_series",
                                "coinciding_peaks"),
    "repro.analysis.millibottleneck": ("DetectedMillibottleneck", "detect",
                                       "saturated_windows",
                                       "match_ground_truth",
                                       "SATURATION_LEVEL"),
    "repro.analysis.correlation": ("pearson", "align", "drops_of",
                                   "causal_chain_report"),
    "repro.analysis.lag": ("lagged_pearson", "best_lag", "shift"),
    "repro.analysis.export": ("export_result", "series_to_csv",
                              "series_from_csv"),
    "repro.analysis.phases": ("Phases", "segment", "funnel_fraction",
                              "lock_on_fraction", "peak_growth",
                              "distribution_by_phase", "evenness"),
    "repro.analysis.report": ("table1", "table1_with_paper",
                              "improvement_factors", "shape_check",
                              "PAPER_TABLE1"),
    "repro.analysis.asciiplot": ("sparkline", "timeline", "histogram",
                                 "table"),
})
