"""Metrics, statistics, reporting and persistence for experiments."""

from repro.analysis.chains import ChainStats, summarize_chains
from repro.analysis.charts import bar_chart, line_plot
from repro.analysis.metrics import PeerRecord, SwarmMetrics
from repro.analysis.persist import (
    load_run_json,
    run_summary,
    save_peers_csv,
    save_run_json,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.stats import (confidence_interval_95, km_median, mean,
                                  summarize)

__all__ = [
    "ChainStats",
    "PeerRecord",
    "SwarmMetrics",
    "bar_chart",
    "confidence_interval_95",
    "format_series",
    "format_table",
    "km_median",
    "line_plot",
    "load_run_json",
    "mean",
    "run_summary",
    "save_peers_csv",
    "save_run_json",
    "summarize",
    "summarize_chains",
]
