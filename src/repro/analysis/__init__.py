"""Result analysis: statistics, convergence diagnostics, comparison tables."""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".comparison": ("ComparisonRow", "comparison_table", "format_table"),
        ".convergence": ("batch_means", "running_mean", "running_mean_fluctuation"),
        ".statistics": ("confidence_interval", "relative_error", "summarize"),
        ".traces": (
            "empirical_idc",
            "empirical_interarrival_ccdf",
            "interarrival_times",
            "peak_to_mean_ratio",
            "rate_in_windows",
        ),
    },
)
