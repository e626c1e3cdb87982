"""The paper's experiments: parameter sets and per-figure runners.

Every table and figure in the paper's evaluation maps to one module here
(see DESIGN.md's per-experiment index); the pytest-benchmark suite under
``benchmarks/`` is a thin wrapper that runs these and prints the same rows
the paper reports.  Examples reuse them too, so paper numbers live in
exactly one place.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".accuracy": ("run_accuracy_sweep", "run_runtime_comparison"),
        ".configs": (
            "base_parameters",
            "bench_scale",
            "fig9_parameters",
            "paper_reference",
        ),
        ".control_study": (
            "run_admission_study",
            "run_bandwidth_gap",
            "run_overlay_design",
        ),
        ".extensions": ("run_heavy_tail_ablation", "run_multiplexing_study"),
        ".fig08": ("run_fig8",),
        ".fig09_10": ("run_fig9", "run_fig9_empirical", "run_fig10_tail"),
        ".fig11_12": ("run_fig11", "run_fig12"),
        ".fig13_18": ("run_fig13", "run_fig14_to_17", "run_fig18"),
        ".fig19_20": ("run_fig19", "run_fig20", "run_sec5_joint_scaling"),
        ".headline": ("run_headline", "run_headline_campaign"),
    },
)
