"""Experiment drivers and reporting for every table/figure of the paper."""

from .experiments import (AblationResult, ErrorLedger, Figure2Result,
                          Figure3Result, Figure4Result, Figure5Result,
                          GracefulSweepResult, HeadlineResult, LedgerEntry,
                          run_ablation_free_copies, run_graceful_sweep,
                          run_one_safe,
                          run_ablation_modified, run_ablation_predictor,
                          run_ablation_rename2,
                          run_figure2, run_figure3, run_figure4_bandwidth,
                          run_figure4_latency, run_figure5, run_headline,
                          run_ablation_static, run_one,
                          run_predictor_comparison, run_robustness,
                          run_scaling,
                          ScalingResult, selected_workloads, trace_length)
from .cache import (CacheStats, ResultCache, active_cache, code_version,
                    default_cache, resolve_cache, use_cache)
from .export import (ablation_rows, figure2_rows, figure3_rows,
                     figure4_rows, figure5_rows, headline_rows,
                     interval_rows, scaling_rows, to_csv, to_json)
from .metrics import ipcr, mean, pct_change, suite_mean
from .perf_report import (BENCH_SCHEMA, append_entry, dedup_history,
                          find_regressions, load_history, normalize_entry,
                          render_dashboard, shape_key)
from .provenance import (RunReceipt, config_sha256, git_commit, host_info,
                         stamp)
from .parallel import (CellFailure, CellOutcome, SweepCell, WorkerPool,
                       active_pool, cell_seed, is_transient_error,
                       resolve_chunksize, resolve_jobs,
                       resolve_trace_length, run_cells,
                       simulate_sweep_cell)
from .report import (bar, format_ablation, format_figure2, format_figure3,
                     format_figure4, format_figure5, format_headline, table)
from .sampling import (SampledResult, SampleWindow, SamplingConfig,
                       simulate_sampled)
from .timeline import (capture_timeline, pipeline_timeline,
                       render_timeline, timeline_from_events)

__all__ = [
    "AblationResult", "Figure2Result", "Figure3Result", "Figure4Result",
    "Figure5Result", "HeadlineResult",
    "ErrorLedger", "LedgerEntry", "GracefulSweepResult",
    "run_one_safe", "run_graceful_sweep",
    "run_ablation_free_copies",
    "run_ablation_modified", "run_ablation_predictor",
    "run_ablation_rename2", "run_figure2",
    "run_figure3", "run_figure4_bandwidth", "run_figure4_latency",
    "run_figure5", "run_headline", "run_one",
    "run_predictor_comparison", "run_ablation_static",
    "run_scaling", "ScalingResult", "run_robustness",
    "selected_workloads",
    "trace_length",
    "CellFailure", "CellOutcome", "SweepCell", "WorkerPool",
    "active_pool", "cell_seed",
    "is_transient_error", "resolve_chunksize", "resolve_jobs",
    "resolve_trace_length", "run_cells", "simulate_sweep_cell",
    "CacheStats", "ResultCache", "active_cache", "code_version",
    "default_cache", "resolve_cache", "use_cache",
    "BENCH_SCHEMA", "append_entry", "dedup_history", "find_regressions",
    "load_history", "normalize_entry", "render_dashboard", "shape_key",
    "RunReceipt", "config_sha256", "git_commit", "host_info", "stamp",
    "ipcr", "mean", "pct_change", "suite_mean",
    "ablation_rows", "figure2_rows", "figure3_rows", "figure4_rows",
    "figure5_rows", "headline_rows", "interval_rows", "scaling_rows",
    "to_csv", "to_json",
    "bar", "format_ablation", "format_figure2", "format_figure3",
    "format_figure4", "format_figure5", "format_headline", "table",
    "capture_timeline", "pipeline_timeline",
    "render_timeline", "timeline_from_events",
    "SampledResult", "SampleWindow", "SamplingConfig", "simulate_sampled",
]
