"""Observability: tracing, metrics, run-logs, diagnostics, and reports.

The reproduction's answer to the paper's measurement rig.  Five tiers,
all built on existing hook points and all guaranteed not to perturb
results (recorders are pure observers; the determinism tests pin runs
with and without observability to bitwise equality):

- :mod:`repro.obs.trace` — :class:`TraceRecorder` captures every kernel
  observation and exports Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (the software analogue of the DAQ capture);
- :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  picklable snapshots that merge across sweep worker processes;
- :mod:`repro.obs.runlog` — append-only JSONL audit records, one per
  sweep cell, provenance-stamped with schema and package versions;
- :mod:`repro.obs.diagnose` — per-run :class:`PolicyDiagnosis`: settling
  detection, prediction-error ledger, deadline-miss attribution, and the
  excess-energy decomposition against the ideal-constant oracle;
- :mod:`repro.obs.report` — run-log + diagnosis aggregation rendered as
  markdown or self-contained HTML.

Fleet analytics ride the same seams: :mod:`repro.obs.profile`
attributes sweep wall time to pipeline phases, :mod:`repro.obs.calibrate`
scores the host so throughput normalizes across machines,
:mod:`repro.obs.fleet` keeps the ledger of past sweeps and runs the
perf-regression sentinel (:func:`check_fleet`), and
:mod:`repro.obs.plot` renders the ledger as dependency-free inline-SVG
trend curves.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "calibrate": (
            "HostCalibration",
            "calibrate",
            "host_score",
            "load_calibration",
            "save_calibration",
        ),
        "diagnose": (
            "DIAGNOSIS_VERSION",
            "DiagnosisWriter",
            "EnergyDecomposition",
            "MissAttribution",
            "PolicyDiagnosis",
            "PredictionLedger",
            "SettlingReport",
            "diagnose",
            "read_diagnoses",
        ),
        "fleet": (
            "FleetLedger",
            "FleetRecord",
            "SentinelReport",
            "check_fleet",
            "read_fleet",
            "throughput_trend",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "HistogramSnapshot",
            "KernelMetricsRecorder",
            "MetricsRegistry",
            "MetricsSnapshot",
            "merge_snapshots",
        ),
        "plot": ("fleet_charts", "fleet_plot_svg"),
        "profile": (
            "PHASE_ORDER",
            "PhaseProfile",
            "format_phase_table",
            "record_kernel_phase",
        ),
        "report": ("SweepReport", "build_report", "render_report"),
        "runlog": (
            "RUN_LOG_VERSION",
            "RunLogRecord",
            "RunLogWriter",
            "provenance_warnings",
            "read_run_log",
        ),
        "trace": (
            "TraceRecorder",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
    },
)
