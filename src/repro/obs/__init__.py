"""Observability: tracing, sweep timelines, run-logs, diagnostics, reports.

The reproduction's answer to the paper's measurement rig.  Its tiers
read finished kernel runs or watch the sweep engine, and none perturbs
results (sweep observers are pure observers; the determinism tests pin
runs with and without observability to bitwise equality):

- :mod:`repro.obs.trace` — :func:`chrome_trace` exports a kernel run
  that kept its scheduler log as Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (the software analogue of the DAQ capture);
- :mod:`repro.obs.profile` — the :class:`SweepTimeline` a sweep engine
  stamps each pipeline stage into once (reduced to per-phase seconds,
  exported as a Chrome trace with one lane per pool worker), and the
  :class:`SweepObserver` protocol of the engine's per-cell observers;
- :mod:`repro.obs.runlog` — append-only JSONL audit records, one per
  sweep cell, provenance-stamped with schema and package versions;
- :mod:`repro.obs.diagnose` — per-run :class:`PolicyDiagnosis`: settling
  detection, prediction-error ledger, deadline-miss attribution, and the
  excess-energy decomposition against the ideal-constant oracle;
- :mod:`repro.obs.report` — run-log + diagnosis aggregation rendered as
  markdown or self-contained HTML.

:mod:`repro.obs.telemetry` holds the live ``--progress`` display.  Fleet
analytics ride the same seams: :mod:`repro.obs.calibrate`
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
        "plot": ("fleet_charts", "fleet_plot_svg"),
        "profile": (
            "PHASE_ORDER",
            "SweepObserver",
            "SweepTimeline",
            "format_phase_table",
        ),
        "report": ("SweepReport", "build_report", "render_report"),
        "telemetry": ("ProgressDisplay",),
        "runlog": (
            "RUN_LOG_VERSION",
            "RunLogRecord",
            "RunLogWriter",
            "provenance_warnings",
            "read_run_log",
        ),
        "trace": (
            "chrome_trace",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
    },
)
