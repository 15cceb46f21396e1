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
- :mod:`repro.obs.runlog` — the one append-only JSONL writer
  (:class:`JsonlLog`) and tolerant reader (:func:`read_jsonl`) of every
  sweep log — the run-log, the diagnosis log and the fleet ledger — and
  the run-log's audit records, one per sweep cell, provenance-stamped
  with schema and package versions;
- :mod:`repro.obs.diagnose` — per-run :class:`PolicyDiagnosis`: settling
  detection, prediction-error ledger, deadline-miss attribution, and the
  excess-energy decomposition against the ideal-constant oracle;
- :mod:`repro.obs.report` — run-log + diagnosis aggregation, built once
  as a list of blocks and rendered as markdown or self-contained HTML;
  also the one renderer of the fleet ledger (``repro fleet``).

:mod:`repro.obs.telemetry` holds the live ``--progress`` line: one
sweep observer, :class:`ProgressDisplay`, that draws it from the
engine's heartbeats when its stream is a terminal.  Fleet analytics
ride the same seams: :mod:`repro.obs.fleet` keeps the ledger of past
sweeps and runs the perf-regression sentinel (:func:`check_fleet`),
which compares a sweep only with earlier sweeps from its own host, and
:mod:`repro.obs.plot` draws the ledger's dependency-free inline-SVG
trend curves for the HTML report.
"""
