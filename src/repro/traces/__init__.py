"""Trace records and persistence.

Everything the instrumented Itsy of the paper logs -- scheduling decisions,
per-quantum utilization, clock/voltage changes, application events, and the
power signal -- is represented here as plain record types, with CSV/JSON
round-trip in :mod:`repro.traces.io` and a content-addressed, replayable
trace corpus in :mod:`repro.traces.corpus`.
"""
