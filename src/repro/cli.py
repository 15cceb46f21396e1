"""Command-line interface: run the paper's experiments from a shell.

Usage (after installation)::

    python -m repro list-policies
    python -m repro list-machines
    python -m repro run mpeg --policy best
    python -m repro run mpeg --policy past-peg-98-93 --machine sa2
    python -m repro run web --policy avg3-one --duration 60
    python -m repro table2 --runs 3
    python -m repro fig9
    python -m repro battery
    python -m repro trace mpeg --policy past-peg-98-93 -o trace.json
    python -m repro diagnose avg3-one mpeg
    python -m repro report sweep.jsonl --diagnoses diag.jsonl -o report.html
    python -m repro fuzz --count 50 --seed 2026 --save-failures fuzz-failures

Policies are named:

- ``const-<mhz>`` -- constant speed (e.g. ``const-132.7``), optionally at
  an explicit voltage (``const-132.7@1.23``);
- ``best`` / ``best-voltage`` -- the paper's best policy, optionally with
  voltage scaling at 162.2 MHz;
- ``<past|avgN>-<setter>`` -- an interval policy with one/double/peg both
  directions and Pering's 50/70 thresholds (e.g. ``avg9-peg``), or with
  explicit percent thresholds (``past-peg-98-93``);
- ``cycleavg`` -- the naive busy-cycle averaging policy of Figure 5;
- ``synth`` -- the synthesized-deadline governor (§6 future work).

Simulation commands accept ``--machine`` to pick the hardware (``itsy``,
``itsy@1.23``, ``itsy-stock``, ``sa2``, or the reconfiguration-cost
variants ``itsy-reconf``/``sa2-reconf`` -- see ``list-machines``),
``--backend`` to pick the execution backend (``fastpath``, the default,
or ``reference`` -- see :mod:`repro.kernel.backend`).  ``run``,
``table2``, ``fig9`` and ``ideal`` are sweep commands: they run every
simulation as a cell of the sweep engine (see
:mod:`repro.measure.parallel`), in-process by default,
and take ``--jobs N`` to fan cells out over a process pool, ``--cache
DIR`` to memoize results on disk, ``--run-log PATH`` to append one
structured JSONL record per cell (see :mod:`repro.obs.runlog`), and
``--diagnoses PATH`` to diagnose every executed cell worker-side (see
:mod:`repro.obs.diagnose`); every backend, parallel, cached and observed
path is bitwise-equal to the serial, uncached one.  :func:`main` builds
a sweep command's one engine and closes it, with every log, however the
command ends; a command that returns then prints a throughput summary
line (cells simulated/cached, wall time, cells/s) to stderr, and a
failed cell ends it with exit 2 at every ``--jobs``.
``trace`` exports a single run as Chrome trace-event JSON for Perfetto
(see :mod:`repro.obs.trace`), ``diagnose`` runs one cell on a diagnosing
sweep engine and explains it (settling, prediction error, miss
attribution, energy decomposition), and
``report`` aggregates a run-log (+ diagnoses) into markdown or HTML.
``fuzz`` drives seeded generated workloads (the ``fuzz`` workload, see
:mod:`repro.workloads.fuzz`) through the reference backend and the
backend under test (``--backend``) differentially, checking bitwise
identity and a closed energy decomposition, shrinking failures and
saving them as replayable corpus entries (see
:mod:`repro.traces.corpus`).

Sweep commands also take the sweep-telemetry flags: ``--progress`` for a
live TTY status line (cells done/total, cells/s, ETA, cache-hit rate,
worker utilization, straggler flags — silent when stderr is piped),
``--sweep-trace PATH`` to export the sweep's timeline as a Chrome trace
with one lane per pool worker, ``--phases`` to print the timeline's
phase-level wall-time breakdown (see :mod:`repro.obs.profile` — sweeps
always stamp their pipeline stages into a timeline; the flags only
print or export it), and the fleet ledger:
every sweep command appends one record to ``.repro/fleet.jsonl``
(``--fleet PATH`` overrides, ``--no-fleet`` opts out; a ledger that
cannot be written only warns).  ``repro fleet`` filters the ledger and
prints it through the same report renderers ``report`` uses: the
per-sweep table, throughput trend and phase totals in markdown, plus
inline-SVG trend curves in HTML (``--format html``, see
:mod:`repro.obs.plot`).  ``fleet --check`` is the perf-regression
sentinel instead: it compares the latest sweep against the median of
comparable predecessors — same command, grid, host, job count, start
method, Python version and diagnosis — and exits non-zero naming the
regressed phase (see :mod:`repro.obs.fleet`).  Every output file gets
its missing parent directories made; a file any command still cannot
write ends it with one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.hw.clocksteps import SA1100_CLOCK_TABLE
from repro.hw.machines import MACHINE_PRESETS, MachineSpec
from repro.kernel.backend import BACKENDS
from repro.measure.parallel import (
    WORKLOAD_BUILDERS,
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepCellError,
    SweepEngine,
    WorkloadSpec,
    cache_key,
    constant_step_cells,
    find_ideal_constant,
    repeat_workload,
)
from repro.obs.fleet import (
    DEFAULT_FLEET_PATH,
    SENTINEL_MAX_DROP_PCT,
    SENTINEL_WINDOW,
    FleetLedger,
    check_fleet,
    read_fleet,
)
from repro.obs.profile import SweepTimeline
from repro.obs.runlog import DiagnosisWriter, RunLogWriter, output_file
from repro.measure.stats import confidence_interval

# The simulator (repro.core.catalog, repro.measure.runner, the kernels,
# the power timeline and the machine models) and the optional observers
# (diagnosis, progress, tracing, reports, plots) are imported inside the
# commands, branches and pool workers that run them, so a sweep served
# from the cache loads neither them nor numpy.

def workload_spec(name: str, duration_s: Optional[float] = None) -> WorkloadSpec:
    """Map a workload name (mpeg/web/chess/editor/fuzz) to a sweep spec.

    Raises:
        ValueError: for unknown names.
    """
    if name not in WORKLOAD_BUILDERS:
        raise ValueError(f"unknown workload {name!r} ({'/'.join(WORKLOAD_BUILDERS)})")
    _, config_type = WORKLOAD_BUILDERS[name]
    return WorkloadSpec(
        name=name,
        config=(
            config_type(duration_s=duration_s) if duration_s is not None else None
        ),
    )


def sweep_engine(args) -> SweepEngine:
    """Build the sweep engine a simulation command runs its cells on.

    ``--jobs 1`` (the default) runs cells in-process; ``--cache`` attaches
    the result cache, ``--diagnoses`` diagnoses every executed cell, and
    ``--run-log``/``--diagnoses``/``--progress`` attach the matching
    observers.  Every engine carries a
    :class:`~repro.obs.profile.SweepTimeline` — the fleet ledger's phase
    attribution must not depend on remembering a flag — while
    ``--phases`` and ``--sweep-trace`` only print or export it.

    Raises:
        ValueError: when ``--jobs`` is below 1.
    """
    observers = []
    if args.run_log:
        observers.append(RunLogWriter(args.run_log))
    if args.diagnoses:
        observers.append(DiagnosisWriter(args.diagnoses))
    if args.progress:
        from repro.obs.telemetry import ProgressDisplay

        observers.append(ProgressDisplay())
    return SweepEngine(
        jobs=args.jobs,
        cache=ResultCache(args.cache) if args.cache else None,
        diagnose=bool(args.diagnoses),
        timeline=SweepTimeline(),
        observers=observers,
    )


def report_sweep_stats(engine: SweepEngine, args) -> None:
    """Settle a sweep command that returned: print the engine's
    throughput summary to stderr, the ``--phases`` table, append one
    fleet record to the ledger (``--fleet`` path or the repo-local
    default) unless ``--no-fleet`` opted out, and export the
    ``--sweep-trace`` Chrome trace when requested.  A ledger that cannot
    be written costs a warning, never the command's exit code; the sweep
    is recorded before its trace is written, so a trace that cannot be
    written (an ``OSError`` :func:`main` reports) leaves no gap in the
    ledger.
    """
    print(engine.stats.summary(), file=sys.stderr)
    if args.phases:
        print("phase profile:", file=sys.stderr)
        print(engine.timeline.table(engine.stats.wall_s), file=sys.stderr)
    if not args.no_fleet:
        fleet_path = args.fleet or DEFAULT_FLEET_PATH
        record = engine.fleet_record(command=args.command)
        try:
            with FleetLedger(fleet_path) as ledger:
                ledger.append(record)
        except OSError as exc:
            print(
                f"warning: sweep not recorded in fleet ledger {fleet_path}: "
                f"{exc}",
                file=sys.stderr,
            )
    if args.sweep_trace:
        from repro.obs.trace import write_chrome_trace

        payload = engine.timeline.chrome_trace()
        out = write_chrome_trace(payload, args.sweep_trace)
        print(
            f"sweep trace: {out} ({len(payload['traceEvents'])} events, "
            f"{payload['otherData']['workers']} worker lanes; open in "
            f"Perfetto)",
            file=sys.stderr,
        )


def cmd_list_policies(_args) -> int:
    print("constant speeds : " + ", ".join(
        f"const-{s.mhz:.1f}" for s in SA1100_CLOCK_TABLE
    ))
    print("  (append @<volts> for an explicit voltage, e.g. const-132.7@1.23)")
    print("  (other machines take their own table, e.g. const-600.0 on sa2)")
    print("paper policies  : best, best-voltage")
    print("interval sweep  : <past|avg<N>>-<one|double|peg>  (N = 0..10, "
          "50/70 thresholds)")
    print("  (append -<hi>-<lo> percent thresholds; past-peg-98-93 = best)")
    print("other           : cycleavg (Figure 5), synth (synthesized deadlines)")
    return 0


def cmd_list_machines(_args) -> int:
    for name in sorted(MACHINE_PRESETS):
        preset = MACHINE_PRESETS[name]
        print(f"{name:12s}: {preset.description}")
        table = preset.clock_table
        print(f"{'':12s}  steps: "
              + ", ".join(f"{s.mhz:.1f}" for s in table))
    print("  (append @<volts> for a boot voltage, e.g. itsy@1.23)")
    return 0


def cmd_run(args, engine: SweepEngine) -> int:
    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec(args.workload, args.duration)
    workload = spec.build()
    policy = PolicySpec(name=args.policy)
    if engine.diagnosing:
        # Reject a bad name, or a constant step the machine lacks, before
        # the oracle search simulates: build one governor.  A plain run's
        # one cell fails on it first, and a cache hit loads no policy code.
        policy.build_factory(mspec.clock_table())()
    print(f"workload        : {workload.name} ({workload.duration_s:.0f} s)")
    print(f"policy          : {args.policy}")
    print(f"machine         : {args.machine}")
    cell = SweepCell(
        workload=spec,
        policy=policy,
        seed=args.seed,
        use_daq=not args.no_daq,
        machine=mspec,
        backend=args.backend,
    )
    summary = engine.run([cell])[0]
    print(f"energy          : {summary.energy_j:.2f} J "
          f"(exact {summary.exact_energy_j:.2f} J)")
    print(f"mean power      : {summary.mean_power_w:.3f} W")
    print(f"mean utilization: {summary.mean_utilization:.3f}")
    print(f"clock changes   : {summary.clock_changes} "
          f"(stalled {summary.clock_stall_us / 1000:.1f} ms)")
    print(f"voltage changes : {summary.voltage_changes}")
    print(f"deadline misses : {summary.miss_count}")
    if summary.missed:
        print(f"  worst: {summary.worst_miss_kind} late by "
              f"{summary.worst_lateness_us / 1000:.1f} ms")
    return 1 if summary.missed else 0


#: Table 2's rows as (label, policy name) -- resolvable, hence sweepable.
TABLE2_ROWS = [
    ("Constant 206.4 MHz, 1.5 V", "const-206.4"),
    ("Constant 132.7 MHz, 1.5 V", "const-132.7"),
    ("Constant 132.7 MHz, 1.23 V", "const-132.7@1.23"),
    ("PAST peg-peg 98/93, 1.5 V", "best"),
    ("PAST peg-peg + Vscale", "best-voltage"),
]


def cmd_table2(args, engine: SweepEngine) -> int:
    if args.runs < 2:
        raise ValueError("need at least two runs for a confidence interval")
    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec("mpeg")
    print(f"{'Algorithm':30s} {'Energy 95% CI (J)':>20s} {'Misses':>7s}")
    # Submit the whole table as one batch so rows share the pool.
    cells = [
        SweepCell(
            workload=spec, policy=PolicySpec(name=policy),
            seed=1000 * i, machine=mspec,
            backend=args.backend,
        )
        for _, policy in TABLE2_ROWS
        for i in range(args.runs)
    ]
    results = engine.run(cells)
    for r, (name, _) in enumerate(TABLE2_ROWS):
        row = results[r * args.runs : (r + 1) * args.runs]
        ci = confidence_interval([c.energy_j for c in row])
        misses = sum(c.miss_count for c in row)
        print(f"{name:30s} {ci.low:9.2f} - {ci.high:5.2f} {misses:7d}")
    return 0


def cmd_fig9(args, engine: SweepEngine) -> int:
    mspec = MachineSpec.parse(args.machine)
    duration_s = 30.0 if args.duration is None else args.duration
    spec = workload_spec("mpeg", duration_s)
    print(f"{'MHz':>6s} {'Utilization':>12s} {'Misses':>7s}")
    results = engine.run(
        constant_step_cells(
            spec, machine=mspec, seed=args.seed, backend=args.backend,
        )
    )
    for step, res in zip(mspec.clock_table(), results):
        print(
            f"{step.mhz:6.1f} {res.mean_utilization * 100:11.1f}% "
            f"{res.miss_count:7d}"
        )
    return 0


def cmd_compare(args) -> int:
    from repro.measure.compare import energies, welch_compare

    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec(args.workload, args.duration)
    agg_a = repeat_workload(
        spec, PolicySpec(name=args.policy_a), machine=mspec, runs=args.runs
    )
    agg_b = repeat_workload(
        spec, PolicySpec(name=args.policy_b), machine=mspec, runs=args.runs
    )
    result = welch_compare(energies(agg_a), energies(agg_b))
    print(f"{args.policy_a:24s} {agg_a.energy_ci}  misses={agg_a.total_misses}")
    print(f"{args.policy_b:24s} {agg_b.energy_ci}  misses={agg_b.total_misses}")
    print(
        f"difference      : {result.difference:+.2f} J "
        f"({result.relative_difference:+.2%})"
    )
    print(f"Welch p-value   : {result.p_value:.4g}")
    print(
        "verdict         : "
        + ("statistically significant" if result.significant else "not significant")
    )
    return 0


def cmd_ideal(args, engine: SweepEngine) -> int:
    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec(args.workload, args.duration)
    workload = spec.build()
    try:
        summary = find_ideal_constant(
            spec, machine=mspec, seed=args.seed, engine=engine,
            backend=args.backend,
        )
    except ValueError as exc:
        print(f"no feasible constant step: {exc}", file=sys.stderr)
        return 1
    print(f"workload        : {workload.name} ({workload.duration_s:.0f} s)")
    print(f"ideal constant  : {summary.final_mhz:.1f} MHz")
    print(f"energy          : {summary.exact_energy_j:.2f} J")
    print(f"mean utilization: {summary.mean_utilization:.3f}")
    return 0


def cmd_trace(args) -> int:
    """Run one workload and export it as Chrome trace-event JSON."""
    from repro.core.catalog import resolve_policy
    from repro.kernel.config import KernelConfig
    from repro.measure.runner import run_workload
    from repro.obs.trace import chrome_trace, write_chrome_trace

    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec(args.workload, args.duration)
    workload = spec.build()
    result = run_workload(
        workload,
        resolve_policy(args.policy, clock_table=mspec.clock_table()),
        machine_factory=mspec,
        seed=args.seed,
        kernel_config=KernelConfig(record_sched_log=True),
        use_daq=False,
        backend=args.backend,
    )
    payload = chrome_trace(result.run, tolerance_us=workload.tolerance_us)
    out = write_chrome_trace(payload, args.output)
    run = result.run
    print(f"workload        : {workload.name} ({workload.duration_s:.0f} s)")
    print(f"policy          : {args.policy}")
    print(f"machine         : {args.machine}")
    print(f"energy          : {result.exact_energy_j:.2f} J")
    print(f"quanta          : {len(run.quanta)}")
    print(f"clock changes   : {run.clock_changes} "
          f"(stalled {run.clock_stall_us / 1000:.1f} ms)")
    print(f"deadline misses : {len(result.misses)}")
    print(f"trace           : {out} "
          f"({len(payload['traceEvents'])} events; open in Perfetto or "
          f"chrome://tracing)")
    return 1 if result.misses else 0


def cmd_diagnose(args) -> int:
    """Diagnose one DAQ-free cell on the engine and explain the outcome."""
    from repro.obs.diagnose import SETTLE_CHURN_PER_QUANTUM

    mspec = MachineSpec.parse(args.machine)
    spec = workload_spec(args.workload, args.duration)
    workload = spec.build()
    policy = PolicySpec(name=args.policy)
    # Reject a bad name, or a constant step the machine lacks, before the
    # oracle baseline search simulates: build one governor.
    policy.build_factory(mspec.clock_table())()
    cell = SweepCell(
        workload=spec, policy=policy, seed=args.seed, use_daq=False,
        machine=mspec, backend=args.backend,
    )
    with SweepEngine(diagnose=True) as engine:
        engine.run([cell])
    diagnosis = engine.diagnoses[cache_key(cell)]
    s = diagnosis.settling
    e = diagnosis.energy
    print(f"workload        : {workload.name} ({workload.duration_s:.0f} s)")
    print(f"policy          : {args.policy}")
    print(f"machine         : {diagnosis.machine}")
    print(f"quanta          : {diagnosis.quanta}")
    print(f"mean utilization: {diagnosis.mean_utilization:.3f}")
    print(f"energy          : {e.measured_j:.2f} J measured")
    if e.baseline_feasible:
        print(f"  = {e.baseline_j:.2f} J ideal-constant oracle")
    else:
        print("  (no feasible constant step; oracle term is 0)")
    print(f"  + {e.overshoot_j:+.2f} J overshoot (speed above the oracle)")
    print(f"  + {e.stall_j:.3f} J clock-change stall windows")
    print(f"  + {e.sag_j:.4f} J voltage-sag windows")
    verdict = "settles" if s.settled else "never settles"
    print(
        f"settling        : {verdict} "
        f"({s.churn_per_quantum:.3f} speed changes/quantum in the tail; "
        f"threshold {SETTLE_CHURN_PER_QUANTUM})"
    )
    if s.dominant_period_quanta is not None:
        print(
            f"  dominant oscillation period: "
            f"{s.dominant_period_quanta:.1f} quanta "
            f"({s.dominant_power_fraction * 100:.0f}% of tail power)"
        )
    if s.attenuation_at_dominant is not None:
        print(
            f"  predictor attenuation at that period: "
            f"{s.attenuation_at_dominant:.3f} (1.0 = passes straight through)"
        )
    ledger = diagnosis.ledger
    if ledger is not None:
        print(
            f"prediction error: mean {ledger.mean_error:+.4f}, "
            f"|mean| {ledger.mean_abs_error:.4f}, "
            f"rms {ledger.rms_error:.4f} "
            f"({ledger.count} decisions, N={ledger.decay_n})"
        )
    print(f"deadline misses : {diagnosis.misses}")
    shown = diagnosis.miss_attributions[:10]
    for miss in shown:
        print(
            f"  {miss.kind} at {miss.time_us / 1e6:.3f} s, "
            f"late {miss.lateness_us / 1000:.1f} ms -> cause: {miss.cause} "
            f"(window mean {miss.mean_mhz:.1f} MHz, "
            f"{miss.up_changes} up / {miss.down_changes} down)"
        )
    if len(diagnosis.miss_attributions) > len(shown):
        print(f"  ... and {len(diagnosis.miss_attributions) - len(shown)} more")
    if args.output:
        path = output_file(args.output)
        path.write_text(json.dumps(diagnosis.to_json(), sort_keys=True) + "\n")
        print(f"diagnosis JSON  : {path}")
    return 1 if diagnosis.misses else 0


def write_report(report, args, contents: str) -> int:
    """Print ``report`` in the ``--format`` renderer, or write it to
    ``-o`` and name the file and its ``contents`` on stderr."""
    from repro.obs.report import render_report

    text = render_report(report, args.format)
    if args.output:
        output_file(args.output).write_text(text + "\n")
        print(
            f"wrote {args.output} ({contents}, format {args.format})",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    """Aggregate a run-log (plus optional diagnoses) into one document."""
    from repro.obs.diagnose import read_diagnoses
    from repro.obs.report import build_report
    from repro.obs.runlog import read_run_log

    try:
        records = read_run_log(args.run_log)
        diagnoses = read_diagnoses(args.diagnoses) if args.diagnoses else []
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Tolerant readers skip damaged lines instead of failing; say so
    # (with file:line provenance) rather than silently under-reporting.
    for warning in (*records.warnings, *getattr(diagnoses, "warnings", ())):
        print(f"warning: {warning}", file=sys.stderr)
    report = build_report(records, diagnoses)
    return write_report(
        report, args, f"{len(report.rows)} rows, {len(diagnoses)} diagnoses"
    )


def cmd_fuzz(args) -> int:
    """Differentially test execution backends on fuzzed workloads.

    Every generated scenario (and, with ``--corpus``, every stored trace)
    runs on the reference backend and the backend under test
    (``--backend``, default ``fastpath``); any recorded number differing,
    any exception-behaviour difference, or an energy decomposition that
    does not close fails the batch.  Failures are shrunk to minimal specs
    and (with ``--save-failures``) persisted as replayable corpus
    entries.  A run that raises alike on both backends passes but is
    counted apart; a batch in which no run completed exits 2.
    """
    from repro.core.catalog import resolve_policy
    from repro.measure.differential import (
        check_scenario,
        counterexample_entry,
        shrink_fuzz_spec,
    )
    from repro.traces.corpus import load_corpus, save_entry
    from repro.workloads.fuzz import fuzz_family

    machines = [MachineSpec.parse(m) for m in (args.machine or ["itsy", "itsy-reconf"])]
    policies = args.policy or ["best"]
    for policy in policies:
        # An unknown name must exit 2, not pass as both backends raising.
        resolve_policy(policy)
    specs = fuzz_family(args.count, master_seed=args.seed, duration_s=args.duration)
    checked = 0
    failures = []
    raised = []
    for spec in specs:
        for mspec in machines:
            for policy in policies:
                outcome = check_scenario(
                    spec, policy, mspec, seed=args.seed, backend=args.backend
                )
                checked += 1
                if outcome.raised:
                    raised.append(outcome)
                if outcome.ok:
                    continue
                shrunk, outcome = shrink_fuzz_spec(
                    spec, policy, mspec, seed=args.seed, backend=args.backend
                )
                failures.append(outcome)
                print(f"FAIL {outcome.describe()}", file=sys.stderr)
                if shrunk != spec:
                    print(f"  shrunk to {shrunk}", file=sys.stderr)
                if args.save_failures:
                    entry = counterexample_entry(outcome)
                    if entry is not None:
                        path = save_entry(args.save_failures, entry)
                        print(f"  counterexample saved: {path}", file=sys.stderr)

    replayed = 0
    if args.corpus:
        for _, entry in load_corpus(args.corpus):
            for mspec in machines:
                for policy in policies:
                    outcome = check_scenario(
                        entry, policy, mspec, seed=args.seed, backend=args.backend
                    )
                    replayed += 1
                    if outcome.raised:
                        raised.append(outcome)
                    if not outcome.ok:
                        failures.append(outcome)
                        print(f"FAIL {outcome.describe()}", file=sys.stderr)
    label = ", ".join(m.label for m in machines)
    print(f"fuzz: {checked} generated runs ({len(specs)} specs x "
          f"{len(policies)} policies x {len(machines)} machines: {label})"
          + (f", {replayed} corpus replays" if args.corpus else "")
          + (f", {len(raised)} raised alike on both backends" if raised else ""))
    if failures:
        print(f"fuzz: {len(failures)} FAILURES", file=sys.stderr)
        return 1
    completed = checked + replayed - len(raised)
    if not completed:
        print(f"error: no fuzz run completed: {raised[0].describe()}",
              file=sys.stderr)
        return 2
    runs = f"the {completed} completed runs" if raised else "all runs"
    print(f"fuzz: {runs} bitwise-identical across backends "
          f"(reference vs {args.backend}), energy decomposition closed")
    return 0


def cmd_fleet(args) -> int:
    """Render the fleet ledger as a report, or sentinel-check it."""
    from repro.obs.report import build_report

    path = Path(args.ledger)
    if not path.exists():
        print(
            f"error: no fleet ledger at {path} (sweep commands "
            f"record themselves there; run one first, e.g. "
            f"`repro table2`)",
            file=sys.stderr,
        )
        return 1
    records = read_fleet(path)
    for warning in records.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.workload:
        records = [r for r in records if args.workload in r.workloads]
    if args.machine:
        records = [r for r in records if args.machine in r.machines]
    if args.backend:
        records = [r for r in records if args.backend in r.backend.split(",")]
    records.sort(key=lambda r: r.unix_time)
    if args.last:
        records = records[-args.last:]
    if not records:
        print("fleet: no recorded sweeps match the filters", file=sys.stderr)
        return 1
    if args.check:
        verdict = check_fleet(records)
        print(verdict.summary())
        return 0 if verdict.ok else 1
    return write_report(
        build_report([], fleet_records=records), args, f"{len(records)} sweeps"
    )


def cmd_battery(_args) -> int:
    from repro.battery.lifetime import idle_lifetime_hours

    print(f"{'MHz':>6s} {'Idle lifetime (h)':>18s}")
    for step in SA1100_CLOCK_TABLE:
        print(f"{step.mhz:6.1f} {idle_lifetime_hours(step):18.1f}")
    return 0


def _checked(convert, ok, requirement: str):
    """An argparse ``type`` that converts a value and rejects it, as a
    usage error, unless ``ok(value)``: the simulator cannot run it."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")

    return parse


_DURATION = _checked(
    float, lambda v: 0 < v < float("inf"), "duration must be positive and finite"
)
# random.Random folds a negative seed onto its absolute value, and
# numpy's generators reject one.
_SEED = _checked(int, lambda v: v >= 0, "seed must be a non-negative integer")
_COUNT = _checked(int, lambda v: v > 0, "must be a positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Policies for Dynamic Clock Scheduling'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    backend_opts = argparse.ArgumentParser(add_help=False)
    backend_opts.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend (default: fastpath; every backend "
             "produces bitwise-equal results)",
    )

    sweep_opts = argparse.ArgumentParser(add_help=False)
    sweep_opts.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan simulations out over N worker processes",
    )
    sweep_opts.add_argument(
        "--cache", default=None, metavar="DIR",
        help="memoize results on disk; unchanged runs are free on re-run",
    )
    sweep_opts.add_argument(
        "--run-log", default=None, metavar="PATH", dest="run_log",
        help="append one structured JSONL audit record per sweep cell",
    )
    sweep_opts.add_argument(
        "--diagnoses", default=None, metavar="PATH",
        help="diagnose every executed cell in the workers and append "
             "JSONL diagnoses here (implies full recording)",
    )
    sweep_opts.add_argument(
        "--progress", action="store_true",
        help="live sweep progress on stderr (cells done/total, cells/s, "
             "ETA, cache-hit rate, worker utilization, stragglers); "
             "silently degrades to the summary line when not a TTY",
    )
    sweep_opts.add_argument(
        "--sweep-trace", default=None, metavar="PATH", dest="sweep_trace",
        help="export the sweep pipeline as Chrome trace-event JSON with "
             "one lane per pool worker (open in Perfetto)",
    )
    sweep_opts.add_argument(
        "--fleet", default=None, metavar="PATH",
        help=f"fleet ledger to append this sweep's record to "
             f"(default: {DEFAULT_FLEET_PATH})",
    )
    sweep_opts.add_argument(
        "--no-fleet", action="store_true", dest="no_fleet",
        help="do not record this sweep in the fleet ledger",
    )
    sweep_opts.add_argument(
        "--phases", action="store_true",
        help="print the phase-level wall-time breakdown (pool spin-up, "
             "worker start, kernel compute, observer reduction (the "
             "cell's result reduction), result IPC, cache I/O, ...) "
             "after the sweep summary",
    )

    machine_opts = argparse.ArgumentParser(add_help=False)
    machine_opts.add_argument(
        "--machine", default="itsy", metavar="NAME[@V]",
        help="machine preset, optionally with a boot voltage "
             "(itsy, itsy@1.23, itsy-stock, sa2, itsy-reconf, sa2-reconf; "
             "see list-machines)",
    )

    sub.add_parser("list-policies", help="list policy names").set_defaults(
        func=cmd_list_policies
    )
    sub.add_parser("list-machines", help="list machine presets").set_defaults(
        func=cmd_list_machines
    )

    run_parser = sub.add_parser(
        "run", help="run one workload under one policy",
        parents=[sweep_opts, backend_opts, machine_opts],
    )
    run_parser.add_argument("workload", choices=WORKLOAD_BUILDERS)
    run_parser.add_argument("--policy", default="best")
    run_parser.add_argument("--seed", type=_SEED, default=0)
    run_parser.add_argument("--duration", type=_DURATION, default=None,
                            help="override trace length (seconds)")
    run_parser.add_argument("--no-daq", action="store_true",
                            help="use the exact integral instead of the DAQ")
    run_parser.set_defaults(func=cmd_run)

    t2 = sub.add_parser("table2", help="regenerate Table 2",
                        parents=[sweep_opts, backend_opts, machine_opts])
    t2.add_argument("--runs", type=int, default=3)
    t2.set_defaults(func=cmd_table2)

    f9 = sub.add_parser("fig9", help="regenerate Figure 9's sweep",
                        parents=[sweep_opts, backend_opts, machine_opts])
    f9.add_argument("--seed", type=_SEED, default=1)
    f9.add_argument("--duration", type=_DURATION, default=None)
    f9.set_defaults(func=cmd_fig9)

    cmp_parser = sub.add_parser(
        "compare", help="compare two policies on one workload (Welch t-test)",
        parents=[machine_opts],
    )
    cmp_parser.add_argument("workload", choices=WORKLOAD_BUILDERS)
    cmp_parser.add_argument("policy_a")
    cmp_parser.add_argument("policy_b")
    cmp_parser.add_argument("--runs", type=int, default=3)
    cmp_parser.add_argument("--duration", type=_DURATION, default=None)
    cmp_parser.set_defaults(func=cmd_compare)

    ideal_parser = sub.add_parser(
        "ideal", help="find the cheapest feasible constant clock step",
        parents=[sweep_opts, backend_opts, machine_opts],
    )
    ideal_parser.add_argument("workload", choices=WORKLOAD_BUILDERS)
    ideal_parser.add_argument("--seed", type=_SEED, default=0)
    ideal_parser.add_argument("--duration", type=_DURATION, default=None)
    ideal_parser.set_defaults(func=cmd_ideal)

    trace_parser = sub.add_parser(
        "trace",
        help="export one traced run as Chrome trace-event JSON (Perfetto)",
        parents=[backend_opts, machine_opts],
    )
    trace_parser.add_argument("workload", choices=WORKLOAD_BUILDERS)
    trace_parser.add_argument("--policy", default="best")
    trace_parser.add_argument("--seed", type=_SEED, default=0)
    trace_parser.add_argument("--duration", type=_DURATION, default=None,
                              help="override trace length (seconds)")
    trace_parser.add_argument("-o", "--output", default="trace.json",
                              metavar="PATH", help="output file (JSON)")
    trace_parser.set_defaults(func=cmd_trace)

    diag_parser = sub.add_parser(
        "diagnose",
        help="explain one run: settling, prediction error, miss causes, "
             "and the excess-energy decomposition",
        parents=[backend_opts, machine_opts],
    )
    diag_parser.add_argument("policy")
    diag_parser.add_argument("workload", choices=WORKLOAD_BUILDERS)
    diag_parser.add_argument("--seed", type=_SEED, default=0)
    diag_parser.add_argument("--duration", type=_DURATION, default=None,
                             help="override trace length (seconds)")
    diag_parser.add_argument("-o", "--output", default=None, metavar="PATH",
                             help="also write the diagnosis as JSON")
    diag_parser.set_defaults(func=cmd_diagnose)

    report_parser = sub.add_parser(
        "report",
        help="aggregate a sweep run-log (+ diagnoses) into md/html",
    )
    report_parser.add_argument("run_log", metavar="RUN_LOG",
                               help="JSONL run-log written by --run-log")
    report_parser.add_argument("--diagnoses", default=None, metavar="PATH",
                               help="join a JSONL diagnosis log into the report")
    report_parser.add_argument("--format", choices=["md", "html"], default="md")
    report_parser.add_argument("-o", "--output", default=None, metavar="PATH",
                               help="write the report here instead of stdout")
    report_parser.set_defaults(func=cmd_report)

    fleet_parser = sub.add_parser(
        "fleet",
        help="render past sweeps from the fleet ledger as a report "
             "(per-sweep table, throughput trend, phase totals), or "
             "check them for a perf regression",
    )
    fleet_parser.add_argument(
        "--ledger", default=str(DEFAULT_FLEET_PATH), metavar="PATH",
        help=f"fleet ledger to read (default: {DEFAULT_FLEET_PATH})",
    )
    fleet_parser.add_argument(
        "--last", type=_COUNT, default=None, metavar="N",
        help="only the N most recent sweeps",
    )
    fleet_parser.add_argument(
        "--workload", default=None, metavar="NAME",
        help="only sweeps whose grid included this workload",
    )
    fleet_parser.add_argument(
        "--machine", default=None, metavar="NAME",
        help="only sweeps whose grid included this machine label",
    )
    fleet_parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="only sweeps executed on this backend",
    )
    fleet_parser.add_argument(
        "--format", choices=["md", "html"], default="md",
        help="report format; html adds inline-SVG trend curves "
             "(default: md)",
    )
    fleet_parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the rendered report here instead of stdout",
    )
    fleet_parser.add_argument(
        "--check", action="store_true",
        help=f"perf-regression sentinel: compare the latest executed "
             f"sweep against the median of the last {SENTINEL_WINDOW} "
             f"comparable predecessors from this host; exit 1 naming "
             f"the regressed phase on a throughput drop of more than "
             f"{SENTINEL_MAX_DROP_PCT:g}%% or a cache-hit collapse",
    )
    fleet_parser.set_defaults(func=cmd_fleet)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differentially test execution backends on fuzzed workloads",
    )
    fuzz_parser.add_argument(
        "--backend", choices=BACKENDS, default="fastpath",
        help="backend checked against the reference (default: fastpath)",
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=25, metavar="N",
        help="generated scenarios per policy x machine combination",
    )
    fuzz_parser.add_argument(
        "--seed", type=_SEED, default=0,
        help="master seed: the whole batch is a pure function of it",
    )
    fuzz_parser.add_argument(
        "--duration", type=_DURATION, default=1.0,
        help="seconds of simulated time per scenario",
    )
    fuzz_parser.add_argument(
        "--machine", action="append", default=None, metavar="NAME[@V]",
        help="machine preset to fuzz on; repeatable "
             "(default: itsy and itsy-reconf)",
    )
    fuzz_parser.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        help="catalog policy to fuzz under; repeatable (default: best)",
    )
    fuzz_parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="also replay every stored corpus entry through both backends",
    )
    fuzz_parser.add_argument(
        "--save-failures", default=None, metavar="DIR", dest="save_failures",
        help="persist shrunk counterexamples here as corpus entries",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    sub.add_parser("battery", help="idle battery lifetimes").set_defaults(
        func=cmd_battery
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not hasattr(args, "jobs"):  # not one of the sweep commands
            code = args.func(args)
            sys.stdout.flush()
            return code
        # A sweep command runs on this one engine.  Leaving the block
        # shuts its pool and closes every log however the command ends;
        # only a command that returns and whose output was delivered is
        # settled and recorded.
        with sweep_engine(args) as engine:
            code = args.func(args, engine)
            sys.stdout.flush()
        report_sweep_stats(engine, args)
        return code
    except (ValueError, SweepCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone (``repro ... | head``).  Point
        # stdout at devnull, so the interpreter's last flush cannot raise
        # again, and exit as a tool that SIGPIPE ends: 128 + SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        # An output file that cannot be written (``-o`` or
        # ``--sweep-trace`` under a regular file); the message names it.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
