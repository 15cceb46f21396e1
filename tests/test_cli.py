"""Tests for the command-line interface."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import (
    build_parser,
    main,
    sweep_engine,
    workload_spec,
)
from repro.measure.parallel import WorkloadSpec
from repro.core.catalog import resolve_policy
from repro.core.cycleavg import CycleAverageGovernor
from repro.core.deadline import SynthesizedDeadlineGovernor
from repro.core.policy import IntervalPolicy
from repro.kernel.governor import ConstantGovernor
from tests.golden.ledger import TRACE_COMMANDS, load_ledger

#: The checkout.
REPO_ROOT = Path(__file__).resolve().parent.parent
#: The directory the package under test imports from.
SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path_factory, monkeypatch):
    """Run every test in its own empty directory: sweep commands record
    themselves in ``./.repro/fleet.jsonl``, which must not land in the
    checkout."""
    monkeypatch.chdir(tmp_path_factory.mktemp("cwd"))


class TestPolicyResolution:
    def test_best(self):
        gov = resolve_policy("best")()
        assert isinstance(gov, IntervalPolicy)
        assert gov.voltage_rule is None

    def test_best_voltage(self):
        gov = resolve_policy("best-voltage")()
        assert gov.voltage_rule is not None

    def test_const(self):
        gov = resolve_policy("const-132.7")()
        assert isinstance(gov, ConstantGovernor)
        assert gov.step_index == 5

    def test_avg(self):
        gov = resolve_policy("avg9-peg")()
        assert isinstance(gov, IntervalPolicy)
        assert gov.predictor.n == 9

    def test_const_with_voltage(self):
        gov = resolve_policy("const-132.7@1.23")()
        assert gov.step_index == 5
        assert gov.volts == 1.23

    def test_cycleavg_and_synth(self):
        assert isinstance(resolve_policy("cycleavg")(), CycleAverageGovernor)
        assert isinstance(resolve_policy("synth")(), SynthesizedDeadlineGovernor)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_policy("ondemand")

    def test_factories_fresh(self):
        factory = resolve_policy("avg3-one")
        assert factory() is not factory()


class TestWorkloadResolution:
    @pytest.mark.parametrize(
        "name,expected", [("mpeg", "MPEG"), ("web", "Web"), ("chess", "Chess"),
                          ("editor", "TalkingEditor")]
    )
    def test_names(self, name, expected):
        assert workload_spec(name).build().name == expected

    def test_duration_override(self):
        wl = workload_spec("mpeg", 12.0).build()
        assert wl.duration_s == 12.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            workload_spec("doom")

    def test_spec_round_trip(self):
        spec = workload_spec("web", 9.0)
        assert isinstance(spec, WorkloadSpec)
        assert spec.build().duration_s == 9.0


#: Golden snapshot of ``python -m repro list-policies``.  Update it
#: deliberately whenever the policy grammar changes — downstream scripts
#: parse this output.
LIST_POLICIES_SNAPSHOT = """\
constant speeds : const-59.0, const-73.7, const-88.5, const-103.2, const-118.0, const-132.7, const-147.5, const-162.2, const-176.9, const-191.7, const-206.4
  (append @<volts> for an explicit voltage, e.g. const-132.7@1.23)
  (other machines take their own table, e.g. const-600.0 on sa2)
paper policies  : best, best-voltage
interval sweep  : <past|avg<N>>-<one|double|peg>  (N = 0..10, 50/70 thresholds)
  (append -<hi>-<lo> percent thresholds; past-peg-98-93 = best)
other           : cycleavg (Figure 5), synth (synthesized deadlines)
"""

#: Golden snapshot of ``python -m repro list-machines`` — same contract.
LIST_MACHINES_SNAPSHOT = """\
itsy        : WRL-modified Itsy (SA-1100): 59.0-206.4 MHz, 1.5 V core switchable to 1.23 V
              steps: 59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2, 176.9, 191.7, 206.4
itsy-reconf : modified Itsy with costly reconfiguration: 1 ms clock-change stall at +0.12 W, 500 us voltage sag
              steps: 59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2, 176.9, 191.7, 206.4
itsy-stock  : unmodified Itsy (SA-1100): 59.0-206.4 MHz, 1.5 V core only
              steps: 59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2, 176.9, 191.7, 206.4
sa2         : hypothetical StrongARM SA-2: 150-600 MHz, per-step voltage schedule 1.018-1.8 V
              steps: 150.0, 195.0, 240.0, 285.0, 330.0, 375.0, 420.0, 465.0, 510.0, 555.0, 600.0
sa2-reconf  : SA-2 with costly reconfiguration: 1 ms clock-change stall at +0.12 W, 500 us voltage sag
              steps: 150.0, 195.0, 240.0, 285.0, 330.0, 375.0, 420.0, 465.0, 510.0, 555.0, 600.0
  (append @<volts> for a boot voltage, e.g. itsy@1.23)
"""


#: Golden snapshot of ``python -m repro trace mpeg --policy best
#: --duration 2 -o <out>`` — its counts come from the traced run itself.
TRACE_SNAPSHOT = """\
workload        : MPEG (2 s)
policy          : best
machine         : itsy
energy          : 2.85 J
quanta          : 200
clock changes   : 29 (stalled 5.8 ms)
deadline misses : 0
trace           : <out> (824 events; open in Perfetto or chrome://tracing)
"""

#: The ``trace ... -o <out>`` files the results ledger pins, with the
#: command's exit code and the file's SHA-256: clock-change stalls
#: (best), rail sags (avg3-one on sa2-reconf) and deadline-miss instants
#: (const-59.0).  Identical on both backends.
TRACE_FILES = load_ledger()["files"]["trace"]
TRACE_DIGESTS = [
    (command.split()[1:], TRACE_FILES[command]["exit"],
     TRACE_FILES[command]["sha256"])
    for command in TRACE_COMMANDS
]


class TestCommands:
    def test_list_policies(self, capsys):
        assert main(["list-policies"]) == 0
        out = capsys.readouterr().out
        assert "best" in out and "avg<N>" in out

    def test_list_policies_snapshot(self, capsys):
        assert main(["list-policies"]) == 0
        assert capsys.readouterr().out == LIST_POLICIES_SNAPSHOT

    def test_list_machines_snapshot(self, capsys):
        assert main(["list-machines"]) == 0
        assert capsys.readouterr().out == LIST_MACHINES_SNAPSHOT

    def test_trace_snapshot(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(
            ["trace", "mpeg", "--policy", "best", "--duration", "2",
             "-o", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert stdout.replace(str(out), "<out>") == TRACE_SNAPSHOT

    @pytest.mark.parametrize("backend", ["fastpath", "reference"])
    @pytest.mark.parametrize(
        "args,code,digest", TRACE_DIGESTS, ids=["best", "sa2-sag", "misses"]
    )
    def test_trace_file_digest(self, capsys, tmp_path, backend, args, code,
                               digest):
        out = tmp_path / "t.json"
        assert main(
            ["trace", *args, "--backend", backend, "-o", str(out)]
        ) == code
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_run_success_exit_zero(self, capsys):
        code = main(
            ["run", "mpeg", "--policy", "best", "--duration", "5", "--no-daq"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "deadline misses : 0" in out
        assert "energy" in out

    def test_run_misses_exit_one(self, capsys):
        code = main(
            ["run", "mpeg", "--policy", "const-59.0", "--duration", "5", "--no-daq"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "worst:" in out

    def test_run_unknown_policy_exit_two(self, capsys):
        code = main(["run", "mpeg", "--policy", "nope"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [["list-policies"], ["run", "mpeg", "--duration", "1", "--no-fleet"]],
        ids=["list-policies", "run"],
    )
    def test_closed_stdout_pipe_exits_141(self, argv, unbuffered):
        # stdout's reader has gone, as in ``repro ... | head``: the
        # command ends as SIGPIPE ends a C tool, without a traceback,
        # whether the failing write is a print or the final flush.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "mpeg"],
            ["compare", "mpeg", "best", "const-132.7"],
            ["ideal", "mpeg"],
            ["trace", "mpeg"],
            ["diagnose", "best", "mpeg"],
            ["fig9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_duration_rejected(self, capsys, argv):
        # Zero must be rejected like a negative duration, not fall back to
        # the full-length default trace.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--duration", "0"])
        assert exc.value.code == 2
        assert "duration must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "mpeg", "--duration", "nan"],
            ["run", "mpeg", "--duration", "inf"],
            ["compare", "mpeg", "best", "const-132.7", "--duration", "1e999"],
            ["fuzz", "--count", "1", "--duration", "nan"],
            ["run", "mpeg", "--no-daq", "--seed", "-1"],
            ["fuzz", "--count", "1", "--seed", "-1"],
            ["fleet", "--last", "0"],
            ["fleet", "--last", "-1"],
        ],
        ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
    )
    def test_unrunnable_number_is_a_usage_error(self, capsys, argv):
        # NaN and infinite durations, negative seeds and empty sweep
        # windows end as argparse usage errors, before any output.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[-2]}:" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "mpeg", "--duration", "1", "--jobs", "0"],
             "jobs must be at least 1"),
            (["run", "mpeg", "--duration", "1", "--jobs", "-3",
              "--cache", "cache"],
             "jobs must be at least 1"),
            (["table2", "--runs", "1", "--jobs", "2"],
             "need at least two runs for a confidence interval"),
        ],
        ids=["jobs-0", "jobs-negative-cached", "table2-one-run"],
    )
    def test_bad_sweep_size_rejected_before_simulating(
        self, capsys, argv, message
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        # Nothing printed, nothing simulated, nothing recorded.
        assert captured.out == ""
        assert "sweep:" not in captured.err
        assert not Path(".repro").exists()

    def test_fig9(self, capsys):
        code = main(["fig9", "--duration", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") >= 12  # header + 11 steps

    def test_compare(self, capsys):
        code = main(
            ["compare", "mpeg", "const-132.7", "const-206.4",
             "--runs", "2", "--duration", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Welch p-value" in out
        assert "verdict" in out

    def test_ideal(self, capsys):
        code = main(["ideal", "mpeg", "--duration", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ideal constant  : 132.7 MHz" in out

    def test_battery(self, capsys):
        code = main(["battery"])
        out = capsys.readouterr().out
        assert code == 0
        assert "59.0" in out and "206.4" in out


class TestMachineOptions:
    """The --machine surface of the simulation commands."""

    def test_run_on_sa2(self, capsys):
        code = main(
            ["run", "mpeg", "--policy", "past-peg-98-93", "--machine", "sa2",
             "--duration", "2", "--no-daq"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "machine         : sa2" in out
        assert "deadline misses : 0" in out

    def test_run_sa2_parallel_matches_serial(self, capsys):
        argv = ["run", "mpeg", "--policy", "past-peg-98-93", "--machine", "sa2",
                "--duration", "1", "--no-daq"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_run_on_low_voltage_itsy(self, capsys):
        code = main(
            ["run", "mpeg", "--policy", "const-132.7", "--machine", "itsy@1.23",
             "--duration", "1", "--no-daq"]
        )
        assert code in (0, 1)  # feasibility is the workload's business
        assert "machine         : itsy@1.23" in capsys.readouterr().out

    def test_unknown_machine_exit_two(self, capsys):
        code = main(["run", "mpeg", "--machine", "sa3"])
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_ideal_on_sa2(self, capsys):
        code = main(["ideal", "mpeg", "--duration", "2", "--machine", "sa2",
                     "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ideal constant  : 150.0 MHz" in out

    def test_fig9_on_sa2_lists_sa2_steps(self, capsys):
        code = main(["fig9", "--duration", "1", "--machine", "sa2",
                     "--jobs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert " 600.0" in out and " 150.0" in out


class TestSweepOptions:
    """The --jobs/--cache surface of the simulation commands."""

    def test_engine_default_is_serial_uncached(self):
        args = build_parser().parse_args(["run", "mpeg"])
        engine = sweep_engine(args)
        try:
            assert engine.jobs == 1
            assert engine.cache is None
            assert engine.observers == ()
        finally:
            engine.close()

    def test_bare_run_is_a_recorded_sweep(self, capsys):
        # No sweep flag: the engine still runs the cell (in-process),
        # prints the summary line and records the sweep in the ledger.
        from repro.obs.fleet import read_fleet

        assert main(["run", "mpeg", "--duration", "1"]) == 0
        assert "sweep: 1 simulated, 0 cached" in capsys.readouterr().err
        [rec] = read_fleet(Path(".repro") / "fleet.jsonl")
        assert rec.command == "run"
        assert rec.jobs == 1

    @pytest.mark.parametrize("policy,code", [("best", 0), ("const-59.0", 1)])
    def test_unwritable_ledger_warns_and_keeps_exit_code(
        self, capsys, policy, code
    ):
        # A file where the ledger's directory belongs: the append fails,
        # but the command's results and exit code must stand.
        Path(".repro").write_text("not a directory\n")
        argv = ["run", "mpeg", "--policy", policy, "--duration", "1",
                "--no-daq", "--jobs", "2"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "deadline misses" in captured.out
        warnings = [
            line for line in captured.err.splitlines()
            if line.startswith("warning:")
        ]
        assert len(warnings) == 1
        assert str(Path(".repro") / "fleet.jsonl") in warnings[0]

    def test_run_with_jobs_smoke(self, capsys):
        code = main(
            ["run", "mpeg", "--policy", "best", "--duration", "1", "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "energy          :" in out
        assert "deadline misses : 0" in out

    def test_run_parallel_output_matches_serial(self, capsys):
        argv = ["run", "mpeg", "--policy", "best", "--duration", "1"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_run_warm_cache_matches(self, capsys, tmp_path):
        argv = [
            "run", "mpeg", "--policy", "best", "--duration", "1",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert list(tmp_path.glob("*.json")), "cache must be populated"
        assert main(argv) == 0
        assert capsys.readouterr().out == cold_out

    def test_fig9_parallel_matches_serial(self, capsys):
        assert main(["fig9", "--duration", "2"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["fig9", "--duration", "2", "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_ideal_parallel_matches_serial(self, capsys):
        assert main(["ideal", "mpeg", "--duration", "10"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["ideal", "mpeg", "--duration", "10", "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_failed_cell_ends_alike_at_every_jobs(self, capsys):
        # 1.23 V is not a stock Itsy voltage, so the search's first
        # constant step fails as a cell — not as "no feasible step" — and
        # the sweep ends with the same error in-process and pooled,
        # unrecorded.
        argv = ["ideal", "mpeg", "--duration", "1",
                "--machine", "itsy-stock@1.23"]
        errors = []
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            "error: sweep cell failed (policy=const-59.0 workload=mpeg "
            "machine=itsy-stock@1.23 seed=0): ValueError: "
        )
        assert not Path(".repro").exists()

    def test_failed_sweep_keeps_the_cells_ahead_of_the_failure(
        self, capsys, tmp_path
    ):
        # 1.23 V is not a stock Itsy voltage, so Table 2's fifth cell
        # (const-132.7@1.23, seed 0) fails; the four ahead of it are
        # cached and run-logged, and at every --jobs the same four.
        from repro.obs.runlog import read_run_log

        run_ids = []
        for jobs in ("1", "2"):
            cache, log = tmp_path / f"cache-{jobs}", tmp_path / f"runs-{jobs}.jsonl"
            assert main(["table2", "--runs", "2", "--machine", "itsy-stock",
                         "--cache", str(cache), "--run-log", str(log),
                         "--jobs", jobs]) == 2
            assert "policy=const-132.7@1.23" in capsys.readouterr().err
            assert len(list(cache.glob("*.json"))) == 4
            records = read_run_log(log)
            assert [(r["policy"], r["seed"]) for r in records] == [
                ("const-206.4", 0), ("const-206.4", 1000),
                ("const-132.7", 0), ("const-132.7", 1000),
            ]
            run_ids.append([r["run_id"] for r in records])
        assert run_ids[0] == run_ids[1]

    def test_battery_rejects_sweep_flags(self, capsys):
        # battery is analytic: it runs no sweep, so it takes no sweep flags.
        with pytest.raises(SystemExit) as exc:
            main(["battery", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestObservabilityOptions:
    """The trace command, --run-log, and the stderr sweep summary."""

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main(
            ["trace", "mpeg", "--policy", "best", "--duration", "2",
             "-o", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        validate_chrome_trace(payload)
        assert "trace           :" in captured
        assert "deadline misses : 0" in captured

    def test_trace_misses_exit_one(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "mpeg", "--policy", "const-59.0", "--duration", "2",
             "-o", str(out)]
        )
        assert code == 1
        assert out.exists()

    def test_trace_on_sa2(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "mpeg", "--machine", "sa2", "--duration", "2",
             "-o", str(out)]
        )
        assert code == 0
        assert "machine         : sa2" in capsys.readouterr().out

    def test_run_log_flag_writes_jsonl(self, capsys, tmp_path):
        from repro.obs.runlog import read_run_log

        log = tmp_path / "runs.jsonl"
        code = main(
            ["run", "mpeg", "--policy", "best", "--duration", "1",
             "--run-log", str(log)]
        )
        assert code == 0
        records = read_run_log(log)
        assert len(records) == 1
        assert records[0]["policy"] == "best"
        assert records[0]["workload"] == "mpeg"
        assert records[0]["cache"] == "executed"

    def test_sweep_summary_on_stderr(self, capsys):
        assert main(
            ["run", "mpeg", "--policy", "best", "--duration", "1",
             "--jobs", "2"]
        ) == 0
        err = capsys.readouterr().err
        assert "sweep: 1 simulated, 0 cached" in err


class TestTelemetryOptions:
    """--progress, --sweep-trace, and the fleet ledger flags."""

    def test_sweep_trace_writes_valid_trace(self, capsys, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        trace = tmp_path / "traces" / "sweep.json"  # the directory is made
        code = main(
            ["table2", "--runs", "2", "--jobs", "2",
             "--sweep-trace", str(trace),
             "--fleet", str(tmp_path / "fleet.jsonl")]
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"]["workers"] == 2
        err = capsys.readouterr().err
        assert "sweep trace:" in err
        assert "worker lanes" in err

    def test_every_phase_names_a_sweep_trace_span(self, capsys, tmp_path):
        # One timeline: --phases and --sweep-trace read the same stamps,
        # so every phase a pooled sweep's table lists is a span name in
        # that sweep's trace.
        import json
        import re

        trace = tmp_path / "sweep.json"
        assert main(
            ["table2", "--runs", "2", "--jobs", "2", "--no-fleet",
             "--phases", "--sweep-trace", str(trace)]
        ) == 0
        err = capsys.readouterr().err
        table = err.split("phase profile:\n")[1].split("total accounted")[0]
        phases = {
            re.split(r"\s{2,}", line.strip())[0]
            for line in table.splitlines()[1:]
        }
        spans = {
            e["name"] for e in json.loads(trace.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"kernel compute", "chunk submission", "result IPC"} <= phases
        assert phases <= spans, phases - spans

    def test_progress_piped_output_unchanged(self, capsys, tmp_path):
        argv = ["run", "mpeg", "--policy", "best", "--duration", "1",
                "--jobs", "2", "--no-fleet"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--progress"]) == 0
        with_progress = capsys.readouterr()
        # Piped (non-TTY) progress degrades to silence: stdout is
        # byte-identical to the plain run and no progress-bar control
        # characters leak to stderr (the summary line still prints, but
        # its cells/s figure is timing-dependent either way).
        assert with_progress.out == plain.out
        assert "\r" not in with_progress.err
        assert with_progress.err.startswith("sweep: 1 simulated, 0 cached")

    def test_fleet_record_appended(self, tmp_path, capsys):
        from repro.obs.fleet import read_fleet

        ledger = tmp_path / "fleet.jsonl"
        argv = ["run", "mpeg", "--policy", "best", "--duration", "1",
                "--jobs", "2", "--fleet", str(ledger)]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        history = read_fleet(ledger)
        assert history.warnings == ()
        assert len(history) == 2
        rec = history[0]
        assert rec.command == "run"
        assert rec.workloads == ("mpeg",)
        assert rec.cells_total == 1
        assert rec.jobs == 2
        assert rec.host == os.uname().nodename

    def test_no_fleet_opts_out(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        assert main(
            ["run", "mpeg", "--policy", "best", "--duration", "1",
             "--jobs", "2", "--fleet", str(ledger), "--no-fleet"]
        ) == 0
        capsys.readouterr()
        assert not ledger.exists()


class TestFleetCommand:
    """`repro fleet` renders the ledger through the sweep report."""

    def populate(self, ledger, capsys):
        for workload in ("mpeg", "web"):
            assert main(
                ["run", workload, "--policy", "best", "--duration", "1",
                 "--jobs", "2", "--fleet", str(ledger)]
            ) == 0
        capsys.readouterr()

    def test_missing_ledger_exit_one(self, tmp_path, capsys):
        code = main(["fleet", "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 1
        assert "no fleet ledger" in capsys.readouterr().err

    @staticmethod
    def sweep_rows(out):
        """The fleet table's rows: sweep ids start with the year."""
        return [ln for ln in out.splitlines() if ln.startswith("| 20")]

    def test_lists_sweeps_with_trend(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        assert main(["fleet", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "## Fleet history" in out
        assert len(self.sweep_rows(out)) == 2  # one per recorded sweep
        assert "throughput trend (cells/s)" in out
        assert "### Where the time went" in out

    def test_bare_fleet_prints_markdown_report(self, tmp_path, capsys):
        # With no flags, `repro fleet` prints what `--format md` prints:
        # the sweep report built from the ledger alone.
        from repro.obs.fleet import read_fleet
        from repro.obs.report import build_report, render_report

        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        assert main(["fleet", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        report = build_report([], fleet_records=read_fleet(ledger))
        assert out == render_report(report, "md") + "\n"
        assert main(["fleet", "--ledger", str(ledger), "--format", "md"]) == 0
        assert capsys.readouterr().out == out

    def test_workload_filter(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        assert main(
            ["fleet", "--ledger", str(ledger), "--workload", "web"]
        ) == 0
        rows = self.sweep_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert "| run |" in rows[0]

    def test_filter_with_no_matches_exit_one(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        code = main(
            ["fleet", "--ledger", str(ledger), "--workload", "nope"]
        )
        assert code == 1
        assert "no recorded sweeps match" in capsys.readouterr().err

    def test_html_render_to_file(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        out_file = tmp_path / "fleet.html"
        assert main(
            ["fleet", "--ledger", str(ledger), "--format", "html",
             "-o", str(out_file)]
        ) == 0
        text = out_file.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<h2>Fleet history</h2>" in text
        assert "wrote" in capsys.readouterr().err

    def test_html_report_inlines_three_svg_charts(self, tmp_path, capsys):
        # The trend curves: throughput, cache-hit rate and phase mix, each
        # a complete SVG document inside the HTML report.
        import re
        import xml.etree.ElementTree as ET

        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        assert main(
            ["fleet", "--ledger", str(ledger), "--format", "html"]
        ) == 0
        text = capsys.readouterr().out
        charts = re.findall(r"<svg\b.*?</svg>", text, re.S)
        assert len(charts) == 3
        for chart in charts:
            assert ET.fromstring(chart).tag.endswith("svg")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--plot", "fleet.svg"],
            ["fleet", "--bench", "."],
            ["fleet", "--window", "5"],
            ["fleet", "--max-drop", "25"],
            ["fleet", "--max-hit-drop", "0.5"],
            ["report", "runs.jsonl", "--bench", "."],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]),
    )
    def test_dropped_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFleetSentinel:
    """`repro fleet --check` and tolerant-reader warnings."""

    def populate(self, ledger, capsys, runs=2):
        # No cache: every sweep executes, so the records are comparable.
        for _ in range(runs):
            assert main(
                ["run", "mpeg", "--policy", "best", "--duration", "1",
                 "--jobs", "2", "--fleet", str(ledger)]
            ) == 0
        capsys.readouterr()

    def append_clone(self, ledger, sweep_id, slowdown):
        """Append a clone of the last sweep, recorded 60 s later and running
        ``slowdown`` times slower, with the extra time all in the result-IPC
        phase."""
        import dataclasses

        from repro.obs.fleet import FleetLedger, read_fleet

        last = read_fleet(ledger)[-1]
        phases = dict(last.phases)
        phases["result IPC"] = (
            phases.get("result IPC", 0.0) + (slowdown - 1.0) * last.wall_s
        )
        with FleetLedger(ledger) as out:
            out.append(dataclasses.replace(
                last,
                sweep_id=sweep_id,
                unix_time=last.unix_time + 60.0,
                wall_s=last.wall_s * slowdown,
                cells_per_s=last.cells_per_s / slowdown,
                phases=tuple(sorted(phases.items())),
            ))

    def test_check_passes_on_healthy_ledger(self, tmp_path, capsys):
        # One real sweep and a clone of it at equal throughput: the verdict
        # must not depend on how fast this host ran two real sweeps.
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys, runs=1)
        self.append_clone(ledger, "healthy", slowdown=1.0)
        assert main(["fleet", "--ledger", str(ledger), "--check"]) == 0
        out = capsys.readouterr().out
        assert "fleet sentinel: ok" in out

    def test_check_fails_on_degraded_ledger(self, tmp_path, capsys):
        # The acceptance criterion: a synthetically-degraded ledger must
        # turn the sentinel red and name the regressed phase.
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        self.append_clone(ledger, "degraded", slowdown=10.0)
        code = main(["fleet", "--ledger", str(ledger), "--check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fleet sentinel: REGRESSION" in out
        assert "throughput dropped" in out
        assert "result IPC" in out

    def test_check_on_fresh_ledger_is_unchecked_ok(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys, runs=1)
        assert main(["fleet", "--ledger", str(ledger), "--check"]) == 0
        assert "unchecked" in capsys.readouterr().out

    def test_phases_flag_prints_profile_table(self, capsys):
        assert main(
            ["run", "mpeg", "--policy", "best", "--duration", "1",
             "--jobs", "2", "--no-fleet", "--phases"]
        ) == 0
        err = capsys.readouterr().err
        assert "phase profile:" in err
        assert "kernel compute" in err
        assert "of wall" in err

    def test_ledger_phases_recorded_by_default(self, tmp_path, capsys):
        # The profiler always rides the engine, so ledger records carry
        # phase attributions even without --phases.
        from repro.obs.fleet import read_fleet

        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys, runs=1)
        [rec] = read_fleet(ledger)
        assert "kernel compute" in rec.phase_seconds

    def test_damaged_ledger_line_warns_on_stderr(self, tmp_path, capsys):
        ledger = tmp_path / "fleet.jsonl"
        self.populate(ledger, capsys)
        with ledger.open("a") as handle:
            handle.write("{not json\n")
        assert main(["fleet", "--ledger", str(ledger)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "## Fleet history" in captured.out


class TestUnwritableOutput:
    """Every output file gets its missing parent directories made; a file
    a command still cannot write ends it with one ``error:`` line naming
    the path and exit 2, never a traceback."""

    @pytest.fixture
    def logs(self, tmp_path, capsys):
        """A real sweep's run-log and fleet ledger."""
        run_log, ledger = tmp_path / "runs.jsonl", tmp_path / "fleet.jsonl"
        assert main(
            ["run", "mpeg", "--duration", "1", "--run-log", str(run_log),
             "--fleet", str(ledger)]
        ) == 0
        capsys.readouterr()
        return run_log, ledger

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--ledger", "{ledger}", "-o"],
            ["report", "{run_log}", "-o"],
            ["trace", "mpeg", "--duration", "1", "-o"],
            ["diagnose", "best", "mpeg", "--duration", "1", "-o"],
        ],
        ids=["fleet", "report", "trace", "diagnose"],
    )
    def test_output_into_missing_directory(self, argv, logs, tmp_path,
                                           capsys):
        run_log, ledger = logs
        argv = [a.format(run_log=run_log, ledger=ledger) for a in argv]
        made = tmp_path / "missing" / "deeper" / "out"
        assert main(argv + [str(made)]) == 0
        assert made.is_file() and made.read_text().endswith("\n")
        assert "error:" not in capsys.readouterr().err

        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        target = blocker / "out"
        assert main(argv + [str(target)]) == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and str(target) in errors[0]
        assert err.endswith(errors[0] + "\n")
        assert blocker.read_text() == "a regular file\n"

    def test_sweep_whose_trace_cannot_be_written_is_recorded(
        self, tmp_path, capsys
    ):
        from repro.obs.fleet import read_fleet

        ledger = tmp_path / "fleet.jsonl"
        (tmp_path / "blocker").write_text("")
        target = tmp_path / "blocker" / "sweep.json"
        assert main(
            ["run", "mpeg", "--duration", "1", "--fleet", str(ledger),
             "--sweep-trace", str(target)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: 1 simulated, 0 cached")
        assert err.splitlines()[-1].startswith("error:")
        assert str(target) in err.splitlines()[-1]
        [rec] = read_fleet(ledger)
        assert rec.command == "run"

    def test_calibrate_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])
        assert exc.value.code == 2
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err


class TestReportBenchSpecs:
    """`repro report` over real run-logs and diagnosis logs."""

    def run_log(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        assert main(
            ["run", "mpeg", "--policy", "best", "--duration", "1",
             "--run-log", str(log), "--no-fleet"]
        ) == 0
        capsys.readouterr()
        return log

    def test_damaged_run_log_line_warns_on_stderr(self, tmp_path, capsys):
        log = self.run_log(tmp_path, capsys)
        with log.open("a") as handle:
            handle.write('{"torn')
        assert main(["report", str(log)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "skipped unreadable run-log line" in captured.err
        assert "# Sweep report" in captured.out

    def test_damaged_diagnosis_line_warns_on_stderr(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        diag = tmp_path / "diag.jsonl"
        assert main(
            ["run", "mpeg", "--policy", "avg3-one", "--duration", "1",
             "--no-daq", "--run-log", str(log), "--diagnoses", str(diag),
             "--no-fleet"]
        ) == 0
        capsys.readouterr()
        text = diag.read_text()
        diag.write_text(text[: len(text) // 2])  # tear the last line
        assert main(["report", str(log), "--diagnoses", str(diag)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {diag}:1: skipped unreadable diagnosis line" in (
            captured.err
        )
        assert "# Sweep report" in captured.out
        assert "skipped unreadable diagnosis line" in captured.out

    def test_summary_counts_cache_hits(self, capsys, tmp_path):
        argv = [
            "ideal", "mpeg", "--duration", "10", "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "simulated, 0 cached" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert " 0 simulated," in warm.err


#: Golden snapshot of ``python -m repro report`` over a hand-written
#: run-log.  The report renderer is pure, so this pins the whole output
#: format — update it deliberately when the report layout changes.
REPORT_SNAPSHOT = """\
# Sweep report

3 runs (1 cached): 3.0 s simulated, 1.5 s of cell compute.

| policy | workload | machine | duration s | runs | cached | mean J | spread J | misses | settling | excess J |
|---|---|---|---|---|---|---|---|---|---|---|
| avg3-one | mpeg | itsy | 1 | 1 | 0 | 12.00 | 12.00..12.00 | 3 | - | - |
| best | mpeg | itsy | 1 | 2 | 1 | 11.00 | 10.00..12.00 | 0 | - | - |
"""


def write_report_log(path):
    import json

    from repro.obs.runlog import RUN_LOG_VERSION

    def record(**overrides):
        base = dict(
            v=RUN_LOG_VERSION, run_id="x", policy="best", workload="mpeg",
            machine="itsy", seed=0, duration_us=1e6, energy_j=10.0,
            exact_energy_j=10.0, miss_count=0, cache="executed", wall_s=0.5,
            unix_time=1_700_000_000.0, repro_version="1.0.0",
        )
        base.update(overrides)
        return base

    records = [
        record(),
        record(seed=1, energy_j=12.0, cache="hit", wall_s=0.0),
        record(policy="avg3-one", energy_j=12.0, miss_count=3, wall_s=1.0),
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


#: Golden snapshot of ``python -m repro diagnose avg3-one mpeg --duration 5
#: -o <out>``: the decomposition, settling verdict and prediction ledger.
DIAGNOSE_SNAPSHOT = """\
workload        : MPEG (5 s)
policy          : avg3-one
machine         : itsy
quanta          : 500
mean utilization: 0.777
energy          : 7.20 J measured
  = 6.69 J ideal-constant oracle
  + +0.49 J overshoot (speed above the oracle)
  + 0.016 J clock-change stall windows
  + 0.0000 J voltage-sag windows
settling        : never settles (0.137 speed changes/quantum in the tail; threshold 0.02)
  dominant oscillation period: 6.6 quanta (11% of tail power)
  predictor attenuation at that period: 0.288 (1.0 = passes straight through)
prediction error: mean +0.0029, |mean| 0.3298, rms 0.4105 (499 decisions, N=3)
deadline misses : 0
diagnosis JSON  : <out>
"""

#: Golden snapshot of ``python -m repro diagnose const-59.0 mpeg --duration
#: 5``: a run that misses, with its first ten attributed misses.
DIAGNOSE_MISSES_SNAPSHOT = """\
workload        : MPEG (5 s)
policy          : const-59.0
machine         : itsy
quanta          : 500
mean utilization: 1.000
energy          : 5.74 J measured
  = 6.69 J ideal-constant oracle
  + -0.95 J overshoot (speed above the oracle)
  + 0.000 J clock-change stall windows
  + 0.0000 J voltage-sag windows
settling        : settles (0.000 speed changes/quantum in the tail; threshold 0.02)
deadline misses : 35
  frame at 0.150 s, late 83.1 ms -> cause: policy (window mean 80.1 MHz, 0 up / 1 down)
  frame at 0.279 s, late 145.9 ms -> cause: policy (window mean 69.5 MHz, 0 up / 1 down)
  frame at 0.416 s, late 216.2 ms -> cause: policy (window mean 66.0 MHz, 0 up / 1 down)
  frame at 0.548 s, late 281.3 ms -> cause: policy (window mean 64.5 MHz, 0 up / 1 down)
  frame at 0.684 s, late 351.1 ms -> cause: policy (window mean 63.3 MHz, 0 up / 1 down)
  frame at 0.809 s, late 409.0 ms -> cause: policy (window mean 62.6 MHz, 0 up / 1 down)
  frame at 0.943 s, late 476.4 ms -> cause: policy (window mean 62.1 MHz, 0 up / 1 down)
  frame at 1.073 s, late 539.4 ms -> cause: policy (window mean 59.0 MHz, 0 up / 0 down)
  frame at 1.271 s, late 670.9 ms -> cause: policy (window mean 59.0 MHz, 0 up / 0 down)
  frame at 1.406 s, late 738.9 ms -> cause: policy (window mean 59.0 MHz, 0 up / 0 down)
  ... and 25 more
"""


class TestDiagnoseCommand:
    def test_snapshot(self, capsys, tmp_path):
        out = tmp_path / "d.json"
        assert main(
            ["diagnose", "avg3-one", "mpeg", "--duration", "5", "-o", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert stdout.replace(str(out), "<out>") == DIAGNOSE_SNAPSHOT

    def test_misses_snapshot(self, capsys):
        assert main(["diagnose", "const-59.0", "mpeg", "--duration", "5"]) == 1
        assert capsys.readouterr().out == DIAGNOSE_MISSES_SNAPSHOT

    def test_json_equals_the_spelled_out_diagnosis(self, capsys, tmp_path):
        """``-o`` writes the diagnosis of a DAQ-free run against the
        ideal-constant oracle, computed here in the same process."""
        import json

        from repro.core.catalog import resolve_policy
        from repro.hw.machines import MachineSpec
        from repro.measure.parallel import find_ideal_constant
        from repro.measure.runner import run_workload
        from repro.obs.diagnose import diagnose

        out = tmp_path / "d.json"
        assert main(
            ["diagnose", "avg3-one", "mpeg", "--duration", "5", "-o", str(out)]
        ) == 0
        spec = workload_spec("mpeg", 5.0)
        machine = MachineSpec()
        expected = diagnose(
            run_workload(
                spec.build(), resolve_policy("avg3-one"),
                machine_factory=machine, use_daq=False,
            ),
            policy="avg3-one",
            workload="mpeg",
            machine=machine,
        ).against(find_ideal_constant(spec, machine=machine).exact_energy_j)
        assert out.read_text() == json.dumps(expected.to_json(), sort_keys=True) + "\n"

    def test_unknown_policy_simulates_nothing(self, capsys, monkeypatch):
        import repro.measure.runner as runner

        def run_workload(*args, **kwargs):
            pytest.fail("diagnose simulated before validating its policy")

        monkeypatch.setattr(runner, "run_workload", run_workload)
        for args, message in [
            (["nope", "mpeg"], "unknown policy 'nope'"),
            # A constant step the machine lacks: the name parses, and the
            # step is looked up only when a governor is built.
            (["const-132.7", "mpeg", "--machine", "sa2"], "no 132.7 MHz step"),
        ]:
            assert main(["diagnose", *args]) == 2
            assert message in capsys.readouterr().err

    def test_unknown_policy_in_a_diagnosing_run_simulates_nothing(
        self, capsys, tmp_path
    ):
        # Unchecked, the bad cell would fail only after its oracle
        # search had simulated and been run-logged.
        for policy, message in [
            ("nope", "unknown policy 'nope'"),
            ("const-999", "no 999 MHz step"),
        ]:
            run_log = tmp_path / f"{policy}.jsonl"
            code = main([
                "run", "mpeg", "--policy", policy, "--duration", "5",
                "--diagnoses", str(tmp_path / "diag.jsonl"),
                "--run-log", str(run_log), "--no-fleet",
            ])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not run_log.exists()

    def test_oscillation_verdict_on_avg3_mpeg(self, capsys):
        code = main(["diagnose", "avg3-one", "mpeg", "--duration", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "settling        : never settles" in out
        assert "dominant oscillation period" in out
        assert "predictor attenuation" in out
        assert "prediction error" in out
        assert "ideal-constant oracle" in out
        assert "deadline misses : 0" in out

    def test_settled_verdict_on_best_policy_editor(self, capsys):
        code = main(
            ["diagnose", "past-peg-98-93", "editor", "--duration", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "settling        : settles" in out

    def test_misses_attributed_and_exit_one(self, capsys):
        code = main(["diagnose", "const-59.0", "mpeg", "--duration", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "cause: policy" in out

    def test_json_output_round_trips(self, capsys, tmp_path):
        import json

        from repro.obs.diagnose import PolicyDiagnosis

        out_path = tmp_path / "diag.json"
        code = main(
            ["diagnose", "avg3-one", "mpeg", "--duration", "5",
             "-o", str(out_path)]
        )
        assert code == 0
        diagnosis = PolicyDiagnosis.from_json(json.loads(out_path.read_text()))
        assert diagnosis.policy == "avg3-one"
        assert diagnosis.workload == "mpeg"

    def test_unknown_policy_exit_two(self, capsys):
        assert main(["diagnose", "nope", "mpeg"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_markdown_snapshot(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        write_report_log(log)
        assert main(["report", str(log)]) == 0
        assert capsys.readouterr().out == REPORT_SNAPSHOT + "\n"

    def test_html_to_file(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        write_report_log(log)
        out = tmp_path / "report.html"
        code = main(
            ["report", str(log), "--format", "html", "-o", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "wrote" in captured.err
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "avg3-one" in text

    def test_joins_diagnosis_log(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        diag = tmp_path / "diag.jsonl"
        assert main(
            ["run", "mpeg", "--policy", "avg3-one", "--duration", "2",
             "--no-daq", "--run-log", str(log), "--diagnoses", str(diag)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(log), "--diagnoses", str(diag)]) == 0
        out = capsys.readouterr().out
        assert "## Diagnoses" in out
        assert "oscillates" in out

    def test_missing_log_exit_two(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDiagnosesSweepFlag:
    def test_flag_writes_jsonl_and_keeps_results(self, capsys, tmp_path):
        from repro.obs.diagnose import read_diagnoses

        diag = tmp_path / "diag.jsonl"
        argv = ["run", "mpeg", "--policy", "best", "--duration", "2",
                "--no-daq"]
        assert main(argv) == 0
        plain_out = capsys.readouterr().out
        assert main(argv + ["--diagnoses", str(diag)]) == 0
        diagnosed = capsys.readouterr()
        assert diagnosed.out == plain_out  # observing never changes results
        [diagnosis] = read_diagnoses(diag)
        assert diagnosis.policy == "best"
        assert diagnosis.energy.baseline_feasible

    def test_diagnosed_fig9_simulates_each_step_once(self, capsys, tmp_path):
        # fig9's cells are the constant steps its oracle search runs: one
        # simulation, one run-log line and one diagnosis per step.
        from repro.obs.diagnose import read_diagnoses
        from repro.obs.runlog import read_run_log

        diag, log = tmp_path / "diag.jsonl", tmp_path / "runs.jsonl"
        assert main(["fig9", "--duration", "1", "--diagnoses", str(diag),
                     "--run-log", str(log)]) == 0
        assert capsys.readouterr().err.startswith("sweep: 11 simulated, 0 cached")
        records = read_run_log(log)
        assert len(records) == len({r["run_id"] for r in records}) == 11
        assert len(read_diagnoses(diag)) == 11

    def test_diagnosed_constant_run_is_one_of_its_search_steps(
        self, capsys, tmp_path
    ):
        diag = tmp_path / "diag.jsonl"
        assert main(["run", "mpeg", "--policy", "const-132.7", "--duration",
                     "1", "--no-daq", "--diagnoses", str(diag)]) == 0
        assert capsys.readouterr().err.startswith("sweep: 11 simulated, 0 cached")

    def test_diagnosed_sweep_is_one_batch(self, capsys, tmp_path, monkeypatch):
        # The oracle searches join the sweep's one batch: the engine is
        # entered once, and each observer sees one batch start and end.
        from repro.measure.parallel import SweepEngine
        from repro.obs.profile import SweepObserver
        from repro.obs.runlog import DiagnosisWriter, RunLogWriter

        runs, hooks = [], []
        run = SweepEngine.run

        def counted_run(self, cells):
            runs.append(self)
            return run(self, cells)

        monkeypatch.setattr(SweepEngine, "run", counted_run)
        for hook in ("on_batch_start", "on_batch_end"):
            def counted(self, *args, hook=hook):
                hooks.append((type(self), hook))

            monkeypatch.setattr(SweepObserver, hook, counted)
        assert main(["table2", "--runs", "2", "--diagnoses",
                     str(tmp_path / "diag.jsonl"), "--run-log",
                     str(tmp_path / "runs.jsonl")]) == 0
        assert len(runs) == 1
        assert sorted(hooks, key=str) == sorted(
            [(observer, hook) for observer in (DiagnosisWriter, RunLogWriter)
             for hook in ("on_batch_start", "on_batch_end")], key=str,
        )


class TestFuzzCommand:
    """The differential fuzz driver: ``repro fuzz``."""

    def test_batch_passes_and_reports_shape(self, capsys):
        code = main(["fuzz", "--count", "2", "--duration", "0.4",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 generated runs" in out  # 2 specs x 1 policy x 2 machines
        assert "itsy, itsy-reconf" in out
        assert "bitwise-identical" in out

    def test_machine_and_policy_repeatable(self, capsys):
        code = main(["fuzz", "--count", "1", "--duration", "0.4",
                     "--machine", "sa2", "--machine", "sa2-reconf",
                     "--policy", "best", "--policy", "past-peg"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 generated runs" in out  # 1 spec x 2 policies x 2 machines
        assert "sa2, sa2-reconf" in out

    def test_corpus_replay(self, capsys, tmp_path):
        from repro.hw.machines import MachineSpec
        from repro.measure.differential import (
            check_scenario, counterexample_entry,
        )
        from repro.traces.corpus import save_entry
        from repro.workloads.fuzz import FuzzSpec

        outcome = check_scenario(
            FuzzSpec(seed=9, duration_s=0.4), "best", MachineSpec("itsy")
        )
        save_entry(tmp_path, counterexample_entry(outcome))
        code = main(["fuzz", "--count", "1", "--duration", "0.4",
                     "--machine", "itsy", "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 corpus replays" in out

    def test_corpus_replay_checks_decomposition(self, capsys, monkeypatch):
        # Only the committed corpus runs, and no residual can pass: every
        # replay must then fail on its energy decomposition, by name.
        import repro.measure.differential as differential
        import repro.workloads.fuzz as fuzz
        from repro.traces.corpus import load_corpus

        corpus = REPO_ROOT / "tests" / "corpus"
        monkeypatch.setattr(fuzz, "fuzz_family", lambda *args, **kwargs: [])
        monkeypatch.setattr(differential, "RESIDUAL_TOLERANCE_J", -1.0)
        assert main(["fuzz", "--corpus", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert "energy decomposition closed" not in captured.out
        names = [entry.name for _, entry in load_corpus(corpus)]
        assert any(f"corpus {name} " in captured.err for name in names)
        assert "energy decomposition residual" in captured.err

    def test_campaign_where_every_run_raised_exits_two(self, capsys):
        # The stock Itsy has no 1.23 V rail: both backends raise alike on
        # every run, so nothing was compared and nothing may pass.
        code = main(["fuzz", "--count", "2", "--duration", "0.4",
                     "--policy", "best-voltage", "--machine", "itsy-stock"])
        captured = capsys.readouterr()
        assert code == 2
        assert "2 raised alike on both backends" in captured.out
        assert "bitwise-identical" not in captured.out
        assert ("error: no fuzz run completed: fuzz seed=0 "
                "policy=best-voltage machine=itsy-stock") in captured.err
        assert "1.23 V" in captured.err

    def test_raised_runs_are_counted_apart(self, capsys):
        code = main(["fuzz", "--count", "2", "--duration", "0.4",
                     "--machine", "itsy", "--machine", "itsy-stock",
                     "--policy", "best-voltage"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 generated runs" in out
        assert "2 raised alike on both backends" in out
        assert "the 2 completed runs bitwise-identical" in out

    def test_deterministic_output(self, capsys):
        argv = ["fuzz", "--count", "2", "--duration", "0.4", "--seed", "5",
                "--machine", "itsy"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fuzz_workload_in_run_command(self, capsys):
        code = main(["run", "fuzz", "--policy", "best", "--duration", "0.5",
                     "--no-daq", "--machine", "itsy-reconf"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # fuzzed deadlines may genuinely miss
        assert "machine         : itsy-reconf" in out
        assert "energy          :" in out
