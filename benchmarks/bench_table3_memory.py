"""Table 3: memory access time in cycles at each clock frequency.

Reproduces the paper's memory microbenchmark: a process that issues a
known number of individual-word reads (and, separately, full cache-line
reads) is timed at every clock step; cycles per reference are derived from
the measured busy time.  The derived numbers must equal Table 3 exactly
(they are the machine model's ground truth -- this benchmark validates the
whole measurement path, not just the table lookup).
"""

from repro.hw.clocksteps import SA1100_CLOCK_TABLE
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.process import Compute, Exit
from repro.kernel.scheduler import Kernel

from _util import Report, once

N_REFS = 100_000.0


def measure_cycles_per_ref(step, component):
    """Time N references of one kind through the kernel, return cycles/ref."""
    machine = ItsyMachine(ItsyConfig(initial_mhz=step.mhz))
    kernel = Kernel(machine, config=KernelConfig(sched_overhead_us=0.0))

    work = Work(mem_refs=N_REFS) if component == "mem" else Work(cache_refs=N_REFS)

    def body(ctx):
        yield Compute(work)
        ctx.emit("done")
        yield Exit()

    kernel.spawn("microbench", body)
    run = kernel.run(60_000_000.0)
    done = run.events_of_kind("done")[0]
    busy_us = done.time_us  # started at t=0, ran alone
    return busy_us * step.mhz / N_REFS


def test_table3_memory(benchmark):
    def run():
        return [
            (
                step,
                measure_cycles_per_ref(step, "mem"),
                measure_cycles_per_ref(step, "cache"),
            )
            for step in SA1100_CLOCK_TABLE
        ]

    rows = once(benchmark, run)

    from repro.hw.memory import SA1100_MEMORY_TIMINGS

    report = Report("table3_memory")
    report.add("Memory access time in cycles (measured via kernel microbenchmark)")
    report.table(
        ["Freq (MHz)", "Cycles/Mem Ref", "Cycles/Cache Ref", "Paper (mem, cache)"],
        [
            (
                f"{step.mhz:.1f}",
                f"{mem:.1f}",
                f"{cache:.1f}",
                f"({SA1100_MEMORY_TIMINGS.mem_cycles(step)}, "
                f"{SA1100_MEMORY_TIMINGS.cache_cycles(step)})",
            )
            for step, mem, cache in rows
        ],
    )
    report.emit()

    for step, mem, cache in rows:
        assert abs(mem - SA1100_MEMORY_TIMINGS.mem_cycles(step)) < 0.1
        assert abs(cache - SA1100_MEMORY_TIMINGS.cache_cycles(step)) < 0.1
