"""Property-based tests for the observability layer.

Two invariants the diagnostics and trace exporters promise:

- a Chrome trace is time-ordered after ``_sort_key`` sorting, with
  metadata records leading and every timestamp non-negative;
- an energy decomposition reconstructs the measured total to within
  :data:`~repro.obs.diagnose.ENERGY_SUM_TOLERANCE_J`, whatever policy,
  workload, or seed produced the run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import workload_spec
from repro.core.catalog import resolve_policy
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.measure.runner import run_workload
from repro.obs.diagnose import (
    ENERGY_SUM_TOLERANCE_J,
    energy_decomposition,
    prediction_errors,
)
from repro.obs.trace import _sort_key, chrome_trace

POLICIES = ["best", "best-voltage", "avg3-one", "past-double", "cycleavg"]
WORKLOADS = ["mpeg", "web", "editor"]

utilization_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


def traced_run(policy: str, workload: str, seed: int):
    return run_workload(
        workload_spec(workload, 2.0).build(),
        resolve_policy(policy),
        seed=seed,
        kernel_config=KernelConfig(record_sched_log=True),
        use_daq=False,
    )


class TestChromeTraceOrdering:
    @given(
        policy=st.sampled_from(POLICIES),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_events_time_ordered_and_non_negative(self, policy, workload, seed):
        result = traced_run(policy, workload, seed)
        events = chrome_trace(result.run)["traceEvents"]
        keys = [_sort_key(e) for e in events]
        assert keys == sorted(keys)
        for event in events:
            assert event.get("ts", 0.0) >= 0.0
        # Metadata records (process/thread names) lead the timeline.
        phases = [e["ph"] for e in events]
        first_real = next(i for i, ph in enumerate(phases) if ph != "M")
        assert all(ph == "M" for ph in phases[:first_real])


class TestEnergyDecompositionProperties:
    @given(
        policy=st.sampled_from(POLICIES),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(0, 3),
        baseline_j=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=100.0)
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_components_always_sum_to_measured(
        self, policy, workload, seed, baseline_j
    ):
        result = run_workload(
            workload_spec(workload, 2.0).build(),
            resolve_policy(policy),
            seed=seed,
            use_daq=False,
        )
        decomposition = energy_decomposition(
            result.run, MachineSpec().build()
        ).against(baseline_j)
        assert (
            abs(decomposition.components_sum_j() - decomposition.measured_j)
            <= ENERGY_SUM_TOLERANCE_J
        )
        assert decomposition.stall_j >= 0.0
        assert decomposition.measured_j == result.run.energy_joules()


class TestPredictionReplayProperties:
    @given(series=utilization_lists, n=st.integers(0, 20))
    def test_predictions_bounded_by_unit_interval(self, series, n):
        for predicted, realized in prediction_errors(series, n):
            assert 0.0 <= predicted <= 1.0
            assert 0.0 <= realized <= 1.0

    @given(series=utilization_lists, n=st.integers(0, 20))
    def test_one_prediction_per_successor_interval(self, series, n):
        assert len(prediction_errors(series, n)) == len(series) - 1

    @given(series=utilization_lists)
    def test_past_predicts_the_previous_interval(self, series):
        for i, (predicted, realized) in enumerate(
            prediction_errors(series, decay_n=0)
        ):
            assert predicted == series[i]
            assert realized == series[i + 1]
