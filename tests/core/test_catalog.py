"""Tests for the named policy catalog."""

import pytest

from repro.core.catalog import (
    best_policy,
    constant_speed,
    cycle_average,
    make_setter,
    pering_avg,
    resolve_policy,
)
from repro.core.predictors import AvgN, Past
from repro.core.speed import Double, OneStep, Peg
from repro.kernel.governor import ConstantGovernor


class TestFactories:
    def test_make_setter(self):
        assert isinstance(make_setter("one"), OneStep)
        assert isinstance(make_setter("double"), Double)
        assert isinstance(make_setter("peg"), Peg)
        with pytest.raises(ValueError):
            make_setter("triple")

    def test_constant_speed_resolves_step(self):
        gov = constant_speed(132.7)
        assert isinstance(gov, ConstantGovernor)
        assert gov.step_index == 5

    def test_constant_speed_unknown_frequency(self):
        with pytest.raises(ValueError, match="no 100 MHz step"):
            constant_speed(100.0)

    def test_best_policy_shape(self):
        policy = best_policy()
        assert isinstance(policy.predictor, Past)
        assert isinstance(policy.up, Peg)
        assert isinstance(policy.down, Peg)
        assert policy.thresholds.low == 0.93
        assert policy.thresholds.high == 0.98
        assert policy.voltage_rule is None

    def test_best_policy_with_voltage_scaling(self):
        policy = best_policy(voltage_scaling=True)
        assert policy.voltage_rule is not None
        assert policy.voltage_rule.bound_mhz == pytest.approx(162.2)

    def test_pering_avg_defaults(self):
        policy = pering_avg(3)
        assert isinstance(policy.predictor, AvgN)
        assert policy.predictor.n == 3
        assert policy.thresholds.low == 0.50
        assert policy.thresholds.high == 0.70

    def test_cycle_average(self):
        gov = cycle_average(window=4)
        assert gov.window == 4

    def test_factories_return_fresh_instances(self):
        a, b = best_policy(), best_policy()
        assert a is not b
        assert a.predictor is not b.predictor



class TestSection53Grid:
    def test_grid_resolves_by_name(self):
        # The §5.3 sweep, as the policy-sweep benchmark names it: AVG_N
        # for N in 0..10 x one/double/peg, the same setter both
        # directions, at Pering's 50/70 thresholds.
        setters = {"one": OneStep, "double": Double, "peg": Peg}
        for n in range(11):
            for name, setter in setters.items():
                gov = resolve_policy(f"avg{n}-{name}")()
                assert isinstance(gov.predictor, AvgN)
                assert gov.predictor.n == n
                assert isinstance(gov.up, setter)
                assert isinstance(gov.down, setter)
                assert gov.thresholds.low == 0.50
                assert gov.thresholds.high == 0.70
