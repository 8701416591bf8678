"""ChaosPlan / ChaosRule: validation and JSON round-trips."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosPlan, ChaosRule


class TestRuleValidation:
    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ChaosRule(site="block.write", fault="eio")
        with pytest.raises(ValueError, match="exactly one"):
            ChaosRule(site="block.write", fault="eio", probability=0.5, nth=1)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            ChaosRule(site="block.write", fault="meteor", nth=1)

    def test_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosRule(site="s", fault="eio", probability=1.5)
        with pytest.raises(ValueError, match="nth"):
            ChaosRule(site="s", fault="eio", nth=0)
        with pytest.raises(ValueError, match="every"):
            ChaosRule(site="s", fault="eio", every=0)
        with pytest.raises(ValueError, match="site"):
            ChaosRule(site="", fault="eio", nth=1)
        with pytest.raises(ValueError, match="max_faults"):
            ChaosRule(site="s", fault="eio", probability=1.0, max_faults=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ChaosRule fields"):
            ChaosRule.from_dict({"site": "s", "fault": "eio", "nth": 1, "rate": 2})


class TestPlanSerialization:
    def test_round_trip(self):
        plan = ChaosPlan(
            seed=42,
            name="demo",
            rules=[
                ChaosRule(site="block.spill", fault="enospc", probability=0.3),
                ChaosRule(site="task.attempt", fault="slow", every=5, delay=0.1),
                ChaosRule(site="serve.persist.clock", fault="clock_skew",
                          nth=1, skew=60.0),
            ],
        )
        restored = ChaosPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.sites() == [
            "block.spill", "serve.persist.clock", "task.attempt"
        ]

    def test_dict_rules_coerced(self):
        plan = ChaosPlan(rules=[{"site": "shuffle.fetch", "fault": "eio", "nth": 2}])
        assert isinstance(plan.rules[0], ChaosRule)
        assert plan.rules[0].nth == 2

    def test_save_load(self, tmp_path):
        plan = ChaosPlan(seed=7, rules=[{"site": "a", "fault": "die", "nth": 1}])
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert ChaosPlan.load(path) == plan

    def test_with_seed_keeps_rules(self):
        plan = ChaosPlan(seed=1, rules=[{"site": "a", "fault": "eio", "nth": 1}])
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.rules == plan.rules
