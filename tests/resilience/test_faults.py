"""Fault-injection core: rules, plans, scoping, env arming."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import FaultInjected, ReproError
from repro.resilience import (
    FaultPlan,
    FaultRule,
    active_plan,
    inject,
    injecting,
    install_from_env,
    install_plan,
    uninstall_plan,
)


class TestFaultRule:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="action"):
            FaultRule("x", action="explode")
        with pytest.raises(ValueError, match="occurrence"):
            FaultRule("x", occurrence=0)
        with pytest.raises(ValueError, match="times"):
            FaultRule("x", times=0)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("x", probability=1.5)

    def test_site_patterns_use_fnmatch(self):
        rule = FaultRule("edgestore.*")
        assert rule.matches("edgestore.merge.chunk", {})
        assert not rule.matches("cli.main", {})

    def test_context_match_filters(self):
        rule = FaultRule("site", match={"run": 2})
        assert rule.matches("site", {"run": 2})
        assert not rule.matches("site", {"run": 1})
        assert not rule.matches("site", {})


class TestFaultPlan:
    def test_fires_on_exact_occurrence(self):
        plan = FaultPlan().on("site", occurrence=3)
        for _ in range(2):
            plan.visit("site", {})
        with pytest.raises(FaultInjected, match="occurrence 3"):
            plan.visit("site", {})
        assert plan.fired == [("site", 3)]

    def test_times_one_fires_once_then_stops(self):
        plan = FaultPlan().on("site")
        with pytest.raises(FaultInjected):
            plan.visit("site", {})
        # armed rule is spent: further visits pass through
        for _ in range(5):
            plan.visit("site", {})
        assert plan.hits("site") == 6
        assert len(plan.fired) == 1

    def test_times_none_fires_every_visit(self):
        plan = FaultPlan().on("site", times=None)
        for _ in range(3):
            with pytest.raises(FaultInjected):
                plan.visit("site", {})
        assert len(plan.fired) == 3

    def test_probabilistic_schedule_is_seed_deterministic(self):
        def fire_pattern(seed):
            plan = FaultPlan(seed=seed).on(
                "site", probability=0.5, times=None
            )
            pattern = []
            for _ in range(40):
                try:
                    plan.visit("site", {})
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert any(fire_pattern(7))  # not degenerate all-miss
        assert not all(fire_pattern(7))  # nor all-fire
        assert fire_pattern(7) != fire_pattern(8)

    def test_reset_replays_identically(self):
        plan = FaultPlan(seed=3).on("site", probability=0.4, times=None)

        def run():
            pattern = []
            for _ in range(30):
                try:
                    plan.visit("site", {})
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        first = run()
        plan.reset()
        assert plan.hits("site") == 0 and plan.fired == []
        assert run() == first

    def test_callable_action_gets_context_with_site(self):
        seen = []
        plan = FaultPlan().on("site", action=seen.append)
        plan.visit("site", {"run": 4})
        assert seen == [{"run": 4, "site": "site"}]

    def test_sleep_action_blocks_for_seconds(self):
        plan = FaultPlan().on("site", action="sleep", seconds=0.05)
        start = time.perf_counter()
        plan.visit("site", {})
        assert time.perf_counter() - start >= 0.05


class TestFromSpec:
    def test_single_and_compound_specs(self):
        plan = FaultPlan.from_spec(
            "edgestore.merge.chunk@2=kill; edgestore.commit"
        )
        assert len(plan.rules) == 2
        kill, default = plan.rules
        assert kill.site == "edgestore.merge.chunk"
        assert kill.occurrence == 2 and kill.action == "kill"
        assert default.occurrence == 1 and default.action == "raise"

    def test_bad_specs_raise_repro_error(self):
        for spec in ("", ";;", "@2=kill", "site@two", "site=explode"):
            with pytest.raises(ReproError):
                FaultPlan.from_spec(spec)


class TestInstallation:
    def test_inject_is_noop_without_plan(self):
        assert active_plan() is None
        inject("anything.at.all", run=1)  # must not raise

    def test_injecting_scopes_and_restores(self):
        outer = FaultPlan().on("never-matched")
        install_plan(outer)
        inner = FaultPlan().on("site")
        with injecting(inner) as armed:
            assert armed is inner and active_plan() is inner
            with pytest.raises(FaultInjected):
                inject("site")
        assert active_plan() is outer
        uninstall_plan()
        assert active_plan() is None

    def test_inject_routes_visits_to_installed_plan(self):
        plan = FaultPlan().on("never-matched")
        with injecting(plan):
            inject("a")
            inject("a")
            inject("b", chunk=3)
        assert plan.hits("a") == 2 and plan.hits("b") == 1

    def test_install_from_env(self):
        assert install_from_env({}) is None
        assert install_from_env({"REPRO_FAULTS": "  "}) is None
        assert active_plan() is None
        plan = install_from_env({"REPRO_FAULTS": "site@2"})
        assert active_plan() is plan
        assert plan.rules[0].occurrence == 2
        with pytest.raises(ReproError):
            install_from_env({"REPRO_FAULTS": "site@bad"})
