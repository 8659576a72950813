"""Workload configs are valid, use only fields the roadmap keeps, and are judged safely."""

import pytest

import run
import workloads
from gcsf import cli

DROPPED = {"keep_every", "cfl", "step_size"}
FLOW_EXPERIMENTS = {"flow", "normalized-rate", "area-identity"}


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_configs_validate_and_avoid_planned_deletions(name, tmp_path):
    plan = workloads.PLANS[name](tmp_path, seed=3)
    assert plan.validate and plan.ops and plan.calls
    for config in plan.validate:
        assert not DROPPED & set(config)
        if config["experiment"] in FLOW_EXPERIMENTS:
            assert "sigma" not in config
        cli.config_from_dict(config)
    verified = {call[1] for call in plan.calls if call[0] == "verify"}
    assert verified == {str(d) for d in plan.run_dirs}


def test_flow_body_follows_the_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = workloads.plan_flow_extinction(tmp_path / "a", seed=5).validate
    again = workloads.plan_flow_extinction(tmp_path / "b", seed=5).validate
    other = workloads.plan_flow_extinction(tmp_path / "c", seed=6).validate
    assert first[0]["initial_body"] == again[0]["initial_body"]
    assert first[0]["initial_body"] != other[0]["initial_body"]


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_missing_outputs_fail_every_operation(name, tmp_path):
    plan = workloads.PLANS[name](tmp_path, seed=0)
    codes = [0] * len(plan.calls)
    assert all(run.judge(op, codes) for op in plan.ops)


def test_an_unreadable_artifact_is_a_failure_not_a_crash(tmp_path):
    plan = workloads.plan_translator_march(tmp_path, seed=0)
    radial = plan.run_dirs[0]
    radial.mkdir(parents=True)
    (radial / "manifest.json").write_text('{"pass": true, "error": null, "scalars": {}}')
    failures = run.judge(plan.ops[0], [0] * len(plan.calls))
    assert failures and "could not judge" in failures[0]
