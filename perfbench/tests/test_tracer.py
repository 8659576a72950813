"""The tracer sees calls at every binding, keeps exact counts and restores gcsf."""

import json
import os

import numpy as np
import pytest

import layers
import run
from gcsf import cli
from gcsf import flow as fl
from gcsf import geometry as geo
from tracer import Spans, Tracer


def test_kernel_calls_are_seen_at_the_flow_binding(tmp_path):
    original = geo.curvature_radius_samples
    s0 = geo.SupportFunction(1.0 + 1e-3 * np.cos(2.0 * np.arange(64) * (2.0 * np.pi / 64)))
    with Tracer(tmp_path) as tracer:
        assert fl.curvature_radius_samples is not original
        assert geo.curvature_radius_samples is not original
        taus, states = fl.run_normalized(s0, fl.FlowParams(alpha=1.0, m=64), 0.05,
                                         store_every=1)
    assert fl.curvature_radius_samples is original
    assert geo.curvature_radius_samples is original
    assert tracer.names  # spans were named

    spans = Spans(tmp_path)
    steps = len(taus) - 1
    # One radius for the start, then three stages and the new radius per step.
    assert spans.calls(layers.KERNEL, binding="flow") == 1 + 4 * steps
    # The rest re-validate each stored state as a SupportFunction.
    assert spans.calls(layers.KERNEL, binding="geometry") == len(states)
    metrics = layers.layer_metrics(spans, 64)
    assert metrics["flow.rhs_evals"] == 1 + 4 * steps
    assert metrics["flow.snapshots"] == len(taus)
    assert 0.0 < metrics["geometry.kernel.useful_ratio"] < 1.0


def test_self_times_add_up_to_the_top_level_spans(tmp_path):
    circle = geo.make_circle(0.2, m=64)
    with Tracer(tmp_path):
        trace = fl.run_to_extinction(circle, fl.FlowParams(alpha=1.0, m=64))
        fl.trace_summary_rows(trace)
    spans = Spans(tmp_path)
    top = spans.total(["flow.run_to_extinction", "flow.trace_summary_rows"])
    assert float(np.sum(spans.self_s)) == pytest.approx(top, rel=1e-9)
    assert np.all(spans.self_s >= -1e-9)


def test_pool_workers_write_their_own_spans(tmp_path, monkeypatch):
    config = {"experiment": "normalized-rate", "output_dir": str(tmp_path / "runs"),
              "m": 64, "tau_end": 0.4, "fit_window": [0.1, 0.3]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv("GCSF_THREADS", "2")
    with Tracer(tmp_path / "spans"):
        code = cli.main(["sweep", str(path), "--param=alpha", "--values=1,2"])
    assert code == 0
    pids = {name.split("-")[1] for name in os.listdir(tmp_path / "spans")}
    assert str(os.getpid()) in pids and len(pids) >= 2
    spans = Spans(tmp_path / "spans")
    assert spans.calls(layers.SOLVERS) == 2
    assert spans.calls(layers.KERNEL, binding="flow") > 0


def test_unequal_counts_between_passes_are_flagged():
    def make(nodes):
        return run.Pass(False, 0.1, 1.0, 10.0, [[]], {"solitons.march.nodes": nodes})

    assert run.unsteady_counts([make(5), make(5)]) == []
    assert run.unsteady_counts([make(5), make(6)])


def test_artifact_counts(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "manifest.json").write_text('{"wall_time_s": 1.25}')
    (tmp_path / "a" / "profile.csv").write_text("r,u,du,d2u\n0,0,0,1\n1,1,1,1\n")
    (tmp_path / "a" / "trace.csv").write_text("t\n0\n")
    counts = run.artifact_counts(tmp_path)
    assert counts == {"flow.snapshots": 1, "solitons.march.nodes": 2,
                      "cli.artifact_bytes": 31, "cli.artifact_files": 3}


def test_benchmark_declares_every_reported_metric():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == sorted(run.workloads.PLANS)
