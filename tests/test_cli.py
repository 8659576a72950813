import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gcsf
from gcsf import cli, tables
from gcsf import solitons as so


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def read_manifest(run_dir):
    with open(f"{run_dir}/manifest.json") as f:
        return json.load(f)


def read_summary(base_dir):
    with open(f"{base_dir}/summary.csv", newline="") as f:
        return list(csv.reader(f))


# -- run ---------------------------------------------------------------------

def test_run_log_convexity_passes(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(out),
                       alpha=0.7, radius=2.0)
    rc = cli.main(["run", cfg])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "check log-convexity-margin:" in printed
    assert "[pass]" in printed
    manifest = read_manifest(out)
    assert manifest["artifact"] == "gcsf"
    assert manifest["version"] == gcsf.__version__
    assert manifest["pass"] is True
    assert manifest["error"] is None
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["config"]["alpha"] == 0.7
    assert (out / "margins.csv").exists()


@pytest.mark.parametrize("entries, phases", [
    ({"experiment": "log-convexity"}, ["solve", "write", "judge"]),
    ({"experiment": "normalized-rate", "m": 64}, ["solve", "write", "judge"]),
    # A run that raises while it solves times no phase.
    ({"experiment": "radial-translator", "alpha": 0.01, "sigma": 1e-9}, [])])
def test_manifest_times_each_phase_inside_the_wall_time(tmp_path, entries, phases):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, output_dir=str(out), **entries)
    status = cli.main(["run", cfg])
    manifest = read_manifest(out)
    timings = manifest["timings"]
    assert list(timings) == phases
    assert all(seconds >= 0.0 for seconds in timings.values())
    assert sum(timings.values()) <= manifest["wall_time_s"]
    # verify ignores the timings, as it ignores wall_time_s.
    manifest["timings"] = {"solve": -1.0}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["verify", str(out)]) == status


def test_run_resolves_experiment_defaults(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="radial-translator",
                       output_dir=str(out), alpha=1.0, r_max=5.0)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    # sigma defaults to 1 for the translator family and is echoed resolved
    assert manifest["config"]["sigma"] == 1.0
    names = {c["name"] for c in manifest["checks"]}
    assert names == {"convex", "operator-residual", "growth-bound",
                     "increment-consistency"}
    assert all(c["pass"] for c in manifest["checks"])


def test_run_override_beats_config(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(out),
                       alpha=0.7)
    assert cli.main(["run", cfg, "--alpha=2.0"]) == 0
    assert read_manifest(out)["config"]["alpha"] == 2.0


def test_run_failed_check_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    # alpha = 1 must blow up by pi/2, but the box ends at x = 1: the
    # dichotomy check cannot certify the strip and the run fails.
    cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(out),
                       alpha=1.0, x_max=1.0)
    rc = cli.main(["run", cfg])
    assert rc == 2
    assert "[FAIL]" in capsys.readouterr().out
    manifest = read_manifest(out)
    assert manifest["pass"] is False
    assert manifest["error"] is None


def test_run_records_runtime_error_in_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    # config-valid, but the dual grid cannot reach the fit window at run time
    cfg = write_config(tmp_path, experiment="legendre", output_dir=str(out),
                       alpha=1.0, r_max=2.0)
    rc = cli.main(["run", cfg])
    assert rc == 2
    manifest = read_manifest(out)
    assert manifest["pass"] is False
    assert manifest["error"].startswith("ValueError:")
    assert "error:" in capsys.readouterr().out
    # verify reports the recorded error instead of recomputing
    assert cli.main(["verify", str(out)]) == 2
    assert "run recorded an error" in capsys.readouterr().out


def test_run_records_overflow_in_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    # sigma^(1/2 - 1/(2 alpha)) = (1e-9)^-49.5 overflows a float
    cfg = write_config(tmp_path, experiment="radial-translator", output_dir=str(out),
                       alpha=0.01, sigma=1e-9)
    assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["pass"] is False
    assert manifest["error"].startswith("OverflowError:")
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("radius", [1.0, 1.001])
def test_normalized_rate_runs_to_the_longest_tau_end(tmp_path, radius):
    # The area-normalized flow has no unstable mode: the default body, and
    # its perturbation on a circle just larger than the unit one, both
    # march to MAX_TAU_END, in about 100 steps per unit of tau, with no
    # floating-point warning, while their physical size falls like e^-tau.
    # So does the bare circle, whose mode 2 is 0, too small to fit a rate.
    body = {"kind": "fourier", "cos": [radius, 0.0, 1e-3]}
    taus, _ = cli.fl.run_normalized(cli.geo.make_circle(radius, m=64),
                                    cli.fl.FlowParams(alpha=1.0, m=64), cli.MAX_TAU_END)
    assert taus[-1] == cli.MAX_TAU_END
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="normalized-rate", output_dir=str(out),
                       m=64, tau_end=cli.MAX_TAU_END, initial_body=body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 0
    assert tables.read_columns(out / "rate.csv")["tau"][-1] == cli.MAX_TAU_END
    solver = read_manifest(out)["solver"]
    assert 5000 < solver["accepted_steps"] < 5200
    assert solver["halved_trials"] == 0
    assert solver["r_min"] == pytest.approx(radius * math.exp(-cli.MAX_TAU_END), rel=0.01)
    assert cli.main(["verify", str(out)]) == 0


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_circle_larger_than_the_unit_one_is_marched_to_tau_end(tmp_path, alpha):
    # A circle just larger than the unit one is seen at unit area, so it
    # neither grows nor blows up: the march reaches MAX_TAU_END with no
    # floating-point warning and no step longer than the unit circle's,
    # while its physical radius falls like e^-tau.  Its mode 2 is 0, so
    # the rate fit alone fails, and the manifest records that error.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="normalized-rate", output_dir=str(out),
                       m=64, alpha=alpha, tau_end=cli.MAX_TAU_END,
                       initial_body={"kind": "circle", "radius": 1.001})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["error"].startswith("ValueError: deltas must be positive")
    assert tables.read_columns(out / "rate.csv")["tau"][-1] == cli.MAX_TAU_END
    solver = manifest["solver"]
    assert solver["halved_trials"] == 0
    assert solver["dt_max"] <= cli.fl.ETD_STEP_SCALE * cli.fl.CFL
    assert solver["r_max"] == pytest.approx(1.001, rel=1e-12)
    assert solver["r_min"] == pytest.approx(1.001 * math.exp(-cli.MAX_TAU_END), rel=0.01)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5])
def test_normalized_rate_fits_the_linearized_rate_to_1e_6(tmp_path, alpha):
    # At its defaults (356 to 358 steps) normalized-rate fits the decay rate
    # 1 - 3 alpha of mode 2 to within 1e-6: the area-normalized flow has no
    # unstable mode 0 whose growth could enter the fitted amplitude.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="normalized-rate", output_dir=str(out), alpha=alpha)
    assert cli.main(["run", cfg]) == 0
    fitted = read_manifest(out)["scalars"]["fitted_rate"]["value"]
    assert abs(fitted - (1.0 - 3.0 * alpha)) <= 1e-6


def test_tiny_body_is_marched_at_unit_size(tmp_path):
    # The default body scaled by 1e-110: its curvature radius to the power
    # -(alpha+1) is 1e330, past the float range, but the march sees the
    # body at unit area and reads the rate 1 - 3 alpha = -5 as well as on
    # the unscaled body.
    for scale in (1.0, 1e-110):
        out = tmp_path / f"run{scale}"
        cfg = write_config(tmp_path, experiment="normalized-rate", output_dir=str(out),
                           m=64, alpha=2.0,
                           initial_body={"kind": "fourier", "cos": [scale, 0.0, 1e-3 * scale]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", cfg]) == 0
        assert abs(read_manifest(out)["scalars"]["fitted_rate"]["value"] + 5.0) <= 1e-6


@pytest.mark.parametrize("body", [{"kind": "circle", "radius": 1e308},
                                  {"kind": "fourier", "cos": [1e308]}])
def test_body_beyond_the_float_range_is_a_usage_error_without_warning(tmp_path, capsys,
                                                                      body):
    # The samples are finite, but their transform overflows.
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(tmp_path / "r"),
                       initial_body=body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 1
    assert "initial_body: support samples are too large to transform" in capsys.readouterr().err


def test_flow_body_whose_area_overflows_ends_in_a_recorded_error(tmp_path):
    # At alpha = 0.1 a circle of radius 1e200 can step, but its area, a
    # column of trace.csv and the stop rule's input, overflows the float
    # range: the run ends at its start row, measured before any step, with
    # the error recorded and no floating-point warning.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), alpha=0.1, m=64,
                       initial_body={"kind": "circle", "radius": 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["error"] == "FloatingPointError: overflow encountered in square"
    assert manifest["solver"]["accepted_steps"] == 0


def test_flow_march_past_max_steps_ends_in_a_recorded_error(tmp_path, monkeypatch):
    # At alpha < 1/3 the steps on an eccentric body fall to the parabolic
    # floor and stay there; this ellipse had not ended after 256,531
    # steps.  The march stops at the cap, here lowered, with the error
    # recorded and the solver's counts kept.
    monkeypatch.setattr(cli.fl, "MAX_STEPS", 2000)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out),
                       alpha=0.17626850072780334, m=128,
                       initial_body={"kind": "ellipse", "a": 0.23843868228834736,
                                     "b": 0.7219814563996415})
    assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["error"].startswith("RuntimeError: flow march took MAX_STEPS = 2000 steps")
    assert manifest["solver"]["accepted_steps"] == 2000
    assert cli.main(["verify", str(out)]) == 2


def test_circle_whose_extinction_time_underflows_is_a_usage_error(tmp_path, capsys):
    # radius^3 / 3 = 3e-331 underflows, and the circle law would divide by
    # it.
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(tmp_path / "r"),
                       alpha=2.0, m=64, initial_body={"kind": "circle", "radius": 1e-110})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: initial_body.radius is too small")
    assert not (tmp_path / "r").exists()


def test_area_defect_beyond_the_float_range_is_a_recorded_error(tmp_path):
    # A circle of radius 1e80 steps by about 1e158; the area stencil's
    # products of such steps overflow.  That must end as a recorded error,
    # with no floating-point warning.  Its t_max stops the march ten steps
    # in, short of its extinction time 5e159, which time cannot resolve.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), m=64, t_max=1e159,
                       initial_body={"kind": "circle", "radius": 1e80})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["error"] == "FloatingPointError: overflow encountered in multiply"
    assert manifest["solver"]["accepted_steps"] > 0


@pytest.mark.parametrize("body, alpha", [
    ({"kind": "circle", "radius": 5e-4}, 1.0),
    ({"kind": "ellipse", "a": 1e-120, "b": 1e-121}, 3.0)])
def test_flow_body_extinct_at_its_start_is_a_usage_error(tmp_path, capsys, body, alpha):
    # Its inradius is below STOP_INRADIUS: the run would take no step and
    # pass every check vacuously.  The ellipse's curvature integral would
    # also overflow.
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(tmp_path / "r"),
                       alpha=alpha, m=64, initial_body=body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: initial_body: its inradius ")
    assert "below STOP_INRADIUS = 0.001" in err[0]
    assert not (tmp_path / "r").exists()


def test_flow_extinct_after_its_first_step_has_no_area_defect(tmp_path):
    # Just above STOP_INRADIUS the first stored row, eight steps in, ends
    # the run, and a trace of two rows has no area identity to check.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), m=64,
                       initial_body={"kind": "circle", "radius": 1.001e-3})
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    assert manifest["scalars"]["area_defect"]["value"] is None
    assert [c["name"] for c in manifest["checks"]] == ["extinct", "extinction-time",
                                                        "circle-law"]
    assert cli.main(["verify", str(out)]) == 0


def test_retired_area_identity_experiment_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="area-identity", output_dir=str(tmp_path / "r"))
    assert cli.main(["run", cfg]) == 1
    assert "field 'experiment' must be one of" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment, fields", [
    ("flow", {"t_max": 1.0}), ("flow", {}), ("normalized-rate", {})])
def test_huge_body_ends_in_a_recorded_overflow(tmp_path, experiment, fields):
    # Time advances at R^(1+alpha) = 1e600 per unit of tau, past the float
    # range, so the march does not start.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment=experiment, output_dir=str(out),
                       initial_body={"kind": "circle", "radius": 1e300}, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    assert read_manifest(out)["error"] == "OverflowError: R^(1+alpha) overflows at R = 1.000e+300"


def test_flow_run_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}.json", experiment="flow",
                           output_dir=str(out), alpha=1.0, m=64, seed=7,
                           initial_body={"kind": "random"})
        assert cli.main(["run", cfg]) == 0
        outs.append(out)
    a = (outs[0] / "trace.csv").read_bytes()
    b = (outs[1] / "trace.csv").read_bytes()
    assert a == b
    solver = read_manifest(outs[0])["solver"]
    assert solver == read_manifest(outs[1])["solver"]
    assert solver["accepted_steps"] > 0
    assert solver["remainder_evals"] == 4 * solver["accepted_steps"]


@pytest.mark.parametrize("entries", [
    {"alpha": 0.6},
    {"alpha": 2.0, "m": 128, "seed": 7, "initial_body": {"kind": "random"}},
    *({"alpha": alpha, "snapshot_every": 1,
       "initial_body": {"kind": "circle", "center": [0.5, -0.3]}} for alpha in (0.6, 2.0)),
])
def test_extinction_time_is_the_one_its_trace_gives(tmp_path, entries):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), **entries)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    trace = tables.read_columns(out / "trace.csv")
    cfg = cli.config_from_dict(manifest["config"])
    # The last row's estimate by the area law, in plain floats.
    t, area, kappa = (float(trace[name][-1]) for name in ("t", "area", "kappa_integral"))
    extinction = manifest["scalars"]["extinction_time"]["value"]
    assert extinction == t + 2.0 * area / ((1.0 + cfg.alpha) * kappa)
    if cfg.initial_body["kind"] != "circle":
        return
    # A circle vanishes at R^(1+alpha)/(1+alpha) wherever it sits, and each
    # stored state keeps the circle's centre as its Steiner point.
    assert extinction == pytest.approx(1.0 / (1.0 + cfg.alpha), rel=1e-10, abs=0.0)
    if cfg.snapshot_every:
        states = tables.read_columns(out / "snapshots.csv")["s"].reshape(-1, cfg.m)
        x, y, _ = cli.geo._steiner(states)
        cx, cy = cfg.initial_body["center"]
        assert len(states) == len(trace["t"])
        assert np.max(np.abs(x - cx)) <= 1e-10 and np.max(np.abs(y - cy)) <= 1e-10


def test_flow_circle_checks_and_snapshots(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out),
                       alpha=1.0, m=64, snapshot_every=10)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    by_name = {c["name"]: c for c in manifest["checks"]}
    assert by_name["extinct"]["value"] is True
    assert by_name["extinction-time"]["value"] <= 1e-4
    assert by_name["circle-law"]["value"] <= 1e-6
    assert math.isclose(manifest["scalars"]["extinction_time"]["value"], 0.5,
                        abs_tol=1e-4)
    # snapshots.csv holds stored states 0, 10, 20, ... and the last, one
    # row per sample, bit for bit as the march stored them.
    assert sorted(os.listdir(out)) == ["manifest.json", "snapshots.csv", "trace.csv"]
    config = cli.config_from_dict(manifest["config"])
    trace = cli.fl.run_to_extinction(cli._build_body(config), cli._flow_params(config))
    n = len(trace.samples)
    rows = sorted(set(range(0, n, 10)) | {n - 1})
    snapshots = tables.read_columns(out / "snapshots.csv")
    assert snapshots["s"].reshape(-1, 64).tobytes() == trace.samples[rows].tobytes()
    assert snapshots["t"][::64].tobytes() == trace.columns["t"][rows].tobytes()
    assert cli.main(["verify", str(out)]) == 0


def test_flow_checks_on_other_bodies_can_fail(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), alpha=1.0, m=64,
                       initial_body={"kind": "ellipse", "a": 1.3, "b": 1.0})
    assert cli.main(["run", cfg]) == 0
    cfg = cli.config_from_dict(read_manifest(out)["config"])
    trace = tables.read_columns(out / "trace.csv")
    times, inradii = trace["t"], trace["inradius"]
    names = ["extinct", "area-identity", "extinction-time", "inscribed-disc-first",
             "circumscribed-disc-last"]
    assert [c["name"] for c in cli._flow_judge(cfg, trace)[1]] == names
    T = cli._flow_judge(cfg, trace)[0]["extinction_time"]
    slack = 2.0 * cli.EXTINCTION_TOL

    def failed(column=None, value=None, keep=None, row=0):
        nudged = {name: (col if keep is None else col[keep]).copy()
                  for name, col in trace.items()}
        if column is not None:
            nudged[column][row] = value
        checks = cli._flow_judge(cfg, nudged)[1]
        return [c["name"] for c in checks if not c["pass"]]

    assert failed() == []
    # Without its last row the trace ends on a row whose estimate has not
    # settled, above the floor: the march would have gone on.
    assert failed(keep=slice(None, -1)) == ["extinct"]
    assert inradii[-2] >= cli.fl.STOP_INRADIUS
    # Late times by the slack give an extinction time late by as much.
    assert failed("t", times + slack, row=slice(None)) == ["extinction-time"]
    # The first area also enters the identity's first difference.
    assert failed("area", 2.0 * math.pi * (T + slack)) == ["area-identity", "extinction-time"]
    assert failed("inradius", math.sqrt(2.0 * (T + slack))) == ["inscribed-disc-first"]
    assert failed("circumradius", math.sqrt(2.0 * (T - slack))) == ["circumscribed-disc-last"]
    # Row 1 is the row one unit of normalized time before the last, which
    # the stop rule reads; row 2 enters the identity alone.
    kappa = trace["kappa_integral"][2] + 2.0 * cli.AREA_IDENTITY_TOL
    assert failed("kappa_integral", kappa, row=2) == ["area-identity"]


@pytest.mark.parametrize("body", [{"kind": "circle"},
                                  {"kind": "ellipse", "a": 1.3, "b": 1.0}])
def test_flow_run_cut_short_by_t_max_passes(tmp_path, body):
    # Only the area identity, and on a circle the circle law against the
    # closed-form T, can be judged on a trace that stops short; it ends at
    # t_max exactly.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), m=64, t_max=0.1,
                       initial_body=body)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    assert manifest["scalars"]["stop_reason"]["value"] == "time_limit"
    assert tables.read_columns(out / "trace.csv")["t"][-1] == 0.1
    checks = ["area-identity"] + (["circle-law"] if body["kind"] == "circle" else [])
    assert [c["name"] for c in manifest["checks"]] == checks


# Runs in a fresh interpreter: the test modules load scipy themselves.
COLD_START = """
import sys
import warnings
import gcsf
from gcsf.cli import main
for config, run_dir in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["run", config]) == 0
    assert main(["verify", run_dir]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "mpmath")))
"""


def test_flow_experiments_load_no_scipy(tmp_path):
    args = []
    for name, entries in [("flow", dict(experiment="flow", alpha=1.0, m=64)),
                          ("rate", dict(experiment="normalized-rate", alpha=1.0, m=64))]:
        out = tmp_path / name
        args += [write_config(tmp_path, f"{name}.json", output_dir=str(out), **entries),
                 str(out)]
    src = os.path.dirname(os.path.dirname(gcsf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", COLD_START, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# -- verify ------------------------------------------------------------------

def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="comparison-ode", output_dir=str(out),
                       alpha=1.0, delta=1e-6)
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "matches manifest" in printed
    assert "MISMATCH" not in printed


ODE_EXPERIMENTS = sorted(name for name, experiment in cli.EXPERIMENTS.items()
                         if experiment.solver is cli.so.OdeStats)


@pytest.mark.parametrize("experiment", ODE_EXPERIMENTS)
def test_a_failed_ode_march_is_a_manifest_error(tmp_path, capsys, monkeypatch, experiment):
    monkeypatch.setattr(cli.so, "MAX_STEPS", 5)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment=experiment, output_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert re.fullmatch(r"RuntimeError: (LSODA failed near r|DOP853 failed past t) = "
                        r"[0-9.e-]+: [^\n]+", manifest["error"])
    assert manifest["pass"] is False
    assert manifest["scalars"] == {} and manifest["checks"] == []
    assert 0 < manifest["solver"]["accepted_steps"] <= 6
    printed = capsys.readouterr()
    assert printed.out.splitlines()[0] == f"error: {manifest['error']}"
    assert printed.err == ""


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_experiment_runs_and_verifies_at_its_defaults(tmp_path, capsys, experiment):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment=experiment, output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    assert list(manifest["scalars"]) == list(cli.EXPERIMENTS[experiment].headline)
    # Every experiment that marches records its solver; log-convexity
    # evaluates a closed form.
    assert (manifest["solver"] is None) == (experiment == "log-convexity")
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("check ")]
    assert len(lines) == len(manifest["checks"])
    assert all(line.endswith("(matches manifest)") for line in lines)


def test_verify_demands_exact_agreement(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="comparison-ode", output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    stored = manifest["checks"][0]
    stored["value"] = math.nextafter(stored["value"], math.inf)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert "MISMATCH" in capsys.readouterr().out


# alpha = 1 with x_max = 1 stops before its strip's edge at pi/2 and fails;
# so does alpha = 0.5000001, whose strip is 2.5e6 wide but whose slope
# reaches SLOPE_SWITCH near x = 7.6.
@pytest.mark.parametrize("alpha,x_max,expected",
                         [(1.0, 20.0, 0), (1.0, 1.0, 2), (0.5, 20.0, 0), (0.4, 5.0, 0),
                          (0.5000001, 20.0, 2)])
def test_verify_agrees_on_translator1d(tmp_path, capsys, alpha, x_max, expected):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(out),
                       alpha=alpha, x_max=x_max)
    assert cli.main(["run", cfg]) == expected
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == expected
    printed = capsys.readouterr().out
    assert "matches manifest" in printed
    assert "MISMATCH" not in printed


def _checks(tmp_path, **entries):
    cfg = cli.config_from_dict(dict(entries, output_dir=str(tmp_path)))
    return {c["name"]: c["pass"] for c in cli.run_config(cfg)["checks"]}


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 2.0, 5.0])
def test_every_strip_is_judged_by_its_beta_half_width(tmp_path, alpha):
    checks = _checks(tmp_path, experiment="translator1d", alpha=alpha)
    assert checks["half-width-beta"] is True
    assert ("half-width-tan" in checks) is (alpha == 1.0)


def test_half_width_beta_catches_an_exponent_one_percent_off(tmp_path, monkeypatch):
    # 0.505/alpha in place of 0.5/alpha in q: at alpha = 0.75 no
    # half-width-tan check applies, and the dichotomy still holds.
    march = so.translator_1d
    monkeypatch.setattr(so, "translator_1d",
                        lambda alpha, x_max, stats=None: march(alpha / 1.01, x_max, stats))
    checks = _checks(tmp_path, experiment="translator1d", alpha=0.75)
    assert checks == {"dichotomy": True, "half-width-beta": False}


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_blowdown_reads_each_sup_at_its_own_node(tmp_path, alpha):
    scales = [10.0, 100.0, 1000.0, 10000.0]
    assert all(_checks(tmp_path, experiment="blowdown", alpha=alpha, scales=scales).values())
    profile = tables.read_columns(tmp_path / "profile.csv")
    sups = tables.read_columns(tmp_path / "blowdown.csv")["sup_dist"]
    for h, sup in zip(scales, sups):
        at = np.flatnonzero(profile["r"] == h ** (1.0 / (1.0 + alpha)))
        assert at.size == 1
        assert sup == abs(profile["u"][at[0]] / h - 1.0 / (1.0 + alpha))


def test_verify_detects_tampered_csv(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    path = out / "margins.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "-1.0"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def _keep_columns(path, n):
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[:n]) + "\r\n" for line in lines))


def _rename_columns(path, header):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\r\n" for line in [header, *lines[1:]]))


def _keep_rows(path, n):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\r\n" for line in lines[:n + 1]))


def _rewrite_manifest(out, change):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


# A damaged run directory: the run's config, the damage, verify's exit code
# and the one line it prints, on stdout for exit 2 and on stderr for exit 1.
# trace.csv had six columns before kappa_integral joined them.
DAMAGED_RUNS = {
    "six-column-trace": (
        dict(experiment="flow", m=64), lambda out: _keep_columns(out / "trace.csv", 6), 2,
        "cannot recompute the checks: ValueError: {out}/trace.csv has no column "
        "'kappa_integral'"),
    "trace-missing": (
        dict(experiment="flow", m=64), lambda out: (out / "trace.csv").unlink(), 2,
        "cannot recompute the checks: FileNotFoundError: [Errno 2] No such file or directory: "
        "'{out}/trace.csv'"),
    "header-only-trace": (
        dict(experiment="flow", m=64), lambda out: _keep_rows(out / "trace.csv", 0), 2,
        "cannot recompute the checks: ValueError: {out}/trace.csv has no data rows"),
    "trace-is-a-directory": (
        dict(experiment="flow", m=64),
        lambda out: ((out / "trace.csv").unlink(), (out / "trace.csv").mkdir()), 2,
        "cannot recompute the checks: IsADirectoryError: [Errno 21] Is a directory: "
        "'{out}/trace.csv'"),
    "one-row-profile": (
        dict(experiment="radial-translator", r_max=2.0),
        lambda out: _keep_rows(out / "profile.csv", 1), 2,
        "cannot recompute the checks: ValueError: r grid must increase strictly from 0"),
    "three-column-dual": (
        dict(experiment="legendre", p_lo=20.0, p_hi=40.0),
        lambda out: _keep_columns(out / "dual.csv", 3), 2,
        "cannot recompute the checks: ValueError: {out}/dual.csv has no column 'd2u_star'"),
    "renamed-ode-column": (
        dict(experiment="comparison-ode"),
        lambda out: _rename_columns(out / "ode.csv", "t,rho,slope"), 2,
        "cannot recompute the checks: ValueError: {out}/ode.csv has no column 'drho'"),
    "manifest-not-json": (
        dict(experiment="log-convexity"), lambda out: (out / "manifest.json").write_text("{["), 1,
        "error: manifest '{out}/manifest.json' is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "manifest-not-utf8": (
        dict(experiment="log-convexity"),
        lambda out: (out / "manifest.json").write_bytes(b"\xff{}"), 1,
        "error: manifest '{out}/manifest.json' is not valid JSON: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "manifest-without-config": (
        dict(experiment="log-convexity"),
        lambda out: _rewrite_manifest(out, lambda manifest: manifest.pop("config")), 1,
        "error: manifest '{out}/manifest.json' holds no config object"),
    "manifest-checks-not-a-list": (
        dict(experiment="log-convexity"),
        lambda out: _rewrite_manifest(out, lambda manifest: manifest.update(checks="x")), 1,
        "error: manifest '{out}/manifest.json' holds no list of named checks"),
    "manifest-scalar-not-an-object": (
        dict(experiment="log-convexity"),
        lambda out: _rewrite_manifest(out, lambda manifest: manifest["scalars"].update(
            margin=1.0)), 1,
        "error: manifest '{out}/manifest.json' holds no object of scalar entries"),
}


@pytest.mark.parametrize("damage", DAMAGED_RUNS)
def test_verify_of_a_damaged_run_directory_is_one_line(tmp_path, capsys, damage):
    entries, spoil, code, line = DAMAGED_RUNS[damage]
    out = tmp_path / "run"
    cfg = write_config(tmp_path, output_dir=str(out), **entries)
    assert cli.main(["run", cfg]) == 0
    spoil(out)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(out)]) == code
    printed = capsys.readouterr()
    reporting, other = (printed.out, printed.err) if code == 2 else (printed.err, printed.out)
    assert reporting.splitlines() == [line.format(out=out)]
    assert other == ""


def test_verify_fails_an_entire_profile_cut_short(tmp_path, capsys):
    # At alpha <= 1/2 nothing blows up, so stored rows that stop short of
    # x_max (here at x = 3.8 of 20) cannot show the profile is entire.
    # Above 1/2, rows cut before the slope reached SLOPE_SWITCH (here at
    # x = 1.89, slope 18.4) cannot show that it blew up.
    for alpha, rows in [(0.4, 19), (0.75, 43)]:
        out = tmp_path / f"run{alpha}"
        cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(out),
                           alpha=alpha)
        assert cli.main(["run", cfg]) == 0
        _keep_rows(out / "profile1d.csv", rows)
        capsys.readouterr()
        assert cli.main(["verify", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "check dichotomy: False [FAIL] (MISMATCH with manifest)" in printed
        assert "scalar slope_end: " in printed


# Every experiment on a small grid or a short march.
SMALL_RUNS = {"flow": {"m": 64}, "normalized-rate": {"m": 64}, "translator1d": {},
              "radial-translator": {"r_max": 5.0}, "blowdown": {"scales": [10.0, 100.0]},
              "legendre": {"p_lo": 20.0, "p_hi": 40.0}, "comparison-ode": {},
              "log-convexity": {"n_points": 101}}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A fresh copy, under a test's tmp_path, of the run directory of an
    experiment at SMALL_RUNS; each experiment runs once per module."""
    base = tmp_path_factory.mktemp("small")

    def copy(tmp_path, experiment):
        done = base / experiment
        if not done.exists():
            cfg = write_config(base, f"{experiment}.json", experiment=experiment,
                               output_dir=str(done), **SMALL_RUNS[experiment])
            assert cli.main(["run", cfg]) == 0
        return shutil.copytree(done, tmp_path / "run")
    return copy


def _edited(value):
    if isinstance(value, str):
        return "extinct" if value == "convexity_lost" else "convexity_lost"
    return 1.001 * value if value else 1.0


@pytest.mark.parametrize("experiment, scalar", [
    (name, scalar) for name, experiment in sorted(cli.EXPERIMENTS.items())
    for scalar in experiment.headline])
def test_verify_rejudges_the_headline_numbers(tmp_path, capsys, small_run, experiment, scalar):
    # verify derives every headline number from the artifacts alone, so an
    # edit of any one in the manifest is a mismatch of that one alone.
    out = small_run(tmp_path, experiment)
    value = read_manifest(out)["scalars"][scalar]["value"]
    _rewrite_manifest(out, lambda manifest: manifest["scalars"][scalar].update(
        value=_edited(value)))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == [
        f"scalar {scalar}: {value!r} (MISMATCH with manifest)"]


@pytest.mark.parametrize("spoil", [
    lambda scalars: scalars.update(bogus={"value": 1.0, "source": "trace.csv"}),
    lambda scalars: scalars.pop("stop_reason")], ids=["added", "dropped"])
def test_verify_compares_the_scalar_names(tmp_path, capsys, small_run, spoil):
    out = small_run(tmp_path, "flow")
    _rewrite_manifest(out, lambda manifest: spoil(manifest["scalars"]))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert "MISMATCH: stored and recomputed scalar lists differ" in capsys.readouterr().out


@pytest.mark.parametrize("field, edited", [
    ("value", 1e-9), ("bound", 1e-30), ("op", "ge"), ("pass", False), (None, False)],
    ids=["value", "bound", "op", "pass", "run-pass"])
def test_verify_compares_each_check_whole_and_the_run_pass(tmp_path, capsys, small_run,
                                                           field, edited):
    # An edit of any field of a check record is a mismatch of that check
    # alone, and an edit of the run's pass flag a mismatch of that flag.
    out = small_run(tmp_path, "radial-translator")
    checks = read_manifest(out)["checks"]
    index = [c["name"] for c in checks].index("operator-residual")
    if field is None:
        _rewrite_manifest(out, lambda manifest: manifest.update({"pass": edited}))
        expected = "pass: True (MISMATCH with manifest)"
    else:
        _rewrite_manifest(out, lambda manifest: manifest["checks"][index].update(
            {field: edited}))
        expected = f"check {cli.describe(checks[index])} (MISMATCH with manifest)"
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == [expected]


@pytest.mark.parametrize("entries, reason", [
    ({}, "extinct"),
    ({"initial_body": {"kind": "ellipse", "a": 1.3, "b": 1.0}}, "extinct"),
    ({"t_max": 0.1}, "time_limit"),
    ({"initial_body": {"kind": "circle", "radius": 1e5}}, "convexity_lost"),
    ({"initial_body": {"kind": "circle", "radius": 1e5}}, "extinct")])
def test_flow_judge_reads_the_stop_reason_the_march_recorded(tmp_path, monkeypatch, entries,
                                                             reason):
    # The judge reads why the march stopped off trace.csv's last row; on
    # real marches it must agree with FlowTrace.stop_reason.  The circle of
    # radius 1e5 goes extinct once its estimate settles; under a rule that
    # never settles it stops where its step no longer advances t, short of
    # the floor.  Each body is set after the config is resolved.
    if reason == "convexity_lost":
        monkeypatch.setattr(cli.fl, "STOP_TOL", -1.0)
    cfg = cli.config_from_dict(dict(experiment="flow", output_dir=str(tmp_path), m=64,
                                    t_max=entries.get("t_max")))
    vars(cfg).update(entries)
    trace = cli.fl.run_to_extinction(cli._build_body(cfg), cli._flow_params(cfg),
                                     t_max=cfg.t_max)
    assert trace.stop_reason.value == reason
    cli.tables.write_columns(tmp_path / "trace.csv", trace.columns)
    judged, _ = cli._flow_judge(cfg, tables.read_columns(tmp_path / "trace.csv"))
    assert judged["stop_reason"] == reason


def test_verify_needs_manifest(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path)]) == 1
    assert "no manifest.json" in capsys.readouterr().err


def _accepts(raw) -> bool:
    try:
        cli.config_from_dict(raw)
    except cli.UsageError:
        return False
    return True


@pytest.mark.parametrize("delta", [1.0, 1e-6])
def test_comparison_ode_horizon_is_capped_where_the_slope_overflows(tmp_path, capsys, delta):
    # The slope grows like delta e^E(t), E(t) = (10 alpha/(alpha+1))
    # t^((alpha+1)/alpha).  The longest horizon that validates runs with no
    # warning; the next float up is a usage error, exit 1 in one line.
    raw = dict(experiment="comparison-ode", output_dir=str(tmp_path / "r"),
               alpha=0.2, delta=delta)
    lo, hi = 1.0, 3.0
    assert _accepts(dict(raw, t_max=lo)) and not _accepts(dict(raw, t_max=hi))
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _accepts(dict(raw, t_max=mid)) else (lo, mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_config(tmp_path, **dict(raw, t_max=lo))]) == 0
        capsys.readouterr()
        assert cli.main(["run", write_config(tmp_path, **dict(raw, t_max=hi))]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: field 't_max' is too long")


def test_comparison_ode_at_small_alpha_is_a_usage_error(tmp_path, capsys):
    # At alpha = 0.2 the default t_max = 3 takes E(t) to 1215.
    cfg = write_config(tmp_path, experiment="comparison-ode", output_dir=str(tmp_path / "r"),
                       alpha=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "r").exists()


# -- seeded fuzz of whole runs ----------------------------------------------

class _Draw:
    """Seeded draws of config values."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def log_uniform(self, lo, hi):
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def integer(self, lo, hi):
        return int(self.rng.integers(lo, hi + 1))

    def pick(self, *options):
        return options[self.rng.integers(len(options))]


def _fuzz_body(d):
    return d.pick({"kind": "circle", "radius": d.log_uniform(0.05, 2.0),
                   "center": [d.uniform(-1.0, 1.0), d.uniform(-1.0, 1.0)]},
                  {"kind": "ellipse", "a": d.log_uniform(0.2, 1.0), "b": d.log_uniform(0.2, 1.0)},
                  {"kind": "fourier", "cos": [1.0, d.uniform(-0.2, 0.2), d.uniform(-0.1, 0.1)],
                   "sin": [0.0, d.uniform(-0.1, 0.1)]},
                  {"kind": "random"})


# Fields of each experiment on small grids and short horizons, drawn wide
# enough that some configs fail validation and some runs fail their checks.
FUZZ_FIELDS = {
    "flow": lambda d: dict(alpha=d.log_uniform(0.1, 4.0), m=d.pick(64, 128),
                           seed=d.integer(0, 99), initial_body=_fuzz_body(d),
                           t_max=d.pick(None, d.uniform(0.0, 0.3)),
                           snapshot_every=d.integer(0, 3)),
    "normalized-rate": lambda d: dict(alpha=d.log_uniform(0.1, 4.0), m=d.pick(64, 128),
                                      mode=d.integer(1, 4), eps=d.uniform(-0.05, 0.05),
                                      tau_end=d.uniform(0.0, 4.0),
                                      fit_window=[d.uniform(0.0, 2.0), d.uniform(1.0, 4.0)]),
    "translator1d": lambda d: dict(alpha=d.log_uniform(0.2, 3.0), x_max=d.uniform(-1.0, 25.0)),
    "radial-translator": lambda d: dict(alpha=d.log_uniform(0.3, 3.0),
                                        sigma=d.uniform(0.01, 1.0),
                                        r_max=d.log_uniform(0.01, 30.0)),
    "blowdown": lambda d: dict(alpha=d.log_uniform(0.3, 3.0), sigma=d.uniform(0.01, 1.0),
                               scales=sorted(d.log_uniform(1.0, 1e3)
                                             for _ in range(d.integer(1, 4)))),
    "legendre": lambda d: dict(alpha=d.log_uniform(0.6, 3.0), sigma=d.uniform(0.01, 1.0),
                               p_lo=d.uniform(0.5, 5.0), p_hi=d.uniform(1.0, 15.0)),
    "comparison-ode": lambda d: dict(alpha=d.log_uniform(0.1, 4.0),
                                     delta=d.log_uniform(1e-10, 10.0),
                                     t_max=d.uniform(0.1, 6.0)),
    "log-convexity": lambda d: dict(alpha=d.log_uniform(0.1, 4.0),
                                    radius=d.log_uniform(0.1, 10.0),
                                    n_points=d.integer(2, 500)),
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_validated_config_ends_as_a_manifest(tmp_path, experiment):
    # Seeded configs: each one that validates must run to a manifest and
    # exit 0 or 2, with no traceback and no warning of any kind.
    validated = 0
    for seed in range(8):
        out = tmp_path / f"run{seed}"
        raw = dict(FUZZ_FIELDS[experiment](_Draw(seed)), experiment=experiment,
                   output_dir=str(out))
        if not _accepts(raw):
            continue
        validated += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", write_config(tmp_path, **raw)])
        assert code in (0, 2), raw
        assert read_manifest(out)["pass"] is (code == 0), raw
    assert validated >= 4

# -- sweep -------------------------------------------------------------------

def test_sweep_shows_the_dichotomy_flip(tmp_path):
    base = tmp_path / "sweep"
    cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(base))
    rc = cli.main(["sweep", cfg, "--param", "alpha", "--values", "0.4,0.6"])
    assert rc == 0
    rows = read_summary(base)
    assert rows[0] == ["alpha", "pass", "error", "half_width", "slope_end",
                       "run_dir"]
    by_alpha = {row[0]: row for row in rows[1:]}
    assert by_alpha["0.4"][1] == "true"
    assert by_alpha["0.4"][3] == ""  # entire profile: no half-width
    assert by_alpha["0.6"][1] == "true"
    assert float(by_alpha["0.6"][3]) > 0.0
    assert (base / "alpha=0.4" / "manifest.json").exists()
    assert (base / "alpha=0.6" / "manifest.json").exists()


def test_sweep_captures_per_value_failures(tmp_path):
    base = tmp_path / "sweep"
    cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(base))
    rc = cli.main(["sweep", cfg, "--param", "alpha", "--values", "1,-1"])
    assert rc == 2
    rows = {row[0]: row for row in read_summary(base)[1:]}
    assert rows["1"][1] == "true" and rows["1"][2] == ""
    assert rows["-1"][1] == "false"
    assert "alpha" in rows["-1"][2]


def test_sweep_with_no_values_writes_header_only(tmp_path):
    base = tmp_path / "sweep"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(base))
    assert cli.main(["sweep", cfg, "--param", "radius", "--values", ""]) == 0
    rows = read_summary(base)
    assert len(rows) == 1
    assert rows[0][0] == "radius"


def test_sweep_rejects_repeated_values(tmp_path, capsys):
    # Both runs would write one alpha=1 directory, at once under two workers.
    base = tmp_path / "s"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(base))
    assert cli.main(["sweep", cfg, "--param=alpha", "--values=1,2,1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sweep value 1 repeats: it would write alpha=1 twice"]
    assert not base.exists()


def test_sweep_rejects_unsweepable_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="log-convexity",
                       output_dir=str(tmp_path / "s"))
    assert cli.main(["sweep", cfg, "--param", "output_dir",
                     "--values", "a,b"]) == 1
    assert "cannot be swept" in capsys.readouterr().err
    assert cli.main(["sweep", cfg, "--param", "bogus", "--values", "1"]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_parallel_sweep_matches_serial(tmp_path, monkeypatch):
    results = {}
    for label, threads in (("serial", "1"), ("parallel", "2")):
        base = tmp_path / label
        cfg = write_config(tmp_path, name=f"{label}.json",
                           experiment="log-convexity", output_dir=str(base))
        monkeypatch.setenv("GCSF_THREADS", threads)
        assert cli.main(["sweep", cfg, "--param", "alpha",
                         "--values", "0.7,1,2"]) == 0
        results[label] = (base / "summary.csv").read_bytes()
    assert results["serial"] == results["parallel"]


def test_parallel_rate_sweep_matches_serial(tmp_path, monkeypatch):
    # A sweep that marches: each worker's normalized-rate runs write the
    # same summary and rate tables as the serial runs, byte for byte.
    results = {}
    for label, threads in (("serial", "1"), ("parallel", "2")):
        base = tmp_path / label
        cfg = write_config(tmp_path, name=f"{label}.json", experiment="normalized-rate",
                           output_dir=str(base), m=64, tau_end=1.5, fit_window=[1.0, 1.5])
        monkeypatch.setenv("GCSF_THREADS", threads)
        assert cli.main(["sweep", cfg, "--param", "alpha", "--values", "0.6,1,2"]) == 0
        results[label] = [(base / "summary.csv").read_bytes()] + [
            (base / f"alpha={value}" / "rate.csv").read_bytes() for value in ("0.6", "1", "2")]
    assert results["serial"] == results["parallel"]


def test_thread_cap_must_be_a_positive_integer(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, experiment="log-convexity",
                       output_dir=str(tmp_path / "s"))
    monkeypatch.setenv("GCSF_THREADS", "zero")
    assert cli.main(["sweep", cfg, "--param", "alpha", "--values", "1"]) == 1
    assert "GCSF_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("cores, values, expected", [
    (3, "0.7,1,2,3", [3]),   # capped by the cores
    (8, "0.7,1", [2]),       # capped by the values
    (None, "0.7,1", []),     # unknown core count: serial
])
def test_sweep_worker_count_is_clamped(tmp_path, monkeypatch, cores, values, expected):
    sizes = []

    class RecordingPool:
        """Records max_workers and runs the sweep in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("GCSF_THREADS", "1000")
    cfg = write_config(tmp_path, experiment="log-convexity",
                       output_dir=str(tmp_path / "s"))
    assert cli.main(["sweep", cfg, "--param", "alpha", "--values", values]) == 0
    assert sizes == expected
    assert len(read_summary(tmp_path / "s")) == 1 + len(values.split(","))


# -- usage errors ------------------------------------------------------------

@pytest.mark.parametrize("n_points", [1, cli.MAX_POINTS + 1])
def test_log_convexity_grid_is_capped_at_config_time(n_points):
    raw = {"experiment": "log-convexity", "output_dir": "out"}
    assert cli.config_from_dict(dict(raw, n_points=cli.MAX_POINTS)).n_points == cli.MAX_POINTS
    with pytest.raises(cli.UsageError, match="n_points"):
        cli.config_from_dict(dict(raw, n_points=n_points))


@pytest.mark.parametrize("tau_end", [-1e-9, cli.MAX_TAU_END * (1.0 + 1e-15), 1e9])
def test_tau_end_is_capped_at_config_time(tmp_path, capsys, tau_end):
    # The rate window must start before tau_end, so the edges take one
    # that starts below 0.
    raw = {"experiment": "normalized-rate", "output_dir": "out", "fit_window": [-1.0, 1.0]}
    for edge in (0.0, cli.MAX_TAU_END):
        assert cli.config_from_dict(dict(raw, tau_end=edge)).tau_end == edge
    cfg = write_config(tmp_path, experiment="normalized-rate",
                       output_dir=str(tmp_path / "r"), tau_end=tau_end)
    assert cli.main(["run", cfg]) == 1
    assert "field 'tau_end'" in capsys.readouterr().err
    assert not (tmp_path / "r" / "manifest.json").exists()


@pytest.mark.parametrize("raw", [
    {"experiment": "radial-translator", "r_max": cli.MAX_R_MAX + 1.0},
    {"experiment": "blowdown", "scales": [10.0, 1e12]},
    {"experiment": "legendre", "alpha": 0.1},
])
def test_r_max_is_capped_at_config_time(raw):
    # Each is an r_max, given or derived, past the cap: legendre's default
    # (1.15 p_hi)^(1/alpha) is 4e20 at alpha = 0.1.
    with pytest.raises(cli.UsageError, match="r_max"):
        cli.config_from_dict(dict(raw, output_dir="out"))


@pytest.mark.parametrize("raw", [{"alpha": 0.3}, {"p_hi": 1e6}])
def test_a_derived_field_that_fails_its_rule_says_it_was_derived(tmp_path, capsys, raw):
    # legendre's r_max defaults to max(6, (1.15 p_hi)^(1/alpha)); the
    # config never set it, and the one error line says where it came from.
    cfg = write_config(tmp_path, experiment="legendre", output_dir=str(tmp_path / "r"), **raw)
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: field 'r_max' must be a finite number in (1e-3, 20000], "
                             "but its default from the other fields is ")
    cfg = write_config(tmp_path, experiment="legendre", output_dir=str(tmp_path / "r"),
                       r_max=1e6)
    assert cli.main(["run", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: field 'r_max' must be a finite number in (1e-3, 20000]\n")


@pytest.mark.parametrize("raw, field", [
    ({"experiment": "blowdown", "scales": [1e-9, 10]}, "scales"),
    ({"experiment": "blowdown", "scales": [1e-6, 10]}, "scales"),
    ({"experiment": "translator1d", "x_max": 0}, "x_max"),
    ({"experiment": "translator1d", "x_max": -1}, "x_max"),
    ({"experiment": "normalized-rate", "tau_end": 0.5}, "fit_window"),
    ({"experiment": "normalized-rate", "tau_end": 1.0}, "fit_window"),
    ({"experiment": "normalized-rate", "m": 64, "mode": 40}, "mode"),
    ({"experiment": "normalized-rate", "tau_end": 1.02}, "fit_window"),
    ({"experiment": "log-convexity", "radius": 1e-200}, "radius"),
    ({"experiment": "log-convexity", "radius": 1e200}, "radius"),
    ({"experiment": "log-convexity", "radius": 1e100, "alpha": 2.0}, "radius"),
])
def test_configs_the_run_would_reject_are_usage_errors(tmp_path, capsys, raw, field):
    # A blow-down radius h^(1/(1+alpha)) at or inside the series radius, a
    # 1-D box of no width, a rate window that starts at or after the end of
    # the march, a mode past the grid's highest harmonic and a log-convexity
    # radius whose grid leaves the float range, below or above, each fail
    # at config time, not in the run.  A rate window that holds fewer steps
    # than the fit needs (3 of them by tau_end = 1.02) fails once the march
    # has shown it, before anything is written.
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "r"), **raw)
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: field '{field}' ")
    assert not (tmp_path / "r" / "manifest.json").exists()


@pytest.mark.parametrize("raw", [
    {"experiment": "blowdown", "scales": [1e-6 * (1.0 + 1e-9), 10]},
    {"experiment": "translator1d", "x_max": 1e-300},
    {"experiment": "normalized-rate", "tau_end": 1.0 + 1e-15},
    {"experiment": "normalized-rate", "m": 64, "mode": 32, "eps": 1e-4},
])
def test_configs_just_inside_the_new_rules_validate(raw):
    cli.config_from_dict(dict(raw, output_dir="out"))


@pytest.mark.parametrize("alpha", [0.01, 1.0, 4.0, 100.0])
def test_log_convexity_radius_at_the_edge_of_its_rule_runs_clean(tmp_path, alpha):
    # Below the rule's edge the grid's -u squared underflows or its radial
    # eigenvalue overflows; at the edge it runs with no warning and passes.
    raw = {"experiment": "log-convexity", "output_dir": str(tmp_path / "r"), "alpha": alpha}
    lo, hi = 1e-300, 1.0
    assert not _accepts(dict(raw, radius=lo)) and _accepts(dict(raw, radius=hi))
    while math.nextafter(lo, hi) < hi:
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi))) if hi > 2.0 * lo else 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _accepts(dict(raw, radius=mid)) else (mid, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_config(tmp_path, **dict(raw, radius=hi))]) == 0


@pytest.mark.parametrize("alpha", [0.01, 1.0, 4.0, 100.0])
def test_log_convexity_radius_at_the_top_of_its_rule_runs_clean(tmp_path, alpha):
    # Above the rule's top the grid's -u squared or phi_rr's numerator
    # overflows; at the top it runs with no warning and passes.
    raw = {"experiment": "log-convexity", "output_dir": str(tmp_path / "r"), "alpha": alpha}
    lo, hi = 1.0, 1e300
    assert _accepts(dict(raw, radius=lo)) and not _accepts(dict(raw, radius=hi))
    while math.nextafter(lo, hi) < hi:
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi))) if hi > 2.0 * lo else 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _accepts(dict(raw, radius=mid)) else (lo, mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_config(tmp_path, **dict(raw, radius=lo))]) == 0


# Circles whose steps near extinction fall below half the float spacing of
# t, so that t + dt == t before the inradius reaches the floor; the last
# stalls although its bound on the last step lies just above that spacing.
UNRESOLVED_FLOWS = [
    {"alpha": 4.0},
    {"alpha": 2.0, "initial_body": {"kind": "circle", "radius": 100.0}},
    {"alpha": 3.0, "initial_body": {"kind": "circle", "radius": 10.0}},
    {"alpha": 2.0, "t_max": 4e5, "initial_body": {"kind": "circle", "radius": 100.0}},
    {"alpha": 1.847, "initial_body": {"kind": "circle", "radius": 144.25}},
]


@pytest.mark.parametrize("entries", UNRESOLVED_FLOWS)
def test_flow_whose_last_steps_time_cannot_resolve_goes_extinct(tmp_path, capsys, entries):
    # Each stops once its estimate of T has settled, long before its steps
    # stall, at radius^(1+alpha)/(1+alpha) to 1e-7 relative, and verify
    # agrees.  The absolute extinction-time bound, 1e-4, may still fail
    # where T is large, with exit 2.
    out = tmp_path / "r"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), m=64, **entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", cfg])
    manifest = read_manifest(out)
    assert code in (0, 2) and manifest["error"] is None
    assert manifest["scalars"]["stop_reason"]["value"] == "extinct"
    radius = entries.get("initial_body", {}).get("radius", 1.0)
    expected = cli.fl.disc_extinction_time(radius, entries["alpha"])
    assert manifest["scalars"]["extinction_time"]["value"] == pytest.approx(expected, rel=1e-7)
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == code
    assert "MISMATCH" not in capsys.readouterr().out


@pytest.mark.parametrize("entries, reason", [
    ({"alpha": 3.5}, "extinct"),
    ({"alpha": 2.0, "initial_body": {"kind": "circle", "radius": 30.0}}, "extinct"),
    ({"alpha": 1.0, "initial_body": {"kind": "circle", "radius": 1e4}}, "extinct"),
    # The ellipse goes extinct at T = 0.022, after its inscribed disc
    # (0.00625) and before its circumscribed one, the unit circle (0.2).
    ({"alpha": 4.0, "initial_body": {"kind": "ellipse", "a": 1.0, "b": 0.5}}, "extinct"),
    # Stopped before extinction, at 0.9 of it.
    ({"alpha": 2.0, "t_max": 3e5, "initial_body": {"kind": "circle", "radius": 100.0}},
     "time_limit"),
])
def test_flow_that_time_resolves_validates_and_reaches_its_end(entries, reason):
    cfg = cli.config_from_dict(dict(experiment="flow", output_dir="out", m=64, **entries))
    trace = cli.fl.run_to_extinction(cli._build_body(cfg), cli._flow_params(cfg),
                                     t_max=cfg.t_max)
    assert trace.stop_reason.value == reason


@pytest.mark.parametrize("raw", [
    {"experiment": "radial-translator", "r_max": cli.MAX_R_MAX},
    {"experiment": "legendre", "alpha": 0.51},
])
def test_r_max_up_to_the_cap_is_accepted(raw):
    assert cli.config_from_dict(dict(raw, output_dir="out")).r_max <= cli.MAX_R_MAX


@pytest.mark.parametrize("entries", [
    {"experiment": "translator1d", "alpha": 0.4, "x_max": math.inf},
    {"experiment": "radial-translator", "r_max": math.inf},
    {"experiment": "translator1d", "x_max": math.nan},
    {"experiment": "normalized-rate", "fit_window": [1.0, math.inf]},
    {"experiment": "blowdown", "scales": [10.0, math.nan]},
])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, entries):
    # json.dumps writes Infinity and NaN, which json.load reads back.
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "r"), **entries)
    assert cli.main(["run", cfg]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r" / "manifest.json").exists()


@pytest.mark.parametrize("experiment, knob", [
    *(pytest.param("radial-translator", knob, id=knob) for knob in ("keep_every", "step_size")),
    *((experiment, knob) for experiment in ("flow", "normalized-rate")
      for knob in ("cfl", "stop_inradius", "store_every")),
])
def test_removed_solver_knobs_are_unknown_fields(tmp_path, capsys, experiment, knob):
    cfg = write_config(tmp_path, experiment=experiment,
                       output_dir=str(tmp_path / "r"), **{knob: 1})
    assert cli.main(["run", cfg]) == 1
    assert f"unknown config field '{knob}'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment, knob", [
    ("flow", "sigma"), ("radial-translator", "m"), ("translator1d", "initial_body"),
    ("log-convexity", "store_every"), ("blowdown", "h"),
    ("normalized-rate", "snapshot_every"),
])
def test_fields_of_other_experiments_are_unknown(tmp_path, capsys, experiment, knob):
    entries = dict(experiment=experiment, output_dir=str(tmp_path / "r"))
    message = f"unknown config field '{knob}'"
    with_knob = write_config(tmp_path, "knob.json", **entries, **{knob: 1})
    assert cli.main(["run", with_knob]) == 1
    assert message in capsys.readouterr().err
    clean = write_config(tmp_path, **entries)
    assert cli.main(["sweep", clean, f"--param={knob}", "--values=1,2"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_override_of_another_experiments_field_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(tmp_path / "r"))
    assert cli.main(["run", cfg, "--sigma=1"]) == 1
    assert "unknown config field 'sigma'" in capsys.readouterr().err


def test_manifest_echoes_only_the_fields_read(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="translator1d", output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    assert read_manifest(out)["config"] == {
        "experiment": "translator1d", "output_dir": str(out), "alpha": 1.0, "x_max": 20.0}


@pytest.mark.parametrize("body", [
    {"kind": "circle", "radius": "abc"},
    {"kind": "circle", "center": [None, 0.0]},
    {"kind": "fourier", "cos": ["x"]},
    {"kind": "ellipse", "a": 1.0, "b": 10**400},
    {"kind": "random", "radius": 1.0},
    {"kind": ["circle"]},
])
def test_malformed_initial_body_is_a_usage_error(tmp_path, capsys, body):
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(tmp_path / "r"),
                       initial_body=body)
    assert cli.main(["run", cfg]) == 1
    assert "initial_body" in capsys.readouterr().err


# The scalars weight edge values on purpose: integers beyond the float
# range, non-finite floats and body kinds.
SCALARS = (st.sampled_from([10**400, -(10**400), math.inf, math.nan, 0, -1, 1e308])
           | st.sampled_from(["circle", "ellipse", "fourier", "random"])
           | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
BODY_FIELDS = {"circle": ["radius", "center"], "ellipse": ["a", "b"],
               "fourier": ["cos", "sin"], "random": []}
BODY_VALUES = SCALARS | st.lists(SCALARS, max_size=3)
# A body of one kind with that kind's fields, or any object over all the keys.
BODIES = st.sampled_from(sorted(BODY_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional=dict.fromkeys(BODY_FIELDS[kind], BODY_VALUES))
) | st.dictionaries(st.sampled_from(["kind", *sum(BODY_FIELDS.values(), [])]),
                    JSON_VALUES, max_size=4)


@st.composite
def raw_configs(draw):
    name = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    fields = cli.EXPERIMENTS[name].fields
    raw = {"experiment": name, "output_dir": "out"}
    if "initial_body" in fields and draw(st.integers(0, 3)) > 0:
        # Most drawn fields are invalid and stop validation before the body
        # is built, so bodies mostly get draws of their own.
        return dict(raw, initial_body=draw(BODIES))
    keys = sorted(fields) + ["experiment", "output_dir"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=5, unique=True)):
        raw[key] = draw(BODIES if key == "initial_body" else JSON_VALUES)
    return raw


@settings(max_examples=400)
@given(raw=raw_configs())
@example(raw={"experiment": "flow", "output_dir": "out",
              "initial_body": {"kind": "circle", "radius": 1e308}})
@example(raw={"experiment": "flow", "output_dir": "out", "alpha": 2.0,
              "initial_body": {"kind": "circle", "radius": 1e-110}})
def test_config_from_dict_raises_only_usage_errors(raw):
    try:
        cfg = cli.config_from_dict(raw)
    except cli.UsageError:
        return
    assert set(vars(cfg)) == set(cli.EXPERIMENTS[raw["experiment"]].fields) | {
        "experiment", "output_dir"}


def test_unknown_config_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="log-convexity",
                       output_dir=str(tmp_path / "r"), bogus=1)
    assert cli.main(["run", cfg]) == 1
    assert "unknown config field 'bogus'" in capsys.readouterr().err


def test_unknown_experiment_lists_choices(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="nope",
                       output_dir=str(tmp_path / "r"))
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "'experiment' must be one of" in err and "log-convexity" in err


def test_missing_required_field(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="log-convexity")
    assert cli.main(["run", cfg]) == 1
    assert "output_dir" in capsys.readouterr().err


def test_malformed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="log-convexity",
                       output_dir=str(tmp_path / "r"))
    assert cli.main(["run", cfg, "alpha=2"]) == 1
    assert "--key=value" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--bogus=2"]) == 1
    assert "unknown config field 'bogus'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_nonconvex_initial_body_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="normalized-rate",
                       output_dir=str(tmp_path / "r"), eps=0.5)
    assert cli.main(["run", cfg]) == 1
    assert "initial_body" in capsys.readouterr().err


def test_verify_rejects_extra_arguments(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="log-convexity", output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    assert cli.main(["verify", str(out), "--alpha=2"]) == 1
    assert "unexpected argument" in capsys.readouterr().err
