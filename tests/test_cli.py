import csv
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import gcsf
from gcsf import cli


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


def test_collapsed_rescaled_flow_ends_with_its_counts_recorded(tmp_path):
    # The circle is an unstable state of the rescaled flow: roundoff in
    # mode 0 grows like e^(2 tau) until the body collapses near tau = 6.7.
    # The march must stop once its smallest curvature radius has fallen
    # below STOP_INRADIUS times the starting one (1 - 3 eps), with no
    # floating-point warning, and the manifest must keep the counts of the
    # steps it took.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="normalized-rate", output_dir=str(out),
                       m=64, tau_end=1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    manifest = read_manifest(out)
    assert manifest["error"].startswith("ConvexityLostError: body collapsed")
    assert 0 < manifest["solver"]["accepted_steps"] < 2000
    assert manifest["solver"]["halved_trials"] == 0
    assert 0.0 < manifest["solver"]["r_min"] < cli.fl.STOP_INRADIUS * (1.0 - 3e-3)


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
])
def test_extinction_time_is_the_one_its_trace_gives(tmp_path, entries):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), **entries)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    trace = cli._StoredColumns(str(out))["trace.csv"]
    params = cli._flow_params(cli.config_from_dict(manifest["config"]))
    assert manifest["scalars"]["extinction_time"]["value"] == \
        cli.fl.extrapolate_extinction(trace[0], trace[3], params)


def test_flow_circle_checks_and_snapshots(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out),
                       alpha=1.0, m=64, snapshot_every=100)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    by_name = {c["name"]: c for c in manifest["checks"]}
    assert by_name["extinct"]["value"] is True
    assert by_name["extinction-time"]["value"] <= 1e-4
    assert by_name["circle-law"]["value"] <= 1e-6
    assert math.isclose(manifest["scalars"]["extinction_time"]["value"], 0.5,
                        abs_tol=1e-4)
    assert (out / "snapshots" / "000000.json").exists()


def test_flow_checks_on_other_bodies_can_fail(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), alpha=1.0, m=64,
                       initial_body={"kind": "ellipse", "a": 1.3, "b": 1.0})
    assert cli.main(["run", cfg]) == 0
    cfg = cli.config_from_dict(read_manifest(out)["config"])
    trace = cli._StoredColumns(str(out))["trace.csv"]
    times, inradii = trace[0], trace[3]
    names = ["extinct", "extinction-time", "inscribed-disc-first", "circumscribed-disc-last"]
    assert [c.name for c in cli._flow_checks(cfg, {"trace.csv": trace})] == names
    T = cli.fl.extrapolate_extinction(times, inradii, cli._flow_params(cfg))
    slack = 2.0 * cli.EXTINCTION_TOL

    def failed(row=None, value=None, keep=None):
        nudged = trace.copy() if keep is None else trace[:, keep]
        if row is not None:
            nudged[row, 0] = value
        checks = cli._flow_checks(cfg, {"trace.csv": nudged})
        return [c.name for c in checks if not c.passed]

    assert failed() == []
    assert failed(keep=inradii >= cli.fl.STOP_INRADIUS) == ["extinct"]
    assert failed(1, 2.0 * math.pi * (T + slack)) == ["extinction-time"]
    assert failed(3, math.sqrt(2.0 * (T + slack))) == ["inscribed-disc-first"]
    assert failed(4, math.sqrt(2.0 * (T - slack))) == ["circumscribed-disc-last"]


@pytest.mark.parametrize("body", [{"kind": "circle"},
                                  {"kind": "ellipse", "a": 1.3, "b": 1.0}])
def test_flow_run_cut_short_by_t_max_passes(tmp_path, body):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment="flow", output_dir=str(out), m=64, t_max=0.1,
                       initial_body=body)
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    assert manifest["scalars"]["stop_reason"]["value"] == "time_limit"
    assert manifest["checks"] == []


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


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_experiment_runs_and_verifies_at_its_defaults(tmp_path, capsys, experiment):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, experiment=experiment, output_dir=str(out))
    assert cli.main(["run", cfg]) == 0
    manifest = read_manifest(out)
    assert list(manifest["scalars"]) == list(cli.EXPERIMENTS[experiment].headline)
    flows = ("flow", "normalized-rate", "area-identity")
    assert (manifest["solver"] is not None) == (experiment in flows)
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


# alpha = 1 with x_max = 1 stops before its strip's edge at pi/2 and fails.
@pytest.mark.parametrize("alpha,x_max,expected",
                         [(1.0, 20.0, 0), (1.0, 1.0, 2), (0.5, 20.0, 0), (0.4, 5.0, 0)])
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


def test_verify_needs_manifest(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path)]) == 1
    assert "no manifest.json" in capsys.readouterr().err


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
    *((experiment, knob) for experiment in ("flow", "normalized-rate", "area-identity")
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
    ("area-identity", "snapshot_every"),
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
