"""The gcsf benchmark: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

gcsf is loaded from ``src/`` next to this directory.  Each pass of a
workload runs in a fresh interpreter (perfbench/worker.py) with its own
work directory under ``.perfbench-work/``, removed afterwards, and every
output is judged by the benchmark's own oracles (perfbench/oracles.py).

--trace 0 repeats untraced passes for S seconds (at least two) and reports
the end-to-end metrics: median pass wall time, median set-up time and
median peak resident set.  --trace 1 alternates untraced and traced passes
(at least two of each) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exact counts (snapshots,
march nodes, RHS evaluations, artifact bytes) must repeat in every pass,
each a separate process, or the run is marked incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

MIN_PASSES = 2
SETUP_SAMPLES = 5
# A run must end within 180 s; no pass starts that would likely end later
# than this many seconds after the run began.
BUDGET_S = 150.0
PASS_TIMEOUT_S = 160.0

# Exact counts checked in every untraced pass.
ARTIFACT_COUNTS = ("flow.snapshots", "solitons.march.nodes", "cli.artifact_bytes",
                   "cli.artifact_files")


@dataclass
class Pass:
    traced: bool
    ready_s: float
    wall_s: float
    peak_rss_mb: float
    failures: list[list[str]]  # per operation; empty when it passed
    # Exact counts from the artifacts, plus the layer metrics of a traced pass.
    counts: dict[str, float] = field(default_factory=dict)
    busy_s: float = 0.0
    sweep_wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for found in self.failures if found)


def child_env(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["GCSF_THREADS"] = str(workloads.THREADS[workload])
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(spec: dict, work: Path, env: dict) -> tuple[float, dict | None, str]:
    """Run worker.py on spec; return (set-up seconds, result or None, stderr).

    Set-up ends when the worker prints ``ready``.  The worker leads its own
    process group, so a timeout also stops any pool it started.
    """
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return math.nan, None, f"pass timed out after {PASS_TIMEOUT_S} s\n{err}"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        return ready, None, f"worker exited {proc.returncode}\n{err}"
    return ready, json.loads(Path(spec["result"]).read_text()), err


def artifact_counts(runs: Path) -> dict[str, float]:
    """Exact counts from the files under the run directories.

    Manifests count as files but not as bytes: they record a wall time.
    Snapshots are the data rows of trace.csv and rate.csv; march nodes
    those of the profile and ODE CSVs.
    """
    counts = dict.fromkeys(ARTIFACT_COUNTS, 0)
    for path in sorted(runs.rglob("*")):
        if not path.is_file():
            continue
        counts["cli.artifact_files"] += 1
        if path.name == "manifest.json":
            continue
        counts["cli.artifact_bytes"] += path.stat().st_size
        rows = path.read_bytes().count(b"\n") - 1
        if path.name in ("trace.csv", "rate.csv"):
            counts["flow.snapshots"] += rows
        elif path.name in ("profile.csv", "profile1d.csv", "ode.csv"):
            counts["solitons.march.nodes"] += rows
    return counts


def judge(op: workloads.Op, codes: list[int]) -> list[str]:
    """The operation's failures; an output the oracle cannot read is one."""
    try:
        return op.judge(codes)
    except Exception:
        return [f"oracle could not judge the output:\n{traceback.format_exc()}"]


def run_pass(workload: str, seed: int, env: dict, traced: bool = False,
             calls: bool = True) -> Pass:
    """One pass in a fresh worker; with calls=False only set-up runs."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        plan = workloads.PLANS[workload](work, seed)
        spec = {
            "validate": plan.validate,
            "calls": plan.calls if calls else [],
            "result": str(work / "result.json"),
            "trace_dir": str(work / "spans") if traced else None,
            "pool_workers": workloads.POOL_WORKERS[workload],
        }
        ready, result, err = spawn(spec, work, env)
        if result is None:
            message = err.strip().splitlines()[-1:] or ["worker failed"]
            print(f"FAIL {workload}: {err.strip()}", file=sys.stderr)
            return Pass(traced, math.nan, math.nan, math.nan,
                        [message for _ in plan.ops] if calls else [])
        if not calls:
            return Pass(traced, ready, result["wall_s"], result["peak_rss_mb"], [])
        failures = [judge(op, result["codes"]) for op in plan.ops]
        for op, found in zip(plan.ops, failures):
            for message in found:
                print(f"FAIL {workload} {op.name}: {message}", file=sys.stderr)
        done = Pass(traced, ready, result["wall_s"], result["peak_rss_mb"], failures,
                    artifact_counts(work / "runs"))
        if plan.sweep_call is not None:
            done.sweep_wall_s = result["call_wall_s"][plan.sweep_call]
            for run_dir in plan.run_dirs:
                manifest = json.loads((run_dir / "manifest.json").read_text())
                done.busy_s += manifest["wall_time_s"]
        if traced:
            done.counts.update(layers.layer_metrics(tracer.Spans(work / "spans"),
                                                    workloads.GRID))
        return done
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repeat(step, seconds: float, minimum: int, deadline: float) -> list:
    """Call step() until `seconds` have passed and it ran `minimum` times;
    stop early rather than pass the deadline."""
    started = time.perf_counter()
    results = []
    longest = 0.0
    while True:
        now = time.perf_counter()
        if len(results) >= minimum and (now - started >= seconds
                                        or now + 1.3 * longest > deadline):
            return results
        results.extend(step())
        longest = max(longest, time.perf_counter() - now)


def finite(values) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def median(values) -> float:
    values = finite(values)
    return statistics.median(values) if values else 0.0


def describe_timing(name: str, unit: str, values: list[float]) -> str:
    """Median plus the highest percentile that has ten samples beyond it."""
    values = finite(values)
    n = len(values)
    if n == 0:
        return f"{name}: no successful samples"
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        q = 100 * (n - 10) // n
        cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        text += f", p{q} {cut:.6g} {unit}"
    else:
        text += f", max {max(values):.6g} {unit} (n < 11: no percentile has ten samples beyond it)"
    return text + f"; n={n}"


def measure(workload: str, seed: int, seconds: int, env: dict,
            deadline: float) -> tuple[list[Pass], dict]:
    run_pass(workload, seed, env, calls=False)  # fills bytecode caches; not reported
    passes = repeat(lambda: [run_pass(workload, seed, env)], seconds, MIN_PASSES, deadline)
    setup = [p.ready_s for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_pass(workload, seed, env, calls=False).ready_s)
    walls = [p.wall_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    print(describe_timing("wall_s", "s", walls))
    print(describe_timing("setup_s", "s", setup))
    print(f"peak_rss_mb: median {median(rss):.6g} MB; n={len(finite(rss))}")
    return passes, {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": median(rss), "unit": "MB"},
    }


def measure_traced(workload: str, seed: int, seconds: int, env: dict,
                   deadline: float) -> tuple[list[Pass], dict]:
    passes = repeat(lambda: [run_pass(workload, seed, env),
                             run_pass(workload, seed, env, traced=True)],
                    seconds, 2 * MIN_PASSES, deadline)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced and p.counts]
    values = {}
    for key in layers.UNITS:
        samples = [p.counts[key] for p in traced if key in p.counts]
        if samples:
            values[key] = samples[0] if key in layers.EXACT else median(samples)
    for key in ("cli.artifact_bytes", "cli.artifact_files"):
        values[key] = next((p.counts[key] for p in plain if key in p.counts), 0)
    workers = workloads.POOL_WORKERS[workload]
    busy = median(p.busy_s for p in plain)
    values["cli.sweep.worker_busy_s"] = busy
    values["cli.sweep.efficiency"] = (
        busy / (workers * median(p.sweep_wall_s for p in plain)) if workers else 0.0)
    values["trace.overhead_ratio"] = (
        median(p.wall_s for p in traced) / median(p.wall_s for p in plain) - 1.0)
    metrics = {}
    for name, unit in layers.UNITS.items():
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    return passes, metrics


def unsteady_counts(passes: list[Pass]) -> list[str]:
    """Exact counts that differ between passes (each in its own process)."""
    out = []
    for key in dict.fromkeys(ARTIFACT_COUNTS + layers.EXACT):
        seen = {p.counts[key] for p in passes if key in p.counts}
        if len(seen) > 1:
            out.append(f"{key} differs between passes: {sorted(seen)}")
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (SRC / "gcsf" / "__init__.py").read_text())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gcsf": version.group(1) if version else "unknown",
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    started = time.perf_counter()
    if not (SRC / "gcsf" / "cli.py").is_file():
        print(f"error: no gcsf sources under {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts()))
    env = child_env(args.workload)
    measure_fn = measure_traced if args.trace else measure
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        passes, metrics = measure_fn(args.workload, args.seed, args.seconds, env,
                                     started + BUDGET_S)
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)

    attempted = sum(len(p.failures) for p in passes)
    failed = sum(p.failed for p in passes)
    unsteady = unsteady_counts(passes)
    for message in unsteady:
        print(f"UNSTEADY: {message}", file=sys.stderr)
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g} (unit 1)")
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
