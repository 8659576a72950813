"""The benchmark's workloads: the gcsf CLI calls of one pass and their oracles.

A pass is every experiment of a workload, each run through ``gcsf run``
(or ``gcsf sweep``) and then ``gcsf verify``.  An operation is one
experiment; it fails on a run error, a failed manifest check, a verify
mismatch or a failed oracle.

Configs set only fields the roadmap keeps (never keep_every, cfl,
step_size, or sigma on flow experiments), so planned deletions of those
knobs do not break the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

GRID = 256
SWEEP_ALPHAS = ("0.6", "1", "1.5")
BLOWDOWN_SCALES = (10.0, 100.0, 1000.0, 10000.0)
COMPARISON_DELTA = 1e-8

# GCSF_THREADS per workload, set explicitly on every pass.  Only the sweep
# starts a pool, of min(GCSF_THREADS, number of values) workers: one per
# core on a two-core machine.
THREADS = {"flow-extinction": 1, "sweep-rescaled": 2, "translator-march": 1}
POOL_WORKERS = {"flow-extinction": 0, "sweep-rescaled": min(2, len(SWEEP_ALPHAS)),
                "translator-march": 0}


def draw_fourier_body(seed: int) -> tuple[list[float], list[float]]:
    """Seeded body near the unit circle: a_k, b_k uniform in +-0.3/k^3, k = 2..8.

    A draw is kept only when sum (k^2 - 1)(|a_k| + |b_k|) < a_0, which makes
    h'' + h > 0 everywhere, so the body is convex by construction.
    """
    rng = np.random.default_rng(seed)
    a0 = 1.0
    while True:
        a = {}
        b = {}
        for k in range(2, 9):
            bound = 0.3 / k**3
            a[k] = float(rng.uniform(-bound, bound))
            b[k] = float(rng.uniform(-bound, bound))
        if sum((k * k - 1) * (abs(a[k]) + abs(b[k])) for k in a) < a0:
            break
    cos_coeffs = [a0, 0.0] + [a[k] for k in range(2, 9)]
    sin_coeffs = [0.0] + [b[k] for k in range(2, 9)]
    return cos_coeffs, sin_coeffs


@dataclass
class Op:
    """One experiment: which calls belong to it and how its output is judged."""

    name: str
    judge: Callable[[list[int]], list[str]]


@dataclass
class Plan:
    """One pass of a workload laid out under a work directory."""

    calls: list[list[str]] = field(default_factory=list)
    validate: list[dict] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    run_dirs: list[Path] = field(default_factory=list)
    sweep_call: int | None = None


def _write_config(work: Path, name: str, config: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def _load_manifest(run_dir: Path) -> tuple[dict | None, list[str]]:
    path = run_dir / "manifest.json"
    if not path.is_file():
        return None, [f"{run_dir.name}: no manifest"]
    manifest = json.loads(path.read_text())
    failures = []
    if manifest.get("error"):
        failures.append(f"{run_dir.name}: run error {manifest['error']}")
    if not manifest.get("pass"):
        failures.append(f"{run_dir.name}: manifest check failed")
    return manifest, failures


def _columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _exit_failures(label: str, codes: list[int], indices) -> list[str]:
    return [f"{label}: call {i} exited {codes[i]}" for i in indices if codes[i] != 0]


def _run_and_verify(plan: Plan, work: Path, name: str, config: dict,
                    oracle: Callable[[dict, Path], list[str]]) -> None:
    """Append `gcsf run` and `gcsf verify` of one experiment and its judge."""
    out = work / "runs" / name
    config = dict(config, output_dir=str(out))
    path = _write_config(work, name, config)
    plan.validate.append(config)
    run_idx = len(plan.calls)
    plan.calls.append(["run", str(path)])
    plan.calls.append(["verify", str(out)])
    plan.run_dirs.append(out)

    def judge(codes: list[int]) -> list[str]:
        failures = _exit_failures(name, codes, (run_idx, run_idx + 1))
        manifest, manifest_failures = _load_manifest(out)
        failures += manifest_failures
        if manifest is not None and not manifest.get("error"):
            failures += [f"{name}: {msg}" for msg in oracle(manifest, out)]
        return failures

    plan.ops.append(Op(name, judge))


def _scalar(manifest: dict, name: str):
    return manifest["scalars"][name]["value"]


def _hermite_oracle(manifest: dict, out: Path) -> list[str]:
    data = _columns(out / "profile.csv")
    return oracles.check_hermite(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def plan_flow_extinction(work: Path, seed: int) -> Plan:
    plan = Plan()
    cos_coeffs, sin_coeffs = draw_fourier_body(seed)
    area0 = oracles.fourier_area(cos_coeffs, sin_coeffs)
    config = {"experiment": "flow", "alpha": 1.0, "m": GRID,
              "initial_body": {"kind": "fourier", "cos": cos_coeffs, "sin": sin_coeffs}}

    def oracle(manifest: dict, out: Path) -> list[str]:
        return oracles.check_extinction(_scalar(manifest, "extinction_time"),
                                        _scalar(manifest, "stop_reason"), area0)

    _run_and_verify(plan, work, "flow", config, oracle)
    return plan


def plan_sweep_rescaled(work: Path, seed: int) -> Plan:
    plan = Plan()
    base = work / "runs" / "sweep"
    config = {"experiment": "normalized-rate", "output_dir": str(base)}
    path = _write_config(work, "sweep", config)
    plan.sweep_call = 0
    plan.calls.append(["sweep", str(path), "--param=alpha",
                       f"--values={','.join(SWEEP_ALPHAS)}"])
    for text in SWEEP_ALPHAS:
        label = f"alpha={text}"
        plan.validate.append(dict(config, alpha=float(text), output_dir=str(base / label)))
        plan.run_dirs.append(base / label)
        verify_idx = len(plan.calls)
        plan.calls.append(["verify", str(base / label)])
        plan.ops.append(Op(label, _sweep_judge(base, text, verify_idx)))
    return plan


def _sweep_judge(base: Path, text: str, verify_idx: int):
    label = f"alpha={text}"
    alpha = float(text)

    def judge(codes: list[int]) -> list[str]:
        failures = _exit_failures(label, codes, (verify_idx,))
        if codes[0] not in (0, 2):
            failures.append(f"sweep exited {codes[0]}")
        summary = base / "summary.csv"
        rows = {}
        if summary.is_file():
            with open(summary, newline="") as f:
                rows = {row["run_dir"]: row for row in csv.DictReader(f)}
        row = rows.get(label)
        if row is None:
            return failures + [f"{label}: no summary row"]
        if row["pass"] != "true" or row["error"]:
            failures.append(f"{label}: summary row failed ({row['error']})")
        manifest, manifest_failures = _load_manifest(base / label)
        failures += manifest_failures
        if row["fitted_rate"]:
            failures += oracles.check_decay_rate(alpha, float(row["fitted_rate"]))
        else:
            failures.append(f"{label}: no fitted rate")
        if manifest is not None and not manifest.get("error"):
            data = _columns(base / label / "rate.csv")
            window = manifest["config"]["fit_window"]
            own = oracles.log_slope(data[:, 0], data[:, 1], window)
            failures += [f"{label} (own fit): {msg}"
                         for msg in oracles.check_decay_rate(alpha, own)]
        return failures

    return judge


def plan_translator_march(work: Path, seed: int) -> Plan:
    plan = Plan()
    _run_and_verify(plan, work, "radial", {"experiment": "radial-translator",
                                           "alpha": 2.0, "r_max": 40.0}, _hermite_oracle)

    def legendre_oracle(manifest: dict, out: Path) -> list[str]:
        return (_hermite_oracle(manifest, out)
                + oracles.check_dual_fit(1.0, _scalar(manifest, "exponent"),
                                         _scalar(manifest, "coefficient")))

    _run_and_verify(plan, work, "legendre", {"experiment": "legendre", "alpha": 1.0},
                    legendre_oracle)

    def blowdown_oracle(manifest: dict, out: Path) -> list[str]:
        profile = _columns(out / "profile.csv")
        reported = _columns(out / "blowdown.csv")
        own = oracles.blow_down_distances(profile[:, 0], profile[:, 1], 1.5,
                                          BLOWDOWN_SCALES)
        return (_hermite_oracle(manifest, out)
                + oracles.check_blowdown(own, list(reported[:, 1])))

    _run_and_verify(plan, work, "blowdown",
                    {"experiment": "blowdown", "alpha": 1.5,
                     "scales": list(BLOWDOWN_SCALES)}, blowdown_oracle)

    alpha = 2.0
    t_max = 1.0 + 0.8 * (-math.log(COMPARISON_DELTA)) ** (alpha / (1.0 + alpha))

    def ode_oracle(manifest: dict, out: Path) -> list[str]:
        data = _columns(out / "ode.csv")
        return oracles.check_comparison(alpha, COMPARISON_DELTA, data[:, 0], data[:, 2])

    _run_and_verify(plan, work, "comparison-ode",
                    {"experiment": "comparison-ode", "alpha": alpha,
                     "delta": COMPARISON_DELTA, "t_max": t_max}, ode_oracle)

    def tan_oracle(manifest: dict, out: Path) -> list[str]:
        return oracles.check_half_width(_scalar(manifest, "half_width"))

    def sinh_oracle(manifest: dict, out: Path) -> list[str]:
        data = _columns(out / "profile1d.csv")
        return oracles.check_sinh(data[:, 0], data[:, 2], _scalar(manifest, "half_width"))

    _run_and_verify(plan, work, "translator1d-1",
                    {"experiment": "translator1d", "alpha": 1.0}, tan_oracle)
    _run_and_verify(plan, work, "translator1d-0.5",
                    {"experiment": "translator1d", "alpha": 0.5}, sinh_oracle)
    return plan


PLANS = {
    "flow-extinction": plan_flow_extinction,
    "sweep-rescaled": plan_sweep_rescaled,
    "translator-march": plan_translator_march,
}
