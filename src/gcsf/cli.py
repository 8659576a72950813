"""Batch laboratory driving the flow and soliton experiments from JSON configs.

Subcommands: run executes one experiment and archives its outputs under one
directory; sweep repeats a base config across the values of one parameter,
one directory per value plus a summary CSV; verify recomputes a finished
run's pass/fail decisions from its stored CSVs alone.  Every run writes a
manifest.json naming each headline number and the file it came from; CSVs
are written in full round-trip precision, so identical config and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from gcsf import __version__, tables
from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import solitons as so
from gcsf.geometry import ConvexityLostError, PlanePoint, SupportFunction

EXPERIMENTS = (
    "flow",
    "normalized-rate",
    "translator1d",
    "radial-translator",
    "blowdown",
    "legendre",
    "comparison-ode",
    "log-convexity",
    "area-identity",
)

# Declared tolerances of the experiments' built-in checks.  verify applies
# the same table, so a manifest's decisions can always be reproduced.
EXTINCTION_TOL = 1e-4
CIRCLE_LAW_TOL = 1e-6
RATE_TOL = 0.05
HALF_WIDTH_TOL = 1e-6
SINH_TOL = 1e-8
RESIDUAL_TOL = 1e-8
INCREMENT_TOL = 1e-6
GROWTH_FACTOR = 1.1
DUAL_EXPONENT_TOL = 0.01
DUAL_COEFFICIENT_TOL = 0.02
ODE_AGREEMENT_TOL = 1e-8
LOG_CONVEXITY_FLOOR = -1e-10
AREA_IDENTITY_TOL = 1e-6


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 1."""


@dataclass(frozen=True)
class Check:
    """One declared pass/fail decision of a run."""

    name: str
    value: float | bool
    bound: float | None
    op: str  # "le", "ge", or "true"

    def __post_init__(self) -> None:
        # numpy scalars serialize with their type name; normalize early.
        value = self.value
        if isinstance(value, (bool, np.bool_)):
            object.__setattr__(self, "value", bool(value))
        elif isinstance(value, (int, float)):
            object.__setattr__(self, "value", float(value))

    @property
    def passed(self) -> bool:
        if self.op == "true":
            return self.value is True
        if self.op == "le":
            return bool(self.value <= self.bound)
        if self.op == "ge":
            return bool(self.value >= self.bound)
        raise ValueError(f"unknown check op {self.op!r}")

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "op": self.op, "pass": self.passed}

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        if self.op == "true":
            return f"{self.name}: {self.value} [{verdict}]"
        rel = {"le": "<=", "ge": ">="}[self.op]
        return f"{self.name}: {self.value!r} {rel} {self.bound!r} [{verdict}]"


@dataclass
class ExperimentConfig:
    """Flat union of every experiment's knobs; JSON maps onto it directly.

    None defaults are resolved per experiment after loading, so the echoed
    config in the manifest always shows the effective values.
    """

    experiment: str
    output_dir: str
    seed: int = 0
    alpha: float = 1.0
    sigma: float | None = None
    m: int = 256
    cfl: float = 0.2
    stop_inradius: float = 1e-3
    initial_body: dict | None = None
    t_max: float | None = None
    store_every: int | None = None
    snapshot_every: int = 0
    mode: int = 2
    eps: float = 1e-3
    tau_end: float = 3.5
    fit_window: list = field(default_factory=lambda: [1.0, 3.0])
    x_max: float = 20.0
    r_max: float | None = None
    h: float | None = None
    scales: list = field(default_factory=lambda: [10.0, 100.0, 1000.0, 10000.0])
    p_lo: float = 50.0
    p_hi: float = 100.0
    delta: float = 1e-6
    radius: float = 1.0
    n_points: int = 2001


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}

_FLOW_FAMILY = {"flow", "normalized-rate", "area-identity"}
_RADIAL_FAMILY = {"radial-translator", "blowdown", "legendre"}


def _is_num(x) -> bool:
    """A finite JSON number; JSON's Infinity and NaN parse but are rejected."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config, resolving per-experiment defaults."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    for key in raw:
        _require(key in _CONFIG_FIELDS, f"unknown config field '{key}'")
    for key in ("experiment", "output_dir"):
        _require(key in raw, f"config field '{key}' is required")
    cfg = ExperimentConfig(**raw)
    _require(cfg.experiment in EXPERIMENTS,
             f"field 'experiment' must be one of {', '.join(EXPERIMENTS)}; "
             f"got {cfg.experiment!r}")
    _require(isinstance(cfg.output_dir, str) and cfg.output_dir != "",
             "field 'output_dir' must be a non-empty path")

    for name in ("alpha", "cfl", "stop_inradius", "eps", "tau_end", "x_max",
                 "p_lo", "p_hi", "delta", "radius"):
        _require(_is_num(getattr(cfg, name)), f"field '{name}' must be a finite number")
    for name in ("seed", "m", "snapshot_every", "mode", "n_points"):
        _require(_is_int(getattr(cfg, name)), f"field '{name}' must be an integer")
    _require(cfg.store_every is None or _is_int(cfg.store_every),
             "field 'store_every' must be an integer")
    for name in ("sigma", "t_max", "r_max", "h"):
        value = getattr(cfg, name)
        _require(value is None or _is_num(value),
                 f"field '{name}' must be a finite number")
    _require(cfg.seed >= 0, "field 'seed' must be nonnegative")
    _require(cfg.alpha > 0.0, "field 'alpha' must be positive")
    _require(isinstance(cfg.fit_window, (list, tuple)) and len(cfg.fit_window) == 2
             and all(_is_num(v) for v in cfg.fit_window)
             and cfg.fit_window[0] < cfg.fit_window[1],
             "field 'fit_window' must be a finite [lo, hi] pair with lo < hi")
    _require(isinstance(cfg.scales, (list, tuple)) and len(cfg.scales) > 0
             and all(_is_num(v) and v > 0 for v in cfg.scales),
             "field 'scales' must be a non-empty list of positive finite numbers")
    _require(cfg.initial_body is None or isinstance(cfg.initial_body, dict),
             "field 'initial_body' must be an object")

    cfg = _resolve_defaults(cfg)
    _require(cfg.store_every >= 1, "field 'store_every' must be >= 1")

    if cfg.experiment in _FLOW_FAMILY:
        try:
            _flow_params(cfg)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _build_body(cfg)  # validates initial_body early
    if cfg.experiment == "normalized-rate":
        _require(cfg.mode >= 1, "field 'mode' must be >= 1 for normalized-rate")
    if cfg.experiment in _RADIAL_FAMILY:
        _require(cfg.sigma is not None and 0.0 < cfg.sigma <= 1.0,
                 "field 'sigma' must lie in (0, 1] for translator experiments")
        _require(cfg.r_max > 1e-3, "field 'r_max' must exceed 1e-3")
    if cfg.experiment == "blowdown":
        _require(all(a < b for a, b in zip(cfg.scales, cfg.scales[1:])),
                 "field 'scales' must increase strictly")
        needed = max(cfg.scales) ** (1.0 / (1.0 + cfg.alpha))
        _require(cfg.r_max >= needed,
                 f"field 'r_max' must reach the largest rescaling, >= {needed:.6g}")
    if cfg.experiment == "legendre":
        _require(0.0 < cfg.p_lo < cfg.p_hi,
                 "fields 'p_lo' and 'p_hi' must satisfy 0 < p_lo < p_hi")
    if cfg.experiment == "comparison-ode":
        _require(cfg.delta > 0.0, "field 'delta' must be positive")
        _require(cfg.t_max > 0.0, "field 't_max' must be positive")
    if cfg.experiment == "log-convexity":
        _require(cfg.radius > 0.0, "field 'radius' must be positive")
        _require(cfg.n_points >= 2, "field 'n_points' must be >= 2")
    return cfg


def _resolve_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    updates: dict = {}
    if cfg.sigma is None:
        updates["sigma"] = 1.0 if cfg.experiment in _RADIAL_FAMILY else 0.0
    if cfg.store_every is None:
        # The rescaled flow takes a few hundred ETD steps; its rate fit
        # wants every one of them.
        updates["store_every"] = 1 if cfg.experiment == "normalized-rate" else 8
    if cfg.experiment == "comparison-ode" and cfg.t_max is None:
        updates["t_max"] = 3.0
    if cfg.experiment == "blowdown" and cfg.h is not None:
        _require(cfg.h > 0.0, "field 'h' must be positive")
        updates["scales"] = [cfg.h]
    if cfg.r_max is None:
        scales = updates.get("scales", cfg.scales)
        if cfg.experiment == "radial-translator":
            updates["r_max"] = 20.0
        elif cfg.experiment == "blowdown":
            updates["r_max"] = 1.02 * max(scales) ** (1.0 / (1.0 + cfg.alpha))
        elif cfg.experiment == "legendre":
            updates["r_max"] = max(6.0, (1.15 * cfg.p_hi) ** (1.0 / cfg.alpha))
    if cfg.initial_body is None:
        if cfg.experiment == "normalized-rate":
            coeffs = [1.0] + [0.0] * max(cfg.mode - 1, 0)
            coeffs.append(cfg.eps)
            updates["initial_body"] = {"kind": "fourier", "cos": coeffs}
        elif cfg.experiment == "area-identity":
            updates["initial_body"] = {"kind": "ellipse", "a": 1.3, "b": 1.0}
        else:
            updates["initial_body"] = {"kind": "circle", "radius": 1.0,
                                       "center": [0.0, 0.0]}
    return replace(cfg, **updates) if updates else cfg


def _flow_params(cfg: ExperimentConfig) -> fl.FlowParams:
    return fl.FlowParams(alpha=cfg.alpha, sigma=cfg.sigma, cfl=cfg.cfl,
                         stop_inradius=cfg.stop_inradius, m=cfg.m)


def _build_body(cfg: ExperimentConfig) -> SupportFunction:
    desc = cfg.initial_body
    kind = desc.get("kind")
    try:
        if kind == "circle":
            center = desc.get("center", [0.0, 0.0])
            _require(isinstance(center, (list, tuple)) and len(center) == 2,
                     "initial_body.center must be an [x, y] pair")
            return geo.make_circle(desc.get("radius", 1.0),
                                   PlanePoint(float(center[0]), float(center[1])),
                                   m=cfg.m)
        if kind == "ellipse":
            for name in ("a", "b"):
                _require(_is_num(desc.get(name)),
                         f"initial_body.{name} must be a finite number")
            return geo.make_ellipse(desc["a"], desc["b"], m=cfg.m)
        if kind == "fourier":
            cos_coeffs = desc.get("cos", [])
            sin_coeffs = desc.get("sin", [])
            _require(isinstance(cos_coeffs, (list, tuple))
                     and isinstance(sin_coeffs, (list, tuple)),
                     "initial_body.cos and .sin must be coefficient lists")
            return geo.make_fourier_body(cos_coeffs, sin_coeffs, m=cfg.m)
        if kind == "random":
            rng = np.random.default_rng(cfg.seed)
            return geo.random_convex_body(rng, m=cfg.m)
    except (ValueError, ConvexityLostError) as exc:
        raise UsageError(f"initial_body: {exc}") from exc
    raise UsageError("initial_body.kind must be one of circle, ellipse, "
                     f"fourier, random; got {kind!r}")


# -- shared check builders (the run and verify paths both call these) -------

def _flow_checks(cfg: ExperimentConfig, times, inradii, extinction) -> list[Check]:
    body = cfg.initial_body
    if body.get("kind") != "circle":
        return []
    radius = float(body.get("radius", 1.0))
    a1 = 1.0 + cfg.alpha
    expected = radius**a1 / a1
    extinct = bool(inradii[-1] < cfg.stop_inradius)
    checks = [Check("extinct", extinct, None, "true")]
    if extinct and extinction is not None:
        checks.append(Check("extinction-time", abs(float(extinction) - expected),
                            EXTINCTION_TOL, "le"))
        mask = times <= 0.9 * expected
        law = (radius**a1 - a1 * times[mask]) ** (1.0 / a1)
        rel = float(np.max(np.abs(inradii[mask] - law) / law))
        checks.append(Check("circle-law", rel, CIRCLE_LAW_TOL, "le"))
    return checks


def _rate_checks(cfg: ExperimentConfig, fitted_rate: float) -> list[Check]:
    expected = fl.linearized_mode_rate(cfg.alpha, cfg.mode)
    tol = RATE_TOL * max(abs(expected), 1.0)
    return [Check("decay-rate", abs(fitted_rate - expected), tol, "le")]


def _translator_checks(cfg: ExperimentConfig, x, dv, half_width) -> list[Check]:
    blew_up = half_width is not None
    checks = [Check("dichotomy", blew_up == (cfg.alpha > 0.5), None, "true")]
    if cfg.alpha == 1.0 and blew_up:
        checks.append(Check("half-width-tan", abs(half_width - math.pi / 2.0),
                            HALF_WIDTH_TOL, "le"))
    if cfg.alpha == 0.5:
        # Compare on [0, 5] only: the march is accurate in relative terms,
        # and sinh reaches 2e8 by x = 20, which no absolute bound survives.
        window = x <= 5.0
        err = float(np.max(np.abs(dv[window] - np.sinh(x[window]))))
        checks.append(Check("slope-sinh", err, SINH_TOL, "le"))
    return checks


def _radial_checks(cfg: ExperimentConfig, profile: so.RadialProfile) -> list[Check]:
    residual = so.l_sigma_residual(profile, cfg.alpha, cfg.sigma)
    growth = so.growth_bound_check(profile, cfg.alpha)
    increments = so.hermite_increment_defect(profile)
    try:
        profile.check_convex()
        convex = True
    except ValueError:
        convex = False
    return [
        Check("convex", convex, None, "true"),
        Check("operator-residual", residual, RESIDUAL_TOL, "le"),
        Check("growth-bound", growth, GROWTH_FACTOR / (1.0 + cfg.alpha), "le"),
        Check("increment-consistency", increments, INCREMENT_TOL, "le"),
    ]


def _blowdown_checks(sups) -> list[Check]:
    monotone = bool(all(a > b for a, b in zip(sups, sups[1:])))
    return [Check("supdist-monotone", monotone, None, "true")]


def _legendre_checks(cfg: ExperimentConfig, fit: so.DualPowerFit) -> list[Check]:
    exp_true = (1.0 + cfg.alpha) / cfg.alpha
    coef_true = cfg.alpha / (1.0 + cfg.alpha)
    return [
        Check("dual-exponent", abs(fit.exponent - exp_true) / exp_true,
              DUAL_EXPONENT_TOL, "le"),
        Check("dual-coefficient", abs(fit.coefficient - coef_true) / coef_true,
              DUAL_COEFFICIENT_TOL, "le"),
    ]


def _ode_checks(rel_err: float) -> list[Check]:
    return [Check("ode-closed-form", rel_err, ODE_AGREEMENT_TOL, "le")]


def _logconv_checks(margin: float) -> list[Check]:
    return [Check("log-convexity-margin", margin, LOG_CONVEXITY_FLOOR, "ge")]


def _area_checks(cfg: ExperimentConfig, defect: float) -> list[Check]:
    if cfg.alpha == 1.0:
        return [Check("area-identity", defect, AREA_IDENTITY_TOL, "le")]
    return []


def _ode_rel_err(alpha: float, delta: float, ts, drho) -> float:
    reference = so.comparison_closed_form(alpha, delta, ts)
    return float(np.max(np.abs(drho - reference)) / np.max(np.abs(reference)))


def _scalar(value, source: str) -> dict:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    return {"value": value, "source": source}


# -- experiment runners -----------------------------------------------------

def _run_flow(cfg: ExperimentConfig, out: str):
    body = _build_body(cfg)
    trace = fl.run_to_extinction(body, _flow_params(cfg), t_max=cfg.t_max,
                                 store_every=cfg.store_every)
    fl.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    if cfg.snapshot_every > 0:
        fl.write_trace_snapshots(trace, os.path.join(out, "snapshots"),
                                 every=cfg.snapshot_every)
    rows = fl.trace_summary_rows(trace)
    times = np.array([row["t"] for row in rows])
    inradii = np.array([row["inradius"] for row in rows])
    scalars = {
        "extinction_time": _scalar(trace.extinction_time, "trace.csv"),
        "stop_reason": _scalar(trace.stop_reason.value, "trace.csv"),
        "final_area": _scalar(trace.areas[-1], "trace.csv"),
    }
    return scalars, _flow_checks(cfg, times, inradii, trace.extinction_time)


def _run_normalized_rate(cfg: ExperimentConfig, out: str):
    body = _build_body(cfg)
    taus, states = fl.run_normalized(body, _flow_params(cfg), cfg.tau_end,
                                     store_every=cfg.store_every)
    amps = np.array([geo.mode_amplitude(state, cfg.mode) for state in states])
    tables.write_columns(os.path.join(out, "rate.csv"), ["tau", "amplitude"], taus, amps)
    fit = fl.fit_decay_rate(np.column_stack([taus, amps]),
                            (cfg.fit_window[0], cfg.fit_window[1]))
    scalars = {
        "fitted_rate": _scalar(fit.rate, "rate.csv"),
        "residual_rms": _scalar(fit.residual_rms, "rate.csv"),
    }
    return scalars, _rate_checks(cfg, fit.rate)


def _run_translator1d(cfg: ExperimentConfig, out: str):
    profile = so.translator_1d(cfg.alpha, cfg.x_max)
    so.write_profile1d_csv(profile, os.path.join(out, "profile1d.csv"))
    scalars = {
        "half_width": _scalar(profile.domain_half_width, "profile1d.csv"),
        "slope_end": _scalar(profile.dv[-1], "profile1d.csv"),
    }
    checks = _translator_checks(cfg, profile.x, profile.dv,
                                profile.domain_half_width)
    return scalars, checks


def _run_radial_translator(cfg: ExperimentConfig, out: str):
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max)
    so.write_profile_csv(profile, os.path.join(out, "profile.csv"))
    checks = _radial_checks(cfg, profile)
    scalars = {
        "origin_curvature": _scalar(profile.d2u[0], "profile.csv"),
        "operator_residual": _scalar(checks[1].value, "profile.csv"),
        "growth_const": _scalar(checks[2].value, "profile.csv"),
    }
    return scalars, checks


def _run_blowdown(cfg: ExperimentConfig, out: str):
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max)
    so.write_profile_csv(profile, os.path.join(out, "profile.csv"))
    sups = [so.blow_down(profile, cfg.alpha, float(h))[1] for h in cfg.scales]
    tables.write_columns(os.path.join(out, "blowdown.csv"), ["h", "sup_dist"],
                         cfg.scales, sups)
    scalars = {"sup_dist": _scalar(sups[-1], "blowdown.csv")}
    return scalars, _blowdown_checks(sups)


def _run_legendre(cfg: ExperimentConfig, out: str):
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max)
    so.write_profile_csv(profile, os.path.join(out, "profile.csv"))
    dual = so.legendre(profile)
    tables.write_columns(os.path.join(out, "dual.csv"),
                         ["p", "u_star", "r_argmax", "d2u_star"],
                         dual.r, dual.u, dual.du, dual.d2u)
    fit = so.dual_power_fit(dual, cfg.p_lo, cfg.p_hi)
    scalars = {
        "exponent": _scalar(fit.exponent, "dual.csv"),
        "coefficient": _scalar(fit.coefficient, "dual.csv"),
        "offset": _scalar(fit.offset, "dual.csv"),
    }
    return scalars, _legendre_checks(cfg, fit)


def _run_comparison_ode(cfg: ExperimentConfig, out: str):
    sol = so.comparison_ode(cfg.alpha, cfg.delta, cfg.t_max)
    so.write_ode_csv(sol, os.path.join(out, "ode.csv"))
    rel_err = _ode_rel_err(cfg.alpha, cfg.delta, sol.t, sol.drho)
    ratio = None
    if sol.a_cross is not None and cfg.delta < 1.0:
        ratio = sol.a_cross / (-math.log(cfg.delta)) ** (cfg.alpha / (cfg.alpha + 1.0))
    scalars = {
        "a_cross": _scalar(sol.a_cross, "ode.csv"),
        "crossing_ratio": _scalar(ratio, "ode.csv"),
        "max_rel_err": _scalar(rel_err, "ode.csv"),
    }
    return scalars, _ode_checks(rel_err)


def _run_log_convexity(cfg: ExperimentConfig, out: str):
    r, phi_rr, phi_tan = so.log_convexity_grid(cfg.radius, cfg.alpha, cfg.n_points)
    tables.write_columns(os.path.join(out, "margins.csv"),
                         ["r", "radial_eig", "tangential_eig"], r, phi_rr, phi_tan)
    margin = float(min(np.min(phi_rr), np.min(phi_tan)))
    scalars = {"margin": _scalar(margin, "margins.csv")}
    return scalars, _logconv_checks(margin)


def _run_area_identity(cfg: ExperimentConfig, out: str):
    body = _build_body(cfg)
    trace = fl.run_to_extinction(body, _flow_params(cfg), t_max=cfg.t_max,
                                 store_every=cfg.store_every)
    integrals = [fl.curvature_integral(state, cfg.alpha) for state in trace.states]
    tables.write_columns(os.path.join(out, "area_identity.csv"),
                         ["t", "area", "kappa_integral"], trace.times, trace.areas, integrals)
    defect = fl.area_defect(trace.times, trace.areas, integrals, interior=0.9)
    scalars = {"defect": _scalar(defect, "area_identity.csv")}
    return scalars, _area_checks(cfg, defect)


_RUNNERS = {
    "flow": _run_flow,
    "normalized-rate": _run_normalized_rate,
    "translator1d": _run_translator1d,
    "radial-translator": _run_radial_translator,
    "blowdown": _run_blowdown,
    "legendre": _run_legendre,
    "comparison-ode": _run_comparison_ode,
    "log-convexity": _run_log_convexity,
    "area-identity": _run_area_identity,
}

_HEADLINES = {
    "flow": ["extinction_time", "stop_reason", "final_area"],
    "normalized-rate": ["fitted_rate", "residual_rms"],
    "translator1d": ["half_width", "slope_end"],
    "radial-translator": ["origin_curvature", "operator_residual", "growth_const"],
    "blowdown": ["sup_dist"],
    "legendre": ["exponent", "coefficient", "offset"],
    "comparison-ode": ["a_cross", "crossing_ratio", "max_rel_err"],
    "log-convexity": ["margin"],
    "area-identity": ["defect"],
}


def run_config(cfg: ExperimentConfig) -> dict:
    """Execute one experiment, write its artifacts and manifest, return the
    manifest payload."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output_dir {cfg.output_dir!r} is not writable: {exc}")
    started = time.perf_counter()
    error = None
    scalars: dict = {}
    checks: list[Check] = []
    try:
        scalars, checks = _RUNNERS[cfg.experiment](cfg, cfg.output_dir)
    except (ArithmeticError, ConvexityLostError, RuntimeError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    payload = {
        "artifact": "gcsf",
        "version": __version__,
        "config": asdict(cfg),
        "wall_time_s": time.perf_counter() - started,
        "scalars": scalars,
        "checks": [c.as_dict() for c in checks],
        "pass": error is None and all(c.passed for c in checks),
        "error": error,
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload


# -- verify: recompute decisions from the stored CSVs -----------------------

def _load_columns(run_dir: str, name: str) -> np.ndarray:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise UsageError(f"run directory is missing {name}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _verify_flow(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "trace.csv")
    times, inradii = data[:, 0], data[:, 3]
    extinction = None
    if inradii[-1] < cfg.stop_inradius:
        extinction = fl.extrapolate_extinction(times, inradii, _flow_params(cfg))
    return _flow_checks(cfg, times, inradii, extinction)


def _verify_rate(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "rate.csv")
    fit = fl.fit_decay_rate(data, (cfg.fit_window[0], cfg.fit_window[1]))
    return _rate_checks(cfg, fit.rate)


def _verify_translator1d(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "profile1d.csv")
    x, dv = data[:, 0], data[:, 2]
    half_width = so.blow_up_half_width(cfg.alpha, cfg.x_max, x, dv)
    return _translator_checks(cfg, x, dv, half_width)


def _verify_radial(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    profile = so.read_profile_csv(os.path.join(run_dir, "profile.csv"))
    return _radial_checks(cfg, profile)


def _verify_blowdown(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "blowdown.csv")
    return _blowdown_checks(list(data[:, 1]))


def _verify_legendre(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "dual.csv")
    dual = so.RadialProfile(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    fit = so.dual_power_fit(dual, cfg.p_lo, cfg.p_hi)
    return _legendre_checks(cfg, fit)


def _verify_comparison_ode(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "ode.csv")
    return _ode_checks(_ode_rel_err(cfg.alpha, cfg.delta, data[:, 0], data[:, 2]))


def _verify_log_convexity(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "margins.csv")
    return _logconv_checks(float(np.min(data[:, 1:3])))


def _verify_area_identity(cfg: ExperimentConfig, run_dir: str) -> list[Check]:
    data = _load_columns(run_dir, "area_identity.csv")
    defect = fl.area_defect(data[:, 0], data[:, 1], data[:, 2], interior=0.9)
    return _area_checks(cfg, defect)


_VERIFIERS = {
    "flow": _verify_flow,
    "normalized-rate": _verify_rate,
    "translator1d": _verify_translator1d,
    "radial-translator": _verify_radial,
    "blowdown": _verify_blowdown,
    "legendre": _verify_legendre,
    "comparison-ode": _verify_comparison_ode,
    "log-convexity": _verify_log_convexity,
    "area-identity": _verify_area_identity,
}


def _checks_agree(stored: dict, recomputed: Check) -> bool:
    if stored.get("pass") != recomputed.passed:
        return False
    a, b = stored.get("value"), recomputed.value
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(b)))


# -- subcommands ------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")


def _parse_override(text: str) -> tuple[str, object]:
    if not text.startswith("--") or "=" not in text:
        raise UsageError(f"overrides look like --key=value; got {text!r}")
    key, _, value = text[2:].partition("=")
    _require(key in _CONFIG_FIELDS, f"unknown config field '{key}'")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    merged = dict(raw)
    for text in overrides:
        key, value = _parse_override(text)
        merged[key] = value
    return merged


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_run(config_path: str, overrides: list[str]) -> int:
    raw = _apply_overrides(_load_json(config_path), overrides)
    cfg = config_from_dict(raw)
    manifest = run_config(cfg)
    if manifest["error"] is not None:
        print(f"error: {manifest['error']}")
    for stored in manifest["checks"]:
        check = Check(stored["name"], stored["value"], stored["bound"], stored["op"])
        print(f"check {check.describe()}")
    for name, entry in manifest["scalars"].items():
        print(f"{name} = {_format_cell(entry['value'])}  ({entry['source']})")
    print(f"manifest: {os.path.join(cfg.output_dir, 'manifest.json')}")
    return 0 if manifest["pass"] else 2


def _sweep_entry(raw: dict) -> dict:
    """One sweep run; failures are captured, never propagated."""
    try:
        cfg = config_from_dict(raw)
        manifest = run_config(cfg)
    except UsageError as exc:
        return {"pass": False, "error": f"UsageError: {exc}", "scalars": {}}
    return {
        "pass": manifest["pass"],
        "error": manifest["error"],
        "scalars": {k: v["value"] for k, v in manifest["scalars"].items()},
    }


def _thread_cap() -> int:
    text = os.environ.get("GCSF_THREADS", "1")
    try:
        cap = int(text)
    except ValueError:
        raise UsageError(f"GCSF_THREADS must be an integer, got {text!r}")
    _require(cap >= 1, "GCSF_THREADS must be >= 1")
    return cap


def cmd_sweep(config_path: str, param: str, values_text: str,
              overrides: list[str]) -> int:
    raw = _apply_overrides(_load_json(config_path), overrides)
    _require(param in _CONFIG_FIELDS, f"unknown sweep parameter '{param}'")
    _require(param not in ("output_dir", "experiment"),
             f"parameter '{param}' cannot be swept")
    _require("output_dir" in raw, "config field 'output_dir' is required")
    _require("experiment" in raw, "config field 'experiment' is required")
    _require(raw["experiment"] in EXPERIMENTS,
             f"field 'experiment' must be one of {', '.join(EXPERIMENTS)}; "
             f"got {raw['experiment']!r}")
    base_dir = raw["output_dir"]
    try:
        os.makedirs(base_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output_dir {base_dir!r} is not writable: {exc}")

    values = []
    if values_text.strip() != "":
        for chunk in values_text.split(","):
            try:
                values.append(json.loads(chunk))
            except json.JSONDecodeError:
                values.append(chunk)

    configs = []
    labels = []
    for value in values:
        label = f"{param}={_format_cell(value)}"
        entry = dict(raw)
        entry[param] = value
        entry["output_dir"] = os.path.join(base_dir, label)
        configs.append(entry)
        labels.append(label)

    # The pool forks all its workers up front, so never ask for more than
    # there are values or cores.
    workers = min(_thread_cap(), len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, configs))
    else:
        results = [_sweep_entry(entry) for entry in configs]

    headline = _HEADLINES[raw["experiment"]]
    summary_path = os.path.join(base_dir, "summary.csv")
    with open(summary_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([param, "pass", "error", *headline, "run_dir"])
        for value, label, result in zip(values, labels, results):
            row = [_format_cell(value), _format_cell(result["pass"]),
                   result["error"] or ""]
            row.extend(_format_cell(result["scalars"].get(name))
                       for name in headline)
            row.append(label)
            writer.writerow(row)
    print(f"summary: {summary_path}")
    return 0 if all(r["pass"] for r in results) else 2


def cmd_verify(run_dir: str) -> int:
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise UsageError(f"no manifest.json under {run_dir!r}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    if manifest.get("error"):
        print(f"run recorded an error: {manifest['error']}")
        return 2
    cfg = config_from_dict(manifest["config"])
    recomputed = _VERIFIERS[cfg.experiment](cfg, run_dir)
    stored_by_name = {c["name"]: c for c in manifest.get("checks", [])}
    ok = True
    if set(stored_by_name) != {c.name for c in recomputed}:
        print("MISMATCH: stored and recomputed check lists differ")
        ok = False
    for check in recomputed:
        stored = stored_by_name.get(check.name)
        agrees = stored is not None and _checks_agree(stored, check)
        tag = "matches manifest" if agrees else "MISMATCH with manifest"
        print(f"check {check.describe()} ({tag})")
        ok = ok and agrees and check.passed
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gcsf",
        description="Run, sweep and verify power-of-curvature flow experiments.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment from a JSON config")
    run_p.add_argument("config", help="path to the config JSON")
    sweep_p = sub.add_parser("sweep", help="run a config across parameter values")
    sweep_p.add_argument("config", help="path to the base config JSON")
    sweep_p.add_argument("--param", required=True, help="config field to sweep")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values; empty for none")
    verify_p = sub.add_parser("verify",
                              help="recompute a run's pass/fail from its CSVs")
    verify_p.add_argument("run_dir", help="directory holding manifest.json")

    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, extras)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.values, extras)
        for text in extras:
            raise UsageError(f"unexpected argument {text!r}")
        return cmd_verify(args.run_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
