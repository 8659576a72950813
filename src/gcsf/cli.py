"""Batch laboratory driving the flow and soliton experiments from JSON configs.

Subcommands: run executes one experiment and archives its outputs under one
directory; sweep repeats a base config across the values of one parameter,
one directory per value plus a summary CSV; verify recomputes a finished
run's pass/fail decisions from its stored CSVs alone.  Each experiment is
one entry of EXPERIMENTS: the config fields it accepts, its runner, and the
checks that run and verify both derive from the same artifact columns.
Every run writes a manifest.json naming each headline number and the file
it came from; CSVs are written in full round-trip precision, so identical
config and seed give byte-identical outputs.
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
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from gcsf import __version__, tables
from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import solitons as so
from gcsf.geometry import PlanePoint, SupportFunction

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


#: Largest angular grid a config may ask for.  Validation builds the initial
#: body, so an unbounded grid would be an unbounded allocation; mode is
#: capped at the highest harmonic such a grid resolves.
MAX_GRID = 65536

#: Largest log-convexity grid a config may ask for, for the same reason:
#: the run allocates a handful of arrays of n_points floats.
MAX_POINTS = 10**6

#: Largest r_max, for the same reason: a profile keeps a node per 5e-3 of
#: radius.  The cap admits legendre's derived r_max for every alpha > 1/2.
MAX_R_MAX = 20000.0

#: An extinction run stores every 8th accepted state and the last: enough
#: for the fit of T and the area identity, at an eighth of the rows.
EXTINCTION_STORE_EVERY = 8


def _is_num(x) -> bool:
    """A finite JSON number; JSON's Infinity and NaN parse but are rejected,
    and so are integers beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive(x) -> bool:
    return _is_num(x) and x > 0.0


def _numbers(value) -> bool:
    """A JSON list of finite numbers."""
    return isinstance(value, (list, tuple)) and all(_is_num(x) for x in value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# What each config field must hold, and how the usage error words it.  A
# field means the same in every experiment that reads it.
_FIELD_RULES = {
    **dict.fromkeys(("alpha", "p_lo", "p_hi", "delta", "radius"),
                    (_is_positive, "a positive finite number")),
    **dict.fromkeys(("eps", "tau_end", "x_max"), (_is_num, "a finite number")),
    "sigma": (lambda v: _is_num(v) and 0.0 < v <= 1.0, "a finite number in (0, 1]"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "m": (lambda v: _is_int(v) and 64 <= v <= MAX_GRID and v % 2 == 0,
          f"an even integer in [64, {MAX_GRID}]"),
    "initial_body": (lambda v: isinstance(v, dict), "an object"),
    "t_max": (lambda v: v is None or _is_positive(v), "a positive finite number or null"),
    "snapshot_every": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "mode": (lambda v: _is_int(v) and 1 <= v <= MAX_GRID // 2,
             f"an integer in [1, {MAX_GRID // 2}]"),
    "fit_window": (lambda v: _numbers(v) and len(v) == 2 and v[0] < v[1],
                   "a finite [lo, hi] pair with lo < hi"),
    "r_max": (lambda v: _is_num(v) and 1e-3 < v <= MAX_R_MAX,
              f"a finite number in (1e-3, {MAX_R_MAX:g}]"),
    "scales": (lambda v: _numbers(v) and len(v) > 0 and v[0] > 0.0
               and all(a < b for a, b in zip(v, v[1:])),
               "a non-empty, strictly increasing list of positive finite numbers"),
    "n_points": (lambda v: _is_int(v) and 2 <= v <= MAX_POINTS,
                 f"an integer in [2, {MAX_POINTS}]"),
}


@dataclass(frozen=True)
class Experiment:
    """Everything the CLI knows about one experiment.

    fields maps each config field the experiment reads to its default, or
    to a function of the fields declared before it; no other field is
    accepted.  validate(cfg) raises UsageError on problems that span
    fields.  run(cfg, out) writes the artifacts under out and returns
    (scalars, columns): the headline numbers, all read off the file named
    source, and the columns of each file written, keyed by file name.  An
    experiment that marches the flow has marches set; its run takes a
    MarchStats as stats and fills it in, and run_config writes it to the
    manifest as solver, also when the run fails.  checks(cfg, columns)
    derives the pass/fail decisions from such columns alone: run_config
    hands it the columns just written, verify the same columns read back.
    """

    fields: dict
    run: Callable
    checks: Callable
    source: str
    headline: tuple[str, ...]
    validate: Callable = lambda cfg: None
    marches: bool = False


def _experiment(raw) -> Experiment:
    """The registered experiment a raw config names, after checking that
    every key of the config is one of its fields."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _require("experiment" in raw, "config field 'experiment' is required")
    name = raw["experiment"]
    _require(isinstance(name, str) and name in EXPERIMENTS,
             f"field 'experiment' must be one of {', '.join(EXPERIMENTS)}; got {name!r}")
    experiment = EXPERIMENTS[name]
    for key in raw:
        _require(key in ("experiment", "output_dir") or key in experiment.fields,
                 f"unknown config field '{key}'; {name} accepts "
                 f"{', '.join(experiment.fields)}")
    return experiment


def config_from_dict(raw: dict) -> SimpleNamespace:
    """Validate a config and resolve its experiment's defaults.

    The result carries experiment, output_dir and every field of the
    experiment, in declaration order; the manifest echoes exactly these.
    """
    experiment = _experiment(raw)
    _require("output_dir" in raw, "config field 'output_dir' is required")
    _require(isinstance(raw["output_dir"], str) and raw["output_dir"] != "",
             "field 'output_dir' must be a non-empty path")
    values = {"experiment": raw["experiment"], "output_dir": raw["output_dir"]}
    for name, default in experiment.fields.items():
        if raw.get(name) is not None:  # null selects the default
            value = raw[name]
        elif callable(default):
            try:
                value = default(values)
            except OverflowError:
                value = math.inf
        else:
            value = default
        test, phrase = _FIELD_RULES[name]
        _require(test(value), f"field '{name}' must be {phrase}")
        values[name] = value
    cfg = SimpleNamespace(**values)
    experiment.validate(cfg)
    return cfg


_BODY_FIELDS = {"circle": ("radius", "center"), "ellipse": ("a", "b"),
                "fourier": ("cos", "sin"), "random": ()}


def _build_body(cfg: SimpleNamespace) -> SupportFunction:
    desc = cfg.initial_body
    kind = desc.get("kind")
    _require(isinstance(kind, str) and kind in _BODY_FIELDS,
             f"initial_body.kind must be one of {', '.join(_BODY_FIELDS)}; got {kind!r}")
    for key in desc:
        _require(key == "kind" or key in _BODY_FIELDS[kind],
                 f"unknown initial_body field '{key}' for kind {kind}")
    try:
        if kind == "circle":
            radius = desc.get("radius", 1.0)
            center = desc.get("center", [0.0, 0.0])
            _require(_is_num(radius), "initial_body.radius must be a finite number")
            _require(_numbers(center) and len(center) == 2,
                     "initial_body.center must be a finite [x, y] pair")
            return geo.make_circle(radius, PlanePoint(float(center[0]), float(center[1])),
                                   m=cfg.m)
        if kind == "ellipse":
            for name in ("a", "b"):
                _require(_is_num(desc.get(name)),
                         f"initial_body.{name} must be a finite number")
            return geo.make_ellipse(desc["a"], desc["b"], m=cfg.m)
        if kind == "fourier":
            cos_coeffs = desc.get("cos", [])
            sin_coeffs = desc.get("sin", [])
            _require(_numbers(cos_coeffs) and _numbers(sin_coeffs),
                     "initial_body.cos and .sin must be lists of finite numbers")
            return geo.make_fourier_body(cos_coeffs, sin_coeffs, m=cfg.m)
        return geo.random_convex_body(np.random.default_rng(cfg.seed), m=cfg.m)
    except ValueError as exc:
        raise UsageError(f"initial_body: {exc}") from exc


def _scalar(value, source: str) -> dict:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    return {"value": value, "source": source}


# -- the experiments: each run writes its artifacts and returns their
# columns; each checks function reads nothing but those columns ------------

def _flow_params(cfg: SimpleNamespace) -> fl.FlowParams:
    return fl.FlowParams(alpha=cfg.alpha, m=cfg.m)


def _extinction_trace(cfg: SimpleNamespace, stats: fl.MarchStats) -> fl.FlowTrace:
    return fl.run_to_extinction(_build_body(cfg), _flow_params(cfg), t_max=cfg.t_max,
                                store_every=EXTINCTION_STORE_EVERY, stats=stats)


def _run_flow(cfg: SimpleNamespace, out: str, stats: fl.MarchStats):
    trace = _extinction_trace(cfg, stats)
    columns = {"trace.csv": fl.write_trace_csv(trace, os.path.join(out, "trace.csv"))}
    if cfg.snapshot_every > 0:
        fl.write_trace_snapshots(trace, os.path.join(out, "snapshots"),
                                 every=cfg.snapshot_every)
    scalars = {"extinction_time": trace.extinction_time,
               "stop_reason": trace.stop_reason.value, "final_area": trace.areas[-1]}
    return scalars, columns


def _flow_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    """Checks of a flow run, from trace.csv alone.

    A body run without t_max must go extinct.  A circle must then vanish
    at radius^(1+alpha)/(1+alpha) and shrink by the circle law on the way.
    Any other body must vanish at T = area_0 / 2 pi at alpha = 1, where the
    area falls at exactly 2 pi, and at every alpha between the extinction
    times of the discs about the Steiner point inscribed in and
    circumscribing it, as the comparison principle demands.
    """
    trace = columns["trace.csv"]
    times, inradii = trace[0], trace[3]
    extinct = bool(inradii[-1] < fl.STOP_INRADIUS)
    checks = [Check("extinct", extinct, None, "true")] if cfg.t_max is None else []
    if not extinct:
        return checks
    extinction = fl.extrapolate_extinction(times, inradii, _flow_params(cfg))
    a1 = 1.0 + cfg.alpha
    body = cfg.initial_body
    if body.get("kind") == "circle":
        radius = float(body.get("radius", 1.0))
        expected = radius**a1 / a1
        mask = times <= 0.9 * expected
        law = (radius**a1 - a1 * times[mask]) ** (1.0 / a1)
        rel = float(np.max(np.abs(inradii[mask] - law) / law))
        return checks + [
            Check("extinction-time", abs(extinction - expected), EXTINCTION_TOL, "le"),
            Check("circle-law", rel, CIRCLE_LAW_TOL, "le"),
        ]
    if cfg.alpha == 1.0:
        area_law = trace[1][0] / (2.0 * math.pi)
        checks.append(Check("extinction-time", abs(extinction - area_law), EXTINCTION_TOL, "le"))
    return checks + [
        Check("inscribed-disc-first", inradii[0]**a1 / a1 - extinction,
              EXTINCTION_TOL, "le"),
        Check("circumscribed-disc-last", extinction - trace[4][0]**a1 / a1,
              EXTINCTION_TOL, "le"),
    ]


def _rate_fit(cfg: SimpleNamespace, columns) -> fl.RateFit:
    return fl.fit_decay_rate(np.column_stack(columns["rate.csv"]),
                             (cfg.fit_window[0], cfg.fit_window[1]))


def _run_normalized_rate(cfg: SimpleNamespace, out: str, stats: fl.MarchStats):
    # The rescaled flow takes a few hundred ETD steps; its rate fit wants
    # every one of them, as run_normalized stores by default.
    taus, states = fl.run_normalized(_build_body(cfg), _flow_params(cfg), cfg.tau_end,
                                     stats=stats)
    amps = np.array([geo.mode_amplitude(state, cfg.mode) for state in states])
    tables.write_columns(os.path.join(out, "rate.csv"), ["tau", "amplitude"], taus, amps)
    columns = {"rate.csv": (taus, amps)}
    fit = _rate_fit(cfg, columns)
    return {"fitted_rate": fit.rate, "residual_rms": fit.residual_rms}, columns


def _rate_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    expected = fl.linearized_mode_rate(cfg.alpha, cfg.mode)
    tol = RATE_TOL * max(abs(expected), 1.0)
    rate = _rate_fit(cfg, columns).rate
    return [Check("decay-rate", abs(rate - expected), tol, "le")]


def _run_translator1d(cfg: SimpleNamespace, out: str):
    profile = so.translator_1d(cfg.alpha, cfg.x_max)
    so.write_profile1d_csv(profile, os.path.join(out, "profile1d.csv"))
    scalars = {"half_width": profile.domain_half_width, "slope_end": profile.dv[-1]}
    return scalars, {"profile1d.csv": (profile.x, profile.v, profile.dv)}


def _translator_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    x, _, dv = columns["profile1d.csv"]
    half_width = so.blow_up_half_width(cfg.alpha, cfg.x_max, x, dv)
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


def _radial_profile(cfg: SimpleNamespace, out: str) -> so.RadialProfile:
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max)
    so.write_profile_csv(profile, os.path.join(out, "profile.csv"))
    return profile


def _run_radial_translator(cfg: SimpleNamespace, out: str):
    profile = _radial_profile(cfg, out)
    scalars = {
        "origin_curvature": profile.d2u[0],
        "operator_residual": so.l_sigma_residual(profile, cfg.alpha, cfg.sigma),
        "growth_const": so.growth_bound_check(profile, cfg.alpha),
    }
    return scalars, {"profile.csv": profile}


def _radial_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    profile = columns["profile.csv"]
    try:
        profile.check_convex()
        convex = True
    except ValueError:
        convex = False
    return [
        Check("convex", convex, None, "true"),
        Check("operator-residual", so.l_sigma_residual(profile, cfg.alpha, cfg.sigma),
              RESIDUAL_TOL, "le"),
        Check("growth-bound", so.growth_bound_check(profile, cfg.alpha),
              GROWTH_FACTOR / (1.0 + cfg.alpha), "le"),
        Check("increment-consistency", so.hermite_increment_defect(profile),
              INCREMENT_TOL, "le"),
    ]


def _run_blowdown(cfg: SimpleNamespace, out: str):
    profile = _radial_profile(cfg, out)
    sups = [so.blow_down(profile, cfg.alpha, float(h))[1] for h in cfg.scales]
    tables.write_columns(os.path.join(out, "blowdown.csv"), ["h", "sup_dist"],
                         cfg.scales, sups)
    columns = {"profile.csv": profile, "blowdown.csv": (cfg.scales, sups)}
    return {"sup_dist": sups[-1]}, columns


def _blowdown_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    sups = columns["blowdown.csv"][1]
    monotone = bool(all(a > b for a, b in zip(sups, sups[1:])))
    return [Check("supdist-monotone", monotone, None, "true")]


def _dual_fit(cfg: SimpleNamespace, columns) -> so.DualPowerFit:
    return so.dual_power_fit(so.RadialProfile(*columns["dual.csv"]), cfg.p_lo, cfg.p_hi)


def _run_legendre(cfg: SimpleNamespace, out: str):
    profile = _radial_profile(cfg, out)
    dual = so.legendre(profile)
    tables.write_columns(os.path.join(out, "dual.csv"),
                         ["p", "u_star", "r_argmax", "d2u_star"],
                         dual.r, dual.u, dual.du, dual.d2u)
    columns = {"profile.csv": profile, "dual.csv": (dual.r, dual.u, dual.du, dual.d2u)}
    fit = _dual_fit(cfg, columns)
    return {"exponent": fit.exponent, "coefficient": fit.coefficient,
            "offset": fit.offset}, columns


def _legendre_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    fit = _dual_fit(cfg, columns)
    exp_true = (1.0 + cfg.alpha) / cfg.alpha
    coef_true = cfg.alpha / (1.0 + cfg.alpha)
    return [
        Check("dual-exponent", abs(fit.exponent - exp_true) / exp_true,
              DUAL_EXPONENT_TOL, "le"),
        Check("dual-coefficient", abs(fit.coefficient - coef_true) / coef_true,
              DUAL_COEFFICIENT_TOL, "le"),
    ]


def _ode_rel_err(cfg: SimpleNamespace, columns) -> float:
    ts, _, drho = columns["ode.csv"]
    reference = so.comparison_closed_form(cfg.alpha, cfg.delta, ts)
    return float(np.max(np.abs(drho - reference)) / np.max(np.abs(reference)))


def _run_comparison_ode(cfg: SimpleNamespace, out: str):
    sol = so.comparison_ode(cfg.alpha, cfg.delta, cfg.t_max)
    so.write_ode_csv(sol, os.path.join(out, "ode.csv"))
    columns = {"ode.csv": (sol.t, sol.rho, sol.drho)}
    ratio = None
    if sol.a_cross is not None and cfg.delta < 1.0:
        ratio = sol.a_cross / (-math.log(cfg.delta)) ** (cfg.alpha / (cfg.alpha + 1.0))
    scalars = {"a_cross": sol.a_cross, "crossing_ratio": ratio,
               "max_rel_err": _ode_rel_err(cfg, columns)}
    return scalars, columns


def _ode_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    return [Check("ode-closed-form", _ode_rel_err(cfg, columns), ODE_AGREEMENT_TOL, "le")]


def _margin(columns) -> float:
    _, radial, tangential = columns["margins.csv"]
    return float(min(np.min(radial), np.min(tangential)))


def _run_log_convexity(cfg: SimpleNamespace, out: str):
    r, phi_rr, phi_tan = so.log_convexity_grid(cfg.radius, cfg.alpha, cfg.n_points)
    tables.write_columns(os.path.join(out, "margins.csv"),
                         ["r", "radial_eig", "tangential_eig"], r, phi_rr, phi_tan)
    columns = {"margins.csv": (r, phi_rr, phi_tan)}
    return {"margin": _margin(columns)}, columns


def _logconv_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    return [Check("log-convexity-margin", _margin(columns), LOG_CONVEXITY_FLOOR, "ge")]


def _area_defect(columns) -> float:
    return fl.area_defect(*columns["area_identity.csv"], interior=0.9)


def _run_area_identity(cfg: SimpleNamespace, out: str, stats: fl.MarchStats):
    trace = _extinction_trace(cfg, stats)
    integrals = [fl.curvature_integral(state, cfg.alpha) for state in trace.states]
    tables.write_columns(os.path.join(out, "area_identity.csv"),
                         ["t", "area", "kappa_integral"], trace.times, trace.areas, integrals)
    columns = {"area_identity.csv": (trace.times, trace.areas, integrals)}
    return {"defect": _area_defect(columns)}, columns


def _area_checks(cfg: SimpleNamespace, columns) -> list[Check]:
    if cfg.alpha == 1.0:
        return [Check("area-identity", _area_defect(columns), AREA_IDENTITY_TOL, "le")]
    return []


def _check_reach(cfg: SimpleNamespace) -> None:
    needed = max(cfg.scales) ** (1.0 / (1.0 + cfg.alpha))
    _require(cfg.r_max >= needed,
             f"field 'r_max' must reach the largest rescaling, >= {needed:.6g}")


_GRID_FIELDS = {"seed": 0, "alpha": 1.0, "m": 256}
_EXTINCTION_FIELDS = {**_GRID_FIELDS, "t_max": None}
_UNIT_CIRCLE = {"kind": "circle", "radius": 1.0, "center": [0.0, 0.0]}

EXPERIMENTS = {
    "flow": Experiment(
        {**_EXTINCTION_FIELDS, "snapshot_every": 0, "initial_body": _UNIT_CIRCLE},
        _run_flow, _flow_checks,
        "trace.csv", ("extinction_time", "stop_reason", "final_area"), _build_body,
        marches=True),
    "normalized-rate": Experiment(
        {**_GRID_FIELDS, "mode": 2, "eps": 1e-3, "tau_end": 3.5,
         "fit_window": (1.0, 3.0),
         "initial_body": lambda c: {"kind": "fourier",
                                    "cos": [1.0] + [0.0] * (c["mode"] - 1) + [c["eps"]]}},
        _run_normalized_rate, _rate_checks,
        "rate.csv", ("fitted_rate", "residual_rms"), _build_body, marches=True),
    "translator1d": Experiment(
        {"alpha": 1.0, "x_max": 20.0},
        _run_translator1d, _translator_checks,
        "profile1d.csv", ("half_width", "slope_end")),
    "radial-translator": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "r_max": 20.0},
        _run_radial_translator, _radial_checks,
        "profile.csv", ("origin_curvature", "operator_residual", "growth_const")),
    "blowdown": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "scales": (10.0, 100.0, 1000.0, 10000.0),
         "r_max": lambda c: 1.02 * max(c["scales"]) ** (1.0 / (1.0 + c["alpha"]))},
        _run_blowdown, _blowdown_checks,
        "blowdown.csv", ("sup_dist",), _check_reach),
    "legendre": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "p_lo": 50.0, "p_hi": 100.0,
         "r_max": lambda c: max(6.0, (1.15 * c["p_hi"]) ** (1.0 / c["alpha"]))},
        _run_legendre, _legendre_checks,
        "dual.csv", ("exponent", "coefficient", "offset"),
        lambda cfg: _require(cfg.p_lo < cfg.p_hi,
                             "fields 'p_lo' and 'p_hi' must satisfy 0 < p_lo < p_hi")),
    "comparison-ode": Experiment(
        {"alpha": 1.0, "delta": 1e-6, "t_max": 3.0},
        _run_comparison_ode, _ode_checks,
        "ode.csv", ("a_cross", "crossing_ratio", "max_rel_err")),
    "log-convexity": Experiment(
        {"alpha": 1.0, "radius": 1.0, "n_points": 2001},
        _run_log_convexity, _logconv_checks, "margins.csv", ("margin",)),
    "area-identity": Experiment(
        {**_EXTINCTION_FIELDS, "initial_body": {"kind": "ellipse", "a": 1.3, "b": 1.0}},
        _run_area_identity, _area_checks, "area_identity.csv", ("defect",), _build_body,
        marches=True),
}


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output_dir {path!r} is not writable: {exc}")


def run_config(cfg: SimpleNamespace) -> dict:
    """Execute one experiment, write its artifacts and manifest, return the
    manifest payload.  The checks are judged on the columns just written,
    as verify judges them on the same columns read back."""
    _make_dir(cfg.output_dir)
    experiment = EXPERIMENTS[cfg.experiment]
    started = time.perf_counter()
    error = None
    scalars: dict = {}
    checks: list[Check] = []
    stats = fl.MarchStats()
    try:
        if experiment.marches:
            values, columns = experiment.run(cfg, cfg.output_dir, stats)
        else:
            values, columns = experiment.run(cfg, cfg.output_dir)
        checks = experiment.checks(cfg, columns)
        scalars = {name: _scalar(value, experiment.source)
                   for name, value in values.items()}
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    payload = {
        "artifact": "gcsf",
        "version": __version__,
        "config": vars(cfg),
        "wall_time_s": time.perf_counter() - started,
        "scalars": scalars,
        "checks": [c.as_dict() for c in checks],
        "solver": asdict(stats) if experiment.marches else None,
        "pass": error is None and all(c.passed for c in checks),
        "error": error,
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload


class _StoredColumns(dict):
    """A finished run's artifact columns, each file read on first use."""

    def __init__(self, run_dir: str):
        super().__init__()
        self.run_dir = run_dir

    def __missing__(self, name: str):
        path = os.path.join(self.run_dir, name)
        _require(os.path.exists(path), f"run directory is missing {name}")
        if name == "profile.csv":
            self[name] = so.read_profile_csv(path)
        else:
            self[name] = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        return self[name]


# -- subcommands ------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    merged = dict(raw)
    for text in overrides:
        _require(text.startswith("--") and "=" in text,
                 f"overrides look like --key=value; got {text!r}")
        key, _, value = text[2:].partition("=")
        merged[key] = _json_or_text(value)
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
    _require(param not in ("output_dir", "experiment"),
             f"parameter '{param}' cannot be swept")
    experiment = _experiment(raw)
    _require(param in experiment.fields,
             f"unknown sweep parameter: unknown config field '{param}'; "
             f"{raw['experiment']} accepts {', '.join(experiment.fields)}")
    _require("output_dir" in raw, "config field 'output_dir' is required")
    base_dir = raw["output_dir"]
    _make_dir(base_dir)

    values = ([_json_or_text(chunk) for chunk in values_text.split(",")]
              if values_text.strip() != "" else [])
    labels = [f"{param}={_format_cell(value)}" for value in values]
    configs = [dict(raw, **{param: value, "output_dir": os.path.join(base_dir, label)})
               for value, label in zip(values, labels)]

    # The pool forks all its workers up front, so never ask for more than
    # there are values or cores.
    workers = min(_thread_cap(), len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, configs))
    else:
        results = [_sweep_entry(entry) for entry in configs]

    headline = experiment.headline
    summary_path = os.path.join(base_dir, "summary.csv")
    with open(summary_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([param, "pass", "error", *headline, "run_dir"])
        for value, label, result in zip(values, labels, results):
            scalars = [_format_cell(result["scalars"].get(name)) for name in headline]
            writer.writerow([_format_cell(value), _format_cell(result["pass"]),
                             result["error"] or "", *scalars, label])
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
    try:
        recomputed = EXPERIMENTS[cfg.experiment].checks(cfg, _StoredColumns(run_dir))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"cannot recompute the checks: {type(exc).__name__}: {exc}")
        return 2
    stored_by_name = {c["name"]: c for c in manifest.get("checks", [])}
    ok = True
    if set(stored_by_name) != {c.name for c in recomputed}:
        print("MISMATCH: stored and recomputed check lists differ")
        ok = False
    for check in recomputed:
        stored = stored_by_name.get(check.name)
        agrees = (stored is not None and stored.get("pass") == check.passed
                  and stored.get("value") == check.value)
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
