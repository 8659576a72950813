"""Batch laboratory driving the flow and soliton experiments from JSON configs.

Subcommands: run executes one experiment and archives its outputs under one
directory; sweep repeats a base config across the values of one parameter,
one directory per value plus a summary CSV; verify recomputes a finished
run's pass/fail decisions and headline numbers from its stored CSVs
alone.  Each experiment is one entry of EXPERIMENTS: the config fields it
accepts, its runner, which marches and returns every artifact as a CSV's
columns by name, and its judge, which derives the checks and the headline
numbers from one such table, by column name, for run and verify alike.
run_config alone writes a run directory: the CSVs, then a manifest.json
naming each headline number and its file.  gcsf.tables writes every CSV
and reads it back in full round-trip precision, so identical config and
seed give byte-identical outputs, and verify demands exact agreement.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from gcsf import __version__, tables
from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf.geometry import SupportFunction


def _lazy(name: str):
    """The module name, bound now but run at its first attribute access,
    so a process that never reads it never compiles it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# Only the soliton experiments read gcsf.solitons; a flow process never runs it.
so = _lazy("gcsf.solitons")

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


def check(name: str, value, bound: float | None, op: str) -> dict:
    """One declared pass/fail decision of a run, as the manifest stores it:
    value must be <= bound (op "le"), >= bound ("ge"), or True ("true").
    numpy scalars become plain bools and floats, which serialize as such."""
    if isinstance(value, (bool, np.bool_)):
        value = bool(value)
    elif isinstance(value, (int, float)):
        value = float(value)
    if op == "true":
        passed = value is True
    elif op == "le":
        passed = bool(value <= bound)
    elif op == "ge":
        passed = bool(value >= bound)
    else:
        raise ValueError(f"unknown check op {op!r}")
    return {"name": name, "value": value, "bound": bound, "op": op, "pass": passed}


def describe(record: dict) -> str:
    """One check record in one line, as run and verify print it."""
    verdict = "pass" if record["pass"] else "FAIL"
    if record["op"] == "true":
        return f"{record['name']}: {record['value']} [{verdict}]"
    rel = {"le": "<=", "ge": ">="}[record["op"]]
    return f"{record['name']}: {record['value']!r} {rel} {record['bound']!r} [{verdict}]"


#: Largest angular grid a config may ask for.  Validation builds the initial
#: body, so an unbounded grid would be an unbounded allocation; mode is
#: capped at the highest harmonic such a grid resolves.
MAX_GRID = 65536

#: Largest log-convexity grid a config may ask for, for the same reason:
#: the run allocates a handful of arrays of n_points floats.
MAX_POINTS = 10**6

#: Largest r_max, for the same reason, though a profile's nodes are 0.25%
#: of the radius apart past r = 2, about 4,100 of them at the cap.  The cap
#: admits legendre's derived r_max for every alpha > 1/2.
MAX_R_MAX = 20000.0

#: Largest tau_end, which bounds a run's length: the normalized march takes
#: about 100 steps per unit of tau near the unit circle, 5,000 to the cap.
MAX_TAU_END = 50.0


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
    **dict.fromkeys(("alpha", "p_lo", "p_hi", "delta", "radius", "x_max"),
                    (_is_positive, "a positive finite number")),
    "eps": (_is_num, "a finite number"),
    "tau_end": (lambda v: _is_num(v) and 0.0 <= v <= MAX_TAU_END,
                f"a finite number in [0, {MAX_TAU_END:g}]"),
    "sigma": (lambda v: _is_num(v) and 0.0 < v <= 1.0, "a finite number in (0, 1]"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "m": (lambda v: _is_int(v) and geo.MIN_GRID <= v <= MAX_GRID and v % 2 == 0,
          f"an even integer in [{geo.MIN_GRID}, {MAX_GRID}]"),
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
    fields.  run(cfg, stats) marches and returns every artifact as an
    ordered mapping of column names to columns, keyed by file name, which
    run_config writes under the output directory; it raises UsageError on a
    config only the march can show unusable.  judge(cfg, table) derives
    (scalars, checks), the headline numbers and the records of check(),
    from the table of the file named source alone: for run_config from the
    columns just written, for verify from the same file read back.
    headline names and orders those scalars.  An experiment that marches
    an ODE or the flow names the factory of its solver's stats record,
    fl.MarchStats or _ode_stats; run_config hands a fresh one to run and
    writes what the run filled in to the manifest as solver, also when the
    run fails.
    """

    fields: dict
    run: Callable
    judge: Callable
    source: str
    headline: tuple[str, ...]
    validate: Callable = lambda cfg: None
    solver: Callable | None = None


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
        derived = raw.get(name) is None and callable(default)
        _require(test(value), f"field '{name}' must be {phrase}"
                 + (f", but its default from the other fields is {value!r}" if derived else ""))
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
            return geo.make_circle(radius, center, m=cfg.m)
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


def _judged(experiment: Experiment, cfg: SimpleNamespace, table) -> dict:
    """The judged part of a manifest, from the judge's verdict on the source
    table: the headline numbers as scalar entries, in headline order and
    with numpy floats made plain; the check records; and whether all passed."""
    values, checks = experiment.judge(cfg, table)
    scalars = {name: {"value": float(values[name]) if isinstance(values[name], float)
                      else values[name], "source": experiment.source}
               for name in experiment.headline}
    return {"scalars": scalars, "checks": checks, "pass": all(c["pass"] for c in checks)}


# -- the experiments: each run marches and returns its CSVs' columns; each
# judge derives the checks and the headline numbers from those columns alone

def _flow_params(cfg: SimpleNamespace) -> fl.FlowParams:
    return fl.FlowParams(alpha=cfg.alpha, m=cfg.m)


def _check_flow_body(cfg: SimpleNamespace) -> None:
    """Build the initial body; a circle's extinction time, which the circle
    law divides by, must not underflow, and the body must not start out
    extinct, with its inradius below STOP_INRADIUS."""
    inradius, body, a1 = geo.inradius(_build_body(cfg)), cfg.initial_body, 1.0 + cfg.alpha
    _require(body["kind"] != "circle" or a1 * math.log(body.get("radius", 1.0)) - math.log(a1)
             >= math.log(sys.float_info.min),
             "initial_body.radius is too small: radius^(1+alpha)/(1+alpha) underflows")
    _require(inradius >= fl.STOP_INRADIUS,
             f"initial_body: its inradius {inradius:.6g} is below "
             f"STOP_INRADIUS = {fl.STOP_INRADIUS:g}, where the flow counts a body extinct")


def _run_flow(cfg: SimpleNamespace, stats: fl.MarchStats):
    trace = fl.run_to_extinction(_build_body(cfg), _flow_params(cfg), t_max=cfg.t_max,
                                 stats=stats, snapshot_every=cfg.snapshot_every)
    columns = {"trace.csv": trace.columns, "snapshots.csv": trace.snapshots}
    return {name: table for name, table in columns.items() if table is not None}


def _flow_judge(cfg: SimpleNamespace, trace):
    """Checks and headline numbers of a flow run, from trace.csv alone.

    The stop reason and the extinction time come from fl.trace_outcome,
    the one rule the march records them by.  At alpha = 1 the area falls at
    exactly 2 pi, on any trace of 3 rows or more.  A body run without t_max
    must go extinct.  A circle must shrink by the circle law, up to 0.9 of
    its closed-form extinction time radius^(1+alpha)/(1+alpha) or the end
    of its trace, and vanish at that time if it goes extinct.  Any other
    body must vanish at T = area_0 / 2 pi at alpha = 1, and at every alpha
    between the extinction times of the discs about the Steiner point
    inscribed in and circumscribing it, as the comparison principle demands.
    """
    times, inradii = trace["t"], trace["inradius"]
    stop, extinction = fl.trace_outcome(trace, _flow_params(cfg), cfg.t_max)
    defect = fl.area_rate_check(trace)
    scalars = {"extinction_time": extinction, "stop_reason": stop.value,
               "final_area": trace["area"][-1], "area_defect": defect}
    checks = [check("extinct", extinction is not None, None, "true")] if cfg.t_max is None else []
    if cfg.alpha == 1.0 and defect is not None:
        checks.append(check("area-identity", defect, AREA_IDENTITY_TOL, "le"))
    body = cfg.initial_body
    if body.get("kind") == "circle":
        radius, a1 = float(body.get("radius", 1.0)), 1.0 + cfg.alpha
        expected = fl.disc_extinction_time(radius, cfg.alpha)
        mask = times <= 0.9 * expected
        law = (radius**a1 - a1 * times[mask]) ** (1.0 / a1)
        rel = float(np.max(np.abs(inradii[mask] - law) / law))
        if extinction is not None:
            checks.append(check("extinction-time", abs(extinction - expected),
                                EXTINCTION_TOL, "le"))
        return scalars, checks + [check("circle-law", rel, CIRCLE_LAW_TOL, "le")]
    if extinction is None:
        return scalars, checks
    if cfg.alpha == 1.0:
        area_law = trace["area"][0] / (2.0 * math.pi)
        checks.append(check("extinction-time", abs(extinction - area_law), EXTINCTION_TOL, "le"))
    return scalars, checks + [
        check("inscribed-disc-first",
              fl.disc_extinction_time(inradii[0], cfg.alpha) - extinction, EXTINCTION_TOL, "le"),
        check("circumscribed-disc-last",
              extinction - fl.disc_extinction_time(trace["circumradius"][0], cfg.alpha),
              EXTINCTION_TOL, "le"),
    ]


def _run_normalized_rate(cfg: SimpleNamespace, stats: fl.MarchStats):
    # The normalized march takes a few hundred ETD steps; its rate fit wants
    # every one of them, the default store_every, and only the mode's
    # amplitude of each, which run_normalized reads off its coefficients.
    tau, amplitude = fl.run_normalized(_build_body(cfg), _flow_params(cfg), cfg.tau_end,
                                       stats=stats, mode=cfg.mode)
    inside = int(np.count_nonzero((tau >= cfg.fit_window[0]) & (tau <= cfg.fit_window[1])))
    _require(inside >= fl.FIT_MIN_POINTS,
             f"field 'fit_window' holds {inside} of the march's {tau.size} steps, "
             f"and the rate fit needs {fl.FIT_MIN_POINTS}")
    return {"rate.csv": {"tau": tau, "amplitude": amplitude}}


def _check_rate(cfg: SimpleNamespace) -> None:
    _require(cfg.mode <= cfg.m // 2, f"field 'mode' must be at most m/2 = {cfg.m // 2}")
    _build_body(cfg)
    _require(cfg.fit_window[0] < cfg.tau_end,
             f"field 'fit_window' must start before tau_end = {cfg.tau_end:g}")


def _rate_judge(cfg: SimpleNamespace, rate):
    fit = fl.fit_decay_rate(rate["tau"], rate["amplitude"], cfg.fit_window)
    expected = fl.linearized_mode_rate(cfg.alpha, cfg.mode)
    tol = RATE_TOL * max(abs(expected), 1.0)
    return ({"fitted_rate": fit.rate, "residual_rms": fit.residual_rms},
            [check("decay-rate", abs(fit.rate - expected), tol, "le")])


def _ode_stats() -> so.OdeStats:
    """A fresh ODE stats record; the registry names this factory, not the
    class, so that building it does not run gcsf.solitons."""
    return so.OdeStats()


def _run_translator1d(cfg: SimpleNamespace, stats: so.OdeStats):
    return {"profile1d.csv": vars(so.translator_1d(cfg.alpha, cfg.x_max, stats))}


def _translator_judge(cfg: SimpleNamespace, profile):
    """Above alpha = 1/2 the profile must blow up within x_max, at the
    closed-form half-width so.strip_half_width(alpha); at or below it the
    profile is entire, so the stored rows must reach x_max.  The measured
    half-width adds the same function's incomplete-beta tail past slope
    SLOPE_SWITCH to the march, so half-width-beta checks the march only on
    the bulk of the width, all but the last 1e-3 or so at alpha = 1."""
    x, dv = profile["x"], profile["dv"]
    half_width = so.blow_up_half_width(cfg.alpha, cfg.x_max, x, dv)
    blew_up = half_width is not None
    dichotomy = (blew_up and half_width <= cfg.x_max if cfg.alpha > 0.5
                 else bool(x[-1] >= cfg.x_max))
    checks = [check("dichotomy", dichotomy, None, "true")]
    if blew_up:
        checks.append(check("half-width-beta",
                            abs(half_width - so.strip_half_width(cfg.alpha)),
                            HALF_WIDTH_TOL, "le"))
    if cfg.alpha == 1.0 and blew_up:
        checks.append(check("half-width-tan", abs(half_width - math.pi / 2.0),
                            HALF_WIDTH_TOL, "le"))
    if cfg.alpha == 0.5:
        # Compare on [0, 5] only: the march is accurate in relative terms,
        # and sinh reaches 2e8 by x = 20, which no absolute bound survives.
        window = x <= 5.0
        err = float(np.max(np.abs(dv[window] - np.sinh(x[window]))))
        checks.append(check("slope-sinh", err, SINH_TOL, "le"))
    return {"half_width": half_width, "slope_end": dv[-1]}, checks


def _run_radial_translator(cfg: SimpleNamespace, stats: so.OdeStats):
    # A profile's fields are its table's columns, in order.
    return {"profile.csv": vars(so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max, stats))}


def _radial_judge(cfg: SimpleNamespace, table):
    profile = so.RadialProfile(table["r"], table["u"], table["du"], table["d2u"])
    try:
        profile.check_convex()
        convex = True
    except ValueError:
        convex = False
    residual = so.l_sigma_residual(profile, cfg.alpha, cfg.sigma)
    growth = so.growth_bound_check(profile, cfg.alpha)
    scalars = {"origin_curvature": profile.d2u[0], "operator_residual": residual,
               "growth_const": growth}
    return scalars, [
        check("convex", convex, None, "true"),
        check("operator-residual", residual, RESIDUAL_TOL, "le"),
        check("growth-bound", growth, GROWTH_FACTOR / (1.0 + cfg.alpha), "le"),
        check("increment-consistency", so.hermite_increment_defect(profile),
              INCREMENT_TOL, "le"),
    ]


def _run_blowdown(cfg: SimpleNamespace, stats: so.OdeStats):
    # Every blow-down radius is a node, so each sup is read at x = 1 exactly.
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max, stats,
                                   [so.blow_down_radius(cfg.alpha, float(h)) for h in cfg.scales])
    sups = [so.blow_down(profile, cfg.alpha, float(h))[1] for h in cfg.scales]
    return {"profile.csv": vars(profile), "blowdown.csv": {"h": cfg.scales, "sup_dist": sups}}


def _blowdown_judge(cfg: SimpleNamespace, blowdown):
    sups = blowdown["sup_dist"]
    monotone = bool(all(a > b for a, b in zip(sups, sups[1:])))
    return {"sup_dist": sups[-1]}, [check("supdist-monotone", monotone, None, "true")]


def _run_legendre(cfg: SimpleNamespace, stats: so.OdeStats):
    profile = so.radial_translator(cfg.alpha, cfg.sigma, cfg.r_max, stats)
    dual = so.legendre(profile)
    return {"profile.csv": vars(profile), "dual.csv": {"p": dual.r, "u_star": dual.u,
                                                       "r_argmax": dual.du, "d2u_star": dual.d2u}}


def _legendre_judge(cfg: SimpleNamespace, table):
    dual = so.RadialProfile(table["p"], table["u_star"], table["r_argmax"], table["d2u_star"])
    fit = so.dual_power_fit(dual, cfg.p_lo, cfg.p_hi)
    exp_true = (1.0 + cfg.alpha) / cfg.alpha
    coef_true = cfg.alpha / (1.0 + cfg.alpha)
    scalars = {"exponent": fit.exponent, "coefficient": fit.coefficient,
               "offset": fit.offset}
    return scalars, [
        check("dual-exponent", abs(fit.exponent - exp_true) / exp_true,
              DUAL_EXPONENT_TOL, "le"),
        check("dual-coefficient", abs(fit.coefficient - coef_true) / coef_true,
              DUAL_COEFFICIENT_TOL, "le"),
    ]


def _run_comparison_ode(cfg: SimpleNamespace, stats: so.OdeStats):
    return {"ode.csv": vars(so.comparison_ode(cfg.alpha, cfg.delta, cfg.t_max, stats))}


def _check_ode_horizon(cfg: SimpleNamespace) -> None:
    """The slope rho' stays below 10 delta t e^E(t), with
    E(t) = (10 alpha/(alpha+1)) t^((alpha+1)/alpha), and the march's stages
    hold 10 t^(1/alpha) times it; with a factor 1e3 for the stage weights,
    that must stay inside the float range up to t_max, and so must
    e^E(t_max), which the closed form evaluates.  The factor is a margin:
    without it, DOP853 first overflowed where this bound sat 0.4 to 3.6
    below log(max float), over alpha from 1 down to 0.01 at delta = 1."""
    a = cfg.alpha
    log_power_t = (1.0 + 1.0 / a) * math.log(cfg.t_max)  # log t^((alpha+1)/alpha)
    log_max = math.log(sys.float_info.max)
    log_e = math.log(10.0 * a / (a + 1.0)) + log_power_t
    fits = log_e <= math.log(log_max)
    if fits:
        growth = math.exp(log_e)
        fits = (growth <= log_max
                and math.log(1e5 * cfg.delta) + growth + log_power_t <= log_max)
    _require(fits, "field 't_max' is too long for this alpha and delta: "
             "the slope leaves the float range before it")


def _ode_judge(cfg: SimpleNamespace, ode):
    ts, drho = ode["t"], ode["drho"]
    a_cross = so.crossing_time(ts, drho, 1.0)  # scales like (-log delta)^(alpha/(alpha+1))
    ratio = (a_cross / (-math.log(cfg.delta)) ** (cfg.alpha / (cfg.alpha + 1.0))
             if a_cross is not None and cfg.delta < 1.0 else None)
    reference = so.comparison_closed_form(cfg.alpha, cfg.delta, ts)
    err = float(np.max(np.abs(drho - reference)) / np.max(np.abs(reference)))
    return ({"a_cross": a_cross, "crossing_ratio": ratio, "max_rel_err": err},
            [check("ode-closed-form", err, ODE_AGREEMENT_TOL, "le")])


def _run_log_convexity(cfg: SimpleNamespace, stats: None):
    r, phi_rr, phi_tan = so.log_convexity_grid(cfg.radius, cfg.alpha, cfg.n_points)
    return {"margins.csv": {"r": r, "radial_eig": phi_rr, "tangential_eig": phi_tan}}


def _logconv_judge(cfg: SimpleNamespace, margins):
    margin = float(min(np.min(margins["radial_eig"]), np.min(margins["tangential_eig"])))
    return {"margin": margin}, [check("log-convexity-margin", margin, LOG_CONVEXITY_FLOOR, "ge")]


def _check_reach(cfg: SimpleNamespace) -> None:
    """Every blow-down radius h^(1/(1+alpha)) becomes a profile node, which
    must lie past the series radius and within r_max."""
    lowest = so.blow_down_radius(cfg.alpha, float(cfg.scales[0]))
    _require(lowest > so._SERIES_RADIUS,
             f"field 'scales' must put every radius h^(1/(1+alpha)) past the series "
             f"radius {so._SERIES_RADIUS:g}; the smallest is {lowest:.6g}")
    needed = so.blow_down_radius(cfg.alpha, max(cfg.scales))
    _require(cfg.r_max >= needed,
             f"field 'r_max' must reach the largest rescaling, >= {needed:.6g}")


_GRID_FIELDS = {"seed": 0, "alpha": 1.0, "m": geo.DEFAULT_GRID}
_UNIT_CIRCLE = {"kind": "circle", "radius": 1.0, "center": [0.0, 0.0]}

EXPERIMENTS = {
    "flow": Experiment(
        {**_GRID_FIELDS, "t_max": None, "snapshot_every": 0, "initial_body": _UNIT_CIRCLE},
        _run_flow, _flow_judge,
        "trace.csv", ("extinction_time", "stop_reason", "final_area", "area_defect"),
        _check_flow_body, solver=fl.MarchStats),
    "normalized-rate": Experiment(
        {**_GRID_FIELDS, "mode": 2, "eps": 1e-3, "tau_end": 3.5,
         "fit_window": (1.0, 3.0),
         "initial_body": lambda c: {"kind": "fourier",
                                    "cos": [1.0] + [0.0] * (c["mode"] - 1) + [c["eps"]]}},
        _run_normalized_rate, _rate_judge,
        "rate.csv", ("fitted_rate", "residual_rms"), _check_rate,
        solver=fl.MarchStats),
    "translator1d": Experiment(
        {"alpha": 1.0, "x_max": 20.0},
        _run_translator1d, _translator_judge,
        "profile1d.csv", ("half_width", "slope_end"), solver=_ode_stats),
    "radial-translator": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "r_max": 20.0},
        _run_radial_translator, _radial_judge,
        "profile.csv", ("origin_curvature", "operator_residual", "growth_const"),
        solver=_ode_stats),
    "blowdown": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "scales": (10.0, 100.0, 1000.0, 10000.0),
         "r_max": lambda c: 1.02 * so.blow_down_radius(c["alpha"], max(c["scales"]))},
        _run_blowdown, _blowdown_judge,
        "blowdown.csv", ("sup_dist",), _check_reach, solver=_ode_stats),
    "legendre": Experiment(
        {"alpha": 1.0, "sigma": 1.0, "p_lo": 50.0, "p_hi": 100.0,
         "r_max": lambda c: max(6.0, (1.15 * c["p_hi"]) ** (1.0 / c["alpha"]))},
        _run_legendre, _legendre_judge,
        "dual.csv", ("exponent", "coefficient", "offset"),
        lambda cfg: _require(cfg.p_lo < cfg.p_hi,
                             "fields 'p_lo' and 'p_hi' must satisfy 0 < p_lo < p_hi"),
        solver=_ode_stats),
    "comparison-ode": Experiment(
        {"alpha": 1.0, "delta": 1e-6, "t_max": 3.0},
        _run_comparison_ode, _ode_judge,
        "ode.csv", ("a_cross", "crossing_ratio", "max_rel_err"), _check_ode_horizon,
        solver=_ode_stats),
    "log-convexity": Experiment(
        {"alpha": 1.0, "radius": 1.0, "n_points": 2001},
        _run_log_convexity, _logconv_judge, "margins.csv", ("margin",),
        # The grid stops 1e-3 short of the rim, where -u is about 1e-3 times
        # R^(1+alpha)/(1+alpha) and phi_rr (1e3/R)^2; if either scale squared
        # underflows, the grid divides by zero or overflows.  Past R = 1 no
        # product of the grid exceeds 64 R^(2+2 alpha), which must not overflow.
        lambda cfg: _require(
            min(math.log(1e-3 * cfg.radius),
                (1.0 + cfg.alpha) * math.log(cfg.radius) - math.log(1.0 + cfg.alpha))
            >= 0.5 * math.log(sys.float_info.min)
            and 2.0 * (1.0 + cfg.alpha) * math.log(cfg.radius) + math.log(64.0)
            <= math.log(sys.float_info.max),
            "field 'radius' leaves the float range: (radius/1e3)^2 or "
            "(radius^(1+alpha)/(1+alpha))^2 underflows, or 64 radius^(2+2 alpha) overflows")),
}


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output_dir {path!r} is not writable: {exc}")


def run_config(cfg: SimpleNamespace) -> dict:
    """Execute one experiment, write its CSVs, then its manifest, and return
    the manifest; nothing else writes a run directory.  A run that raises
    writes no CSV, nor a manifest on UsageError.  The source table just
    written is judged, as verify judges it read back.  The manifest's
    timings hold the seconds of each phase that finished, solve, write and
    judge, inside wall_time_s; verify ignores both."""
    _make_dir(cfg.output_dir)
    experiment = EXPERIMENTS[cfg.experiment]
    started = mark = time.perf_counter()
    timings = {}

    def finished(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[phase], mark = now - mark, now

    error = None
    judged = {"scalars": {}, "checks": [], "pass": False}
    stats = experiment.solver() if experiment.solver else None
    try:
        columns = experiment.run(cfg, stats)
        finished("solve")
        for name, table in columns.items():
            tables.write_columns(os.path.join(cfg.output_dir, name), table)
        finished("write")
        judged = _judged(experiment, cfg, columns[experiment.source])
        finished("judge")
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    payload = {
        "artifact": "gcsf",
        "version": __version__,
        "config": vars(cfg),
        "wall_time_s": time.perf_counter() - started,
        "timings": timings,
        "scalars": judged["scalars"],
        "checks": judged["checks"],
        "solver": asdict(stats) if stats is not None else None,
        "pass": judged["pass"],
        "error": error,
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload


# -- subcommands ------------------------------------------------------------

def _load_json(path: str, kind: str = "config"):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read {kind} {path!r}: {exc}")
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"{kind} {path!r} is not valid JSON: {exc}")


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
    for record in manifest["checks"]:
        print(f"check {describe(record)}")
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
    values = ([_json_or_text(chunk) for chunk in values_text.split(",")]
              if values_text.strip() != "" else [])
    labels = [f"{param}={_format_cell(value)}" for value in values]
    for i, label in enumerate(labels):
        _require(label not in labels[:i],
                 f"sweep value {_format_cell(values[i])} repeats: it would write {label} twice")
    _make_dir(base_dir)
    configs = [dict(raw, **{param: value, "output_dir": os.path.join(base_dir, label)})
               for value, label in zip(values, labels)]

    # The pool forks all its workers up front, so never ask for more than
    # there are values or cores.  Its module pulls in multiprocessing, so
    # only a parallel sweep imports it.
    workers = min(_thread_cap(), len(configs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, configs))
    else:
        results = [_sweep_entry(entry) for entry in configs]

    import csv

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


def _same(stored, recomputed) -> bool:
    """Whether a manifest entry reads as its recomputation would be written:
    true and 1, or 0.0 and -0.0, differ, and NaN matches NaN."""
    return json.dumps(stored, sort_keys=True) == json.dumps(recomputed, sort_keys=True)


def cmd_verify(run_dir: str) -> int:
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise UsageError(f"no manifest.json under {run_dir!r}")
    manifest = _load_json(manifest_path, "manifest")
    _require(isinstance(manifest, dict) and isinstance(manifest.get("config"), dict),
             f"manifest {manifest_path!r} holds no config object")
    stored_checks = manifest.get("checks", [])
    _require(isinstance(stored_checks, list)
             and all(isinstance(c, dict) and isinstance(c.get("name"), str)
                     for c in stored_checks),
             f"manifest {manifest_path!r} holds no list of named checks")
    stored_scalars = manifest.get("scalars", {})
    _require(isinstance(stored_scalars, dict)
             and all(isinstance(entry, dict) for entry in stored_scalars.values()),
             f"manifest {manifest_path!r} holds no object of scalar entries")
    if manifest.get("error"):
        print(f"run recorded an error: {manifest['error']}")
        return 2
    cfg = config_from_dict(manifest["config"])
    experiment = EXPERIMENTS[cfg.experiment]
    try:
        judged = _judged(experiment, cfg,
                         tables.read_columns(os.path.join(run_dir, experiment.source)))
    except (ArithmeticError, OSError, RuntimeError, ValueError) as exc:
        print(f"cannot recompute the checks: {type(exc).__name__}: {exc}")
        return 2
    stored_by_name = {c["name"]: c for c in stored_checks}
    ok = True
    for kind, stored, names in (("check", stored_by_name, [c["name"] for c in judged["checks"]]),
                                ("scalar", stored_scalars, judged["scalars"])):
        if set(stored) != set(names):
            print(f"MISMATCH: stored and recomputed {kind} lists differ")
            ok = False
    for record in judged["checks"]:
        agrees = _same(stored_by_name.get(record["name"]), record)
        tag = "matches manifest" if agrees else "MISMATCH with manifest"
        print(f"check {describe(record)} ({tag})")
        ok = ok and agrees and record["pass"]
    for name, entry in judged["scalars"].items():
        if not _same(stored_scalars.get(name), entry):
            print(f"scalar {name}: {entry['value']!r} (MISMATCH with manifest)")
            ok = False
    if not _same(manifest.get("pass"), judged["pass"]):
        print(f"pass: {judged['pass']} (MISMATCH with manifest)")
        ok = False
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
