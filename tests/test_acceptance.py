"""End-to-end acceptance checks for the whole laboratory.

Each test certifies one headline claim at its stated tolerance and prints a
single pass/fail line (visible under pytest -s; pytest -v shows one
PASSED/FAILED line per criterion either way).  A criterion that has an
experiment is judged from the manifests that `gcsf run`, or `gcsf sweep`,
writes for its committed configs under tests/acceptance/: RUNS gives each
config's sweep, and README's "Acceptance suite" the same commands.  What no
experiment computes stays a library test: 06's comparison gap and cone
residual, 08's interval-doubling ratio and the property suites of 12.
Each config runs once per module, however many criteria read it.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from gcsf import cli
from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import solitons as so
from gcsf import tables
from gcsf.flow import FlowParams

CONFIGS = Path(__file__).parent / "acceptance"
DELTAS = "0.001,0.0001,1e-05,1e-06,1e-07,1e-08"

# Each committed config's sweep as (param, values); None runs it once.
RUNS = {
    "01-extinction-time": ("alpha", "0.6,1.0,2.0"),
    **{f"02-shrinking-circle-law-alpha{a}": None for a in ("0.6", "1", "2")},
    "03-linearized-rate": ("alpha", "0.6,1.0,1.5"),
    "04-translator-dichotomy": ("alpha", "1.0,0.5,0.4,0.3"),
    "05-blow-down": ("alpha", "0.8,1.0,1.5"),
    **{f"06-operator-identities-alpha{a}": None for a in ("0.6", "0.8", "1", "1.5", "2")},
    **{f"07-comparison-ode-alpha{a}": ("delta", DELTAS) for a in ("0.6", "1", "2")},
    "08-area-identity": None,
    **{f"09-log-convexity-alpha{a}": ("radius", "0.5,1.0,2.0") for a in ("0.7", "1", "2")},
    "10-legendre-asymptotics": ("alpha", "1.0,2.0"),
    "11-growth-bound": ("alpha", "0.6,1.0,2.0"),
}


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """runs(*names): the manifests of each named config's gcsf command, in
    run order, each command made once under one temporary directory."""
    root = tmp_path_factory.mktemp("acceptance")

    @functools.cache
    def manifests(name):
        out = root / name
        config = [str(CONFIGS / f"{name}.json"), f"--output_dir={out}"]
        with contextlib.redirect_stdout(io.StringIO()):  # -s shows only the report lines
            if RUNS[name] is None:
                cli.main(["run", *config])
                return [_manifest(out)]
            param, values = RUNS[name]
            cli.main(["sweep", *config, f"--param={param}", f"--values={values}"])
        with open(out / "summary.csv", newline="") as f:
            return [_manifest(out / row["run_dir"]) for row in csv.DictReader(f)]

    return lambda *names: [m for name in names for m in manifests(name)]


def _manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


def _check(manifest, name):
    return {c["name"]: c["value"] for c in manifest["checks"]}[name]


def _scalar(manifest, name):
    return manifest["scalars"][name]["value"]


def _alpha(manifest):
    return manifest["config"]["alpha"]


def _passed(manifests):
    return all(m["pass"] for m in manifests)


def _trace(manifest):
    """The trace a flow run wrote."""
    return tables.read_columns(os.path.join(manifest["config"]["output_dir"], "trace.csv"))


def _profile(manifest):
    """The radial profile a run wrote."""
    path = os.path.join(manifest["config"]["output_dir"], "profile.csv")
    return so.RadialProfile(**tables.read_columns(path))


def _configs(criterion):
    """The names of a criterion's committed configs, such as "06"."""
    return [name for name in RUNS if name.startswith(f"{criterion}-")]


# -- criteria ----------------------------------------------------------------

def test_every_committed_config_is_judged():
    assert set(RUNS) == {path.stem for path in CONFIGS.glob("*.json")}


def test_criterion_01_extinction_time(runs):
    manifests = runs("01-extinction-time")
    worst_err = max(_check(m, "extinction-time") for m in manifests)
    worst_wall = max(m["wall_time_s"] for m in manifests)
    ok = _passed(manifests) and worst_err <= 1e-4 and worst_wall <= 10.0
    _report(1, "extinction-time", ok,
            f"worst |T - 1/(1+a)| = {worst_err:.3e} <= 1e-4, "
            f"slowest run {worst_wall:.1f}s <= 10s")


def test_criterion_02_shrinking_circle_law(runs):
    # The runs of 01 stop once T has converged, before 0.9 T at a = 0.6
    # and 1; those of 02 are cut by t_max at 0.9 T and must end there.
    cut = runs(*_configs("02"))
    manifests = runs("01-extinction-time") + cut
    worst = max(_check(m, "circle-law") for m in manifests)
    landed = all(_scalar(m, "stop_reason") == "time_limit"
                 and _trace(m)["t"][-1] == m["config"]["t_max"]
                 for m in cut)
    _report(2, "shrinking-circle-law", _passed(manifests) and worst <= 1e-6 and landed,
            f"worst relative radius error {worst:.3e} <= 1e-6 on the rows up to "
            f"t = 0.9/(1+a), the runs cut there ending at it: {landed}")


def test_criterion_03_linearized_rate(runs):
    # The decay-rate check bounds the error by 0.05 max(|1 - 3a|, 1), which
    # is looser than the criterion's relative 5% where |1 - 3a| < 1.
    manifests = runs("03-linearized-rate")
    worst = 0.0
    for m in manifests:
        expected = fl.linearized_mode_rate(_alpha(m), m["config"]["mode"])  # 1 - 3 alpha
        worst = max(worst, abs(_scalar(m, "fitted_rate") - expected) / abs(expected))
    _report(3, "linearized-rate", _passed(manifests) and worst <= 0.05,
            f"worst relative rate error {worst:.3e} <= 5e-2 for mode 2")


def test_criterion_04_translator_dichotomy(runs):
    manifests = runs("04-translator-dichotomy")
    by_alpha = {_alpha(m): m for m in manifests}
    err_width = abs(_scalar(by_alpha[1.0], "half_width") - math.pi / 2.0)
    err_sinh = _check(by_alpha[0.5], "slope-sinh")
    # At a <= 1/2 the dichotomy check holds only if the profile reaches x = 20.
    entire_ok = all(_scalar(by_alpha[a], "half_width") is None
                    and _check(by_alpha[a], "dichotomy") is True for a in (0.3, 0.4, 0.5))
    ok = _passed(manifests) and err_width <= 1e-6 and err_sinh <= 1e-8 and entire_ok
    _report(4, "translator-dichotomy", ok,
            f"|half width - pi/2| = {err_width:.3e} <= 1e-6, "
            f"sinh error {err_sinh:.3e} <= 1e-8 on [0,5], "
            f"entire up to 20 for a <= 1/2: {entire_ok}")


def test_criterion_05_blow_down(runs):
    # The supdist-monotone check asks for a strict decrease over the scales.
    manifests = runs("05-blow-down")
    finals = {_alpha(m): _scalar(m, "sup_dist") for m in manifests}
    ok = _passed(manifests) and finals[1.0] <= 0.01
    _report(5, "blow-down", ok,
            "sup distance to the cone strictly decreasing over h = 10..1e4; "
            f"at h = 1e4: {finals[1.0]:.3e} <= 0.01 for a = 1")


def test_criterion_06_operator_identities(runs):
    reach = runs(*_configs("06"))
    manifests = reach + runs("11-growth-bound")
    worst_res = max(_check(m, "operator-residual") for m in manifests)
    worst_inc = max(_check(m, "increment-consistency") for m in manifests)
    # The residual reads only (u', u''); the increments tie u' to u.
    ok = _passed(manifests) and worst_res <= 1e-8 and worst_inc <= 1e-6

    # The pointwise comparison with the sigma-free operator holds up to
    # a = 1; beyond that u'(r)^(1/a)/r genuinely dominates near the origin.
    worst_gap = min(so.l0_vs_lsigma(_profile(m), _alpha(m), 1.0)
                    for m in reach if _alpha(m) <= 1.0)
    ok = ok and worst_gap >= -1e-10

    worst_cone = 0.0
    for alpha in (1.0, 1.5, 2.0):
        cone = so.cone_profile(alpha, 20.0)
        worst_cone = max(worst_cone, so.l_sigma_residual(cone, alpha, 0.0))
    ok = ok and worst_cone <= 1e-10
    _report(6, "operator-identities", ok,
            f"translator residual {worst_res:.3e} <= 1e-8 and increment "
            f"defect {worst_inc:.3e} <= 1e-6 on {len(manifests)} profiles, "
            f"min comparison gap {worst_gap:.3e} >= -1e-10 for a <= 1, "
            f"cone residual {worst_cone:.3e} <= 1e-10")


def test_criterion_07_comparison_ode(runs):
    worst_err = 0.0
    worst_band = 0.0
    ok = True
    for name in _configs("07"):
        manifests = runs(name)
        ok = ok and _passed(manifests)
        worst_err = max(worst_err, max(_check(m, "ode-closed-form") for m in manifests))
        ratios = [_scalar(m, "crossing_ratio") for m in manifests]
        band = math.inf if None in ratios else max(ratios) / min(ratios)
        worst_band = max(worst_band, band)
    ok = ok and worst_err <= 1e-8 and worst_band < 3.0
    _report(7, "comparison-ode", ok,
            f"worst closed-form error {worst_err:.3e} <= 1e-8, "
            f"crossing-ratio spread {worst_band:.3f} < 3 across delta = 1e-3..1e-8")


def test_criterion_08_area_identity(runs):
    # a = 1: the rate is exactly -2 pi, so the interior defect is pure noise.
    manifests = [m for m in runs("01-extinction-time") if _alpha(m) == 1.0]
    manifests += runs("08-area-identity")
    worst_defect = max(_check(m, "area-identity") for m in manifests)
    ok = _passed(manifests) and worst_defect <= 1e-6

    # a != 1: doubling the sampling interval must quadruple the defect.  The
    # fine series is every accepted state of the march up to 0.8 T.
    ratios = {}
    for alpha in (0.6, 2.0):
        p = FlowParams(alpha=alpha)
        y = geo.make_circle(1.0).samples
        horizon = 0.8 * fl.run_to_extinction(geo.make_circle(1.0), p).extinction_time
        t, rows = [], []
        for accepted, (clock, _, _, w) in enumerate(fl._etd_march(y, p, math.inf, math.inf)):
            if clock > horizon:
                break
            t.append(clock)
            rows.append(y if accepted == 0 else np.fft.irfft(w, n=p.m))
        t, rows = np.array(t), np.array(rows)
        areas, ints = fl._areas(rows), fl._curvature_integrals(rows, alpha)
        d1 = fl.area_defect(t, areas, ints)
        d2 = fl.area_defect(t[::2], areas[::2], ints[::2])
        ratios[alpha] = d2 / d1
        ok = ok and 3.4 < ratios[alpha] < 4.6
    _report(8, "area-identity", ok,
            f"a=1 interior defect {worst_defect:.3e} <= 1e-6; "
            f"defect ratio under interval doubling "
            f"{ratios[0.6]:.2f}, {ratios[2.0]:.2f} in (3.4, 4.6)")


def test_criterion_09_log_convexity(runs):
    manifests = runs(*_configs("09"))
    worst = min(_scalar(m, "margin") for m in manifests)
    _report(9, "log-convexity", _passed(manifests) and worst >= -1e-10,
            f"min Hessian eigenvalue {worst:.3e} >= -1e-10 over "
            f"{len(manifests)} (a, R) pairs")


def test_criterion_10_legendre_asymptotics(runs):
    manifests = runs("10-legendre-asymptotics")
    worst_exp = max(_check(m, "dual-exponent") for m in manifests)
    worst_coef = max(_check(m, "dual-coefficient") for m in manifests)
    ok = _passed(manifests) and worst_exp <= 0.01 and worst_coef <= 0.02
    _report(10, "legendre-asymptotics", ok,
            f"dual exponent off by {worst_exp:.3e} <= 1e-2, "
            f"coefficient off by {worst_coef:.3e} <= 2e-2 on p in [50, 100]")


def test_criterion_11_growth_bound(runs):
    manifests = runs("11-growth-bound")
    slacks = [1.1 / (1.0 + _alpha(m)) - _scalar(m, "growth_const") for m in manifests]
    worst_slack = min(slacks)
    _report(11, "growth-bound", _passed(manifests) and worst_slack >= 0.0,
            f"u <= C (1 + r^(1+a)) with C <= 1.1/(1+a) at r = 100, "
            f"smallest slack {worst_slack:.3e}")


def test_criterion_12_property_suites(runs):
    rng = np.random.default_rng(12345)
    bodies = [geo.random_convex_body(rng) for _ in range(100)]

    iso_min = min(geo.length(b) ** 2 - 4.0 * math.pi * geo.area(b)
                  for b in bodies)
    circle = geo.make_circle(1.7)
    iso_circle = abs(geo.length(circle) ** 2 - 4.0 * math.pi * geo.area(circle))
    ok = iso_min >= -1e-10 and iso_circle <= 1e-10

    jensen_min = math.inf
    for alpha in (1.0, 1.5, 2.0):
        p = FlowParams(alpha=alpha)
        for b in bodies:
            lhs, rhs = fl.jensen_bound_check(b, p)
            jensen_min = min(jensen_min, lhs - rhs)
    ok = ok and jensen_min >= -1e-12

    # Legendre involution at interpolation tolerance, cone and translators.
    n = 20000
    cone = so.cone_profile(1.0, 10.0)
    dd = so.legendre(so.legendre(cone, n_dual=n), n_dual=n)
    sel = (dd.r >= 0.05 * dd.r[-1]) & (dd.r <= 0.9 * dd.r[-1])
    inv_cone = float(np.max(np.abs(dd.u[sel] - dd.r[sel] ** 2 / 2.0)))
    inv_worst = 0.0
    # The a = 1 and a = 2 translators are the ones criterion 06's runs wrote.
    for run in runs("06-operator-identities-alpha1", "06-operator-identities-alpha2"):
        prof = _profile(run)
        dd = so.legendre(so.legendre(prof, n_dual=n), n_dual=n)
        sel = (dd.r >= 0.05 * dd.r[-1]) & (dd.r <= 0.9 * dd.r[-1])
        spline = CubicHermiteSpline(prof.r, prof.u, prof.du)
        inv_worst = max(inv_worst,
                        float(np.max(np.abs(dd.u[sel] - spline(dd.r[sel])))))
    ok = ok and inv_cone <= 1e-10 and inv_worst <= 1e-6

    # Spectral accuracy: circles are exact at every grid size; an eccentric
    # ellipse's error collapses faster than any fixed order as m doubles.
    spectral_ok = True
    for m in (64, 128, 256):
        c = geo.make_circle(1.0, m=m)
        spectral_ok = spectral_ok and abs(geo.area(c) - math.pi) <= 1e-13 \
            and abs(geo.length(c) - 2.0 * math.pi) <= 1e-13
    errs = [abs(geo.area(geo.make_ellipse(6.0, 1.0, m=m)) - 6.0 * math.pi)
            for m in (64, 128, 256)]
    spectral_ok = spectral_ok and errs[1] < errs[0] / 1e3 and errs[2] <= 1e-10
    spectral_ok = spectral_ok and abs(
        geo.area(geo.make_ellipse(2.0, 1.0)) - 2.0 * math.pi) <= 1e-12
    ok = ok and spectral_ok
    _report(12, "property-suites", ok,
            f"isoperimetric margin {iso_min:.3e} >= -1e-10 on 100 seeded bodies, "
            f"Jensen margin {jensen_min:.3e} >= -1e-12, "
            f"involution error {max(inv_cone, inv_worst):.3e} <= 1e-6, "
            f"spectral collapse {errs[0]:.1e} -> {errs[2]:.1e}")
