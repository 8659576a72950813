"""End-to-end acceptance checks for the whole laboratory.

Each test certifies one headline claim at its stated tolerance and prints a
single pass/fail line (visible under pytest -s; pytest -v shows one
PASSED/FAILED line per criterion either way).  Expensive runs are shared
through module fixtures; the full suite is budgeted well under five minutes
on one core.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import solitons as so
from gcsf.flow import FlowParams, StopReason

ALPHAS_FLOW = (0.6, 1.0, 2.0)
ALPHAS_RATE = (0.6, 1.0, 1.5)
ALPHAS_BLOWDOWN = (0.8, 1.0, 1.5)
DELTAS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- shared expensive artifacts ---------------------------------------------

@pytest.fixture(scope="module")
def extinction_traces():
    """Unit-circle extinction runs at M = 256, with their wall times."""
    out = {}
    for alpha in ALPHAS_FLOW:
        p = FlowParams(alpha=alpha)
        start = time.perf_counter()
        trace = fl.run_to_extinction(geo.make_circle(1.0), p)
        out[alpha] = (trace, time.perf_counter() - start, p)
    return out


@pytest.fixture(scope="module")
def radial_profiles():
    """Radial translators at sigma = 1, far enough out for every consumer."""
    reach = {0.6: 20.0, 0.8: 170.0, 1.0: 110.0, 1.5: 45.0, 2.0: 15.0}
    return {alpha: so.radial_translator(alpha, 1.0, r_max)
            for alpha, r_max in reach.items()}


@pytest.fixture(scope="module")
def far_profiles():
    """Translators marched to r = 100 for the growth-constant check."""
    return {alpha: so.radial_translator(alpha, 1.0, 100.0) for alpha in (0.6, 1.0, 2.0)}


# -- criteria ----------------------------------------------------------------

def test_criterion_01_extinction_time(extinction_traces):
    worst_err = 0.0
    worst_wall = 0.0
    ok = True
    for alpha, (trace, wall, _) in extinction_traces.items():
        expected = 1.0 / (1.0 + alpha)
        ok = ok and trace.stop_reason is StopReason.EXTINCT
        err = abs(trace.extinction_time - expected)
        worst_err = max(worst_err, err)
        worst_wall = max(worst_wall, wall)
        ok = ok and err <= 1e-4 and wall <= 10.0
    _report(1, "extinction-time", ok,
            f"worst |T - 1/(1+a)| = {worst_err:.3e} <= 1e-4, "
            f"slowest run {worst_wall:.1f}s <= 10s")


def test_criterion_02_shrinking_circle_law(extinction_traces):
    worst = 0.0
    for alpha, (trace, _, _) in extinction_traces.items():
        a1 = 1.0 + alpha
        for t, row in zip(trace.times, trace.samples):
            if t > 0.9 / a1:
                break
            law = (1.0 - a1 * t) ** (1.0 / a1)
            worst = max(worst, abs(geo.inradius(geo.SupportFunction(row)) - law) / law)
    _report(2, "shrinking-circle-law", worst <= 1e-6,
            f"worst relative radius error {worst:.3e} <= 1e-6 up to t = 0.9/(1+a)")


def test_criterion_03_linearized_rate():
    worst = 0.0
    body = geo.make_fourier_body([1.0, 0.0, 1e-3])
    for alpha in ALPHAS_RATE:
        series = fl.mode_decay_series(body, FlowParams(alpha=alpha), 3.5, 2)
        fit = fl.fit_decay_rate(series, (1.0, 3.0))
        expected = fl.linearized_mode_rate(alpha, 2)  # 1 - 3 alpha
        worst = max(worst, abs(fit.rate - expected) / abs(expected))
    _report(3, "linearized-rate", worst <= 0.05,
            f"worst relative rate error {worst:.3e} <= 5e-2 for mode 2")


def test_criterion_04_translator_dichotomy():
    strip = so.translator_1d(1.0, 20.0)
    err_width = abs(strip.domain_half_width - math.pi / 2.0)
    ok = err_width <= 1e-6

    half = so.translator_1d(0.5, 20.0)
    window = half.x <= 5.0
    err_sinh = float(np.max(np.abs(half.dv[window] - np.sinh(half.x[window]))))
    ok = ok and err_sinh <= 1e-8

    entire_ok = True
    for alpha in (0.3, 0.4, 0.5):
        prof = so.translator_1d(alpha, 20.0)
        entire_ok = entire_ok and prof.domain_half_width is None \
            and prof.x[-1] == pytest.approx(20.0, abs=1e-12)
    _report(4, "translator-dichotomy", ok and entire_ok,
            f"|half width - pi/2| = {err_width:.3e} <= 1e-6, "
            f"sinh error {err_sinh:.3e} <= 1e-8 on [0,5], "
            f"entire up to 20 for a <= 1/2: {entire_ok}")


def test_criterion_05_blow_down(radial_profiles):
    ok = True
    finals = {}
    for alpha in ALPHAS_BLOWDOWN:
        prof = radial_profiles[alpha]
        sups = [so.blow_down(prof, alpha, h)[1] for h in (10.0, 1e2, 1e3, 1e4)]
        ok = ok and all(b < a for a, b in zip(sups, sups[1:]))
        finals[alpha] = sups[-1]
    ok = ok and finals[1.0] <= 0.01
    _report(5, "blow-down", ok,
            "sup distance to the cone strictly decreasing over h = 10..1e4; "
            f"at h = 1e4: {finals[1.0]:.3e} <= 0.01 for a = 1")


def test_criterion_06_operator_identities(radial_profiles, far_profiles):
    worst_res = 0.0
    worst_inc = 0.0
    for profiles in (radial_profiles, far_profiles):
        for alpha, prof in profiles.items():
            worst_res = max(worst_res, so.l_sigma_residual(prof, alpha, 1.0))
            worst_inc = max(worst_inc, so.hermite_increment_defect(prof))
    # The residual reads only (u', u''); the increments tie u' to u.
    ok = worst_res <= 1e-8 and worst_inc <= 1e-6

    # The pointwise comparison with the sigma-free operator holds up to
    # a = 1; beyond that u'(r)^(1/a)/r genuinely dominates near the origin.
    worst_gap = math.inf
    for alpha in (0.6, 0.8, 1.0):
        worst_gap = min(worst_gap,
                        so.l0_vs_lsigma(radial_profiles[alpha], alpha, 1.0))
    ok = ok and worst_gap >= -1e-10

    worst_cone = 0.0
    for alpha in (1.0, 1.5, 2.0):
        cone = so.cone_profile(alpha, 20.0)
        worst_cone = max(worst_cone, so.l_sigma_residual(cone, alpha, 0.0))
    ok = ok and worst_cone <= 1e-10
    _report(6, "operator-identities", ok,
            f"translator residual {worst_res:.3e} <= 1e-8 and increment "
            f"defect {worst_inc:.3e} <= 1e-6 on 8 profiles, "
            f"min comparison gap {worst_gap:.3e} >= -1e-10 for a <= 1, "
            f"cone residual {worst_cone:.3e} <= 1e-10")


def test_criterion_07_comparison_ode():
    worst_err = 0.0
    worst_band = 0.0
    for alpha in ALPHAS_FLOW:
        ratios = []
        for delta in DELTAS:
            scale = (-math.log(delta)) ** (alpha / (alpha + 1.0))
            sol = so.comparison_ode(alpha, delta, 1.0 + 0.8 * scale)
            ref = so.comparison_closed_form(alpha, delta, sol.t)
            err = float(np.max(np.abs(sol.drho - ref)) / np.max(np.abs(ref)))
            worst_err = max(worst_err, err)
            ratios.append(sol.a_cross / scale)
        worst_band = max(worst_band, max(ratios) / min(ratios))
    ok = worst_err <= 1e-8 and worst_band < 3.0
    _report(7, "comparison-ode", ok,
            f"worst closed-form error {worst_err:.3e} <= 1e-8, "
            f"crossing-ratio spread {worst_band:.3f} < 3 across delta = 1e-3..1e-8")


def test_criterion_08_area_identity(extinction_traces):
    # a = 1: the rate is exactly -2 pi, so the interior defect is pure noise.
    p1 = FlowParams(alpha=1.0)
    ellipse = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0), p1)
    defect_ellipse = fl.area_rate_check(ellipse.columns)
    circle_trace = extinction_traces[1.0][0]
    defect_circle = fl.area_rate_check(circle_trace.columns)
    worst_defect = max(defect_ellipse, defect_circle)
    ok = worst_defect <= 1e-6

    # a != 1: doubling the sampling interval must quadruple the defect.
    ratios = {}
    for alpha in (0.6, 2.0):
        trace, _, _ = extinction_traces[alpha]
        times = np.asarray(trace.times)
        idx = np.nonzero(times <= 0.8 * trace.extinction_time)[0]
        t = times[idx]
        areas = np.asarray(trace.areas)[idx]
        ints = np.array([fl.curvature_integral(geo.SupportFunction(trace.samples[i]), alpha)
                         for i in idx])
        d1 = fl.area_defect(t, areas, ints)
        d2 = fl.area_defect(t[::2], areas[::2], ints[::2])
        ratios[alpha] = d2 / d1
        ok = ok and 3.4 < ratios[alpha] < 4.6
    _report(8, "area-identity", ok,
            f"a=1 interior defect {worst_defect:.3e} <= 1e-6; "
            f"defect ratio under interval doubling "
            f"{ratios[0.6]:.2f}, {ratios[2.0]:.2f} in (3.4, 4.6)")


def test_criterion_09_log_convexity():
    worst = math.inf
    for alpha in (0.7, 1.0, 2.0):
        for R in (0.5, 1.0, 2.0):
            worst = min(worst, so.radial_log_convexity(R, alpha))
    _report(9, "log-convexity", worst >= -1e-10,
            f"min Hessian eigenvalue {worst:.3e} >= -1e-10 over 9 (a, R) pairs")


def test_criterion_10_legendre_asymptotics(radial_profiles):
    worst_exp = 0.0
    worst_coef = 0.0
    for alpha in (1.0, 2.0):
        fit = so.dual_power_fit(so.legendre(radial_profiles[alpha]), 50.0, 100.0)
        exp_true = (1.0 + alpha) / alpha
        coef_true = alpha / (1.0 + alpha)
        worst_exp = max(worst_exp, abs(fit.exponent - exp_true) / exp_true)
        worst_coef = max(worst_coef, abs(fit.coefficient - coef_true) / coef_true)
    ok = worst_exp <= 0.01 and worst_coef <= 0.02
    _report(10, "legendre-asymptotics", ok,
            f"dual exponent off by {worst_exp:.3e} <= 1e-2, "
            f"coefficient off by {worst_coef:.3e} <= 2e-2 on p in [50, 100]")


def test_criterion_11_growth_bound(far_profiles):
    worst_slack = math.inf
    ok = True
    for alpha, prof in far_profiles.items():
        c = so.growth_bound_check(prof, alpha)
        bound = 1.1 / (1.0 + alpha)
        ok = ok and c <= bound
        worst_slack = min(worst_slack, bound - c)
    _report(11, "growth-bound", ok,
            f"u <= C (1 + r^(1+a)) with C <= 1.1/(1+a) at r = 100, "
            f"smallest slack {worst_slack:.3e}")


def test_criterion_12_property_suites(radial_profiles):
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
    for alpha in (1.0, 2.0):
        prof = radial_profiles[alpha]
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
