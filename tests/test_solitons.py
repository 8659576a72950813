import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.special import gamma

from gcsf import cli, tables
from gcsf import solitons as so
from gcsf.solitons import Profile1D, RadialProfile


def half_width_oracle(alpha):
    # x(v' -> inf) = integral of (1+z^2)^-q dz over [0, inf),
    # a beta integral: (sqrt(pi)/2) Gamma(q - 1/2) / Gamma(q).
    q = 1.5 - 0.5 / alpha
    return 0.5 * math.sqrt(math.pi) * gamma(q - 0.5) / gamma(q)


# -- 1-D translator ----------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 1.5, 2.0])
def test_half_width_matches_beta_integral(alpha):
    prof = so.translator_1d(alpha, 20.0)
    width = so.blow_up_half_width(alpha, 20.0, prof.x, prof.dv)
    assert width is not None
    assert abs(width - half_width_oracle(alpha)) <= 1e-7


def test_half_width_alpha_one_is_half_pi():
    prof = so.translator_1d(1.0, 20.0)
    assert abs(so.blow_up_half_width(1.0, 20.0, prof.x, prof.dv) - math.pi / 2.0) <= 1e-8


def test_alpha_half_slope_is_sinh():
    # q = 1/2 turns the slope ODE into w' = sqrt(1+w^2), w = sinh(x).
    prof = so.translator_1d(0.5, 20.0)
    window = prof.x <= 5.0
    err = np.max(np.abs(prof.dv[window] - np.sinh(prof.x[window])))
    assert err <= 1e-8
    err_v = np.max(np.abs(prof.v[window] - (np.cosh(prof.x[window]) - 1.0)))
    assert err_v <= 1e-8


def test_alpha_half_slope_stays_finite_past_the_squared_overflow():
    # v'^2 overflows near x = 355; v' = sinh x itself stays a float to x ~ 710.
    prof = so.translator_1d(0.5, 700.0)
    assert prof.x[-1] == 700.0
    assert so.blow_up_half_width(0.5, 700.0, prof.x, prof.dv) is None
    assert abs(prof.dv[-1] / math.sinh(prof.x[-1]) - 1.0) <= 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5])
def test_entire_profiles_reach_the_box(alpha):
    prof = so.translator_1d(alpha, 20.0)
    assert so.blow_up_half_width(alpha, 20.0, prof.x, prof.dv) is None
    assert prof.x[-1] == pytest.approx(20.0, abs=1e-12)
    assert np.all(np.isfinite(prof.dv))


def test_strip_profiles_stop_inside_their_width():
    prof = so.translator_1d(0.6, 20.0)
    assert prof.x[-1] < so.blow_up_half_width(0.6, 20.0, prof.x, prof.dv) < 20.0


def test_tail_half_width_rejects_entire_range():
    with pytest.raises(ValueError):
        so.strip_half_width(0.5, 1.0, 1e4)


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0, 2.0, 5.0])
def test_strip_half_width_from_the_origin_is_the_whole_beta_integral(alpha):
    # One closed form serves the whole strip and the tail past a march's
    # last row: from (0, 0) the incomplete beta factor is 1.
    assert so.strip_half_width(alpha) == so.strip_half_width(alpha, 0.0, 0.0)
    assert so.strip_half_width(alpha) == pytest.approx(half_width_oracle(alpha), rel=1e-15,
                                                       abs=0.0)


def test_translator_1d_validation():
    with pytest.raises(ValueError):
        so.translator_1d(0.0, 1.0)
    with pytest.raises(ValueError):
        so.translator_1d(1.0, -1.0)


def test_strip_profile_that_reaches_the_box_has_not_blown_up():
    # tan x reaches slope 1.56 at x = 1, far below the switch: no half-width.
    prof = so.translator_1d(1.0, 1.0)
    assert prof.x[-1] == 1.0
    assert so.blow_up_half_width(1.0, 1.0, prof.x, prof.dv) is None


def test_blow_up_is_read_off_the_last_row():
    prof = so.translator_1d(1.0, 20.0)
    assert prof.dv[-1] == pytest.approx(so.SLOPE_SWITCH, rel=1e-9)
    assert (so.blow_up_half_width(1.0, 20.0, prof.x, prof.dv)
            == so.strip_half_width(1.0, prof.x[-1], prof.dv[-1]))


def test_profile1d_validation():
    with pytest.raises(ValueError):
        Profile1D(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        Profile1D(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2))


def test_profile_grid_rejects_nan():
    with pytest.raises(ValueError, match="grid must increase strictly from 0"):
        Profile1D(np.array([0.0, np.nan, 2.0]), np.zeros(3), np.zeros(3))


# -- radial translator -------------------------------------------------------

def test_origin_curvature_matches_series():
    # u''(0) = sigma^(1/2 - 1/(2 alpha)) / 2
    for alpha, sigma in ((1.0, 1.0), (1.0, 0.25), (2.0, 0.25), (0.8, 0.5)):
        prof = so.radial_translator(alpha, sigma, 2.0)
        expected = sigma ** (0.5 - 0.5 / alpha) / 2.0
        assert abs(prof.d2u[0] - expected) <= 1e-14
        assert prof.r[0] == 0.0 and prof.u[0] == 0.0 and prof.du[0] == 0.0


@pytest.mark.parametrize("alpha,r_max", [(0.6, 20.0), (1.0, 20.0), (2.0, 15.0)])
def test_radial_translator_solves_its_operator(alpha, r_max):
    prof = so.radial_translator(alpha, 1.0, r_max)
    prof.check_convex()
    assert so.l_sigma_residual(prof, alpha, 1.0) <= 1e-10


def test_residual_detects_non_translators():
    cone = so.cone_profile(1.0, 10.0)
    assert so.l_sigma_residual(cone, 1.0, 1.0) > 0.1


def test_alpha_two_far_march_stays_on_branch():
    # The slope equation is stiffly attracting at large radius; the far
    # march must stay convex instead of oscillating off the branch.
    prof = so.radial_translator(2.0, 1.0, 40.0)
    prof.check_convex()
    assert so.l_sigma_residual(prof, 2.0, 1.0) <= 1e-10


@pytest.mark.parametrize("alpha,r_max,u_end,du_end", [
    (1.0, 110.0, 6044.647285805222, 109.9909075875959),
    (2.0, 40.0, 21328.74068796661, 1599.9978124905924),
])
def test_radial_translator_matches_the_rk4_reference(alpha, r_max, u_end, du_end):
    # u(r_max), u'(r_max) of a classical RK4 march (h = 5e-3, each step
    # capped at |dg/dw| h <= 1), frozen when LSODA replaced it.
    prof = so.radial_translator(alpha, 1.0, r_max)
    assert prof.r[-1] == r_max
    assert abs(prof.u[-1] / u_end - 1.0) <= 1e-10
    assert abs(prof.du[-1] / du_end - 1.0) <= 1e-10


def test_radial_nodes_follow_the_spacing_rule():
    prof = so.radial_translator(1.0, 1.0, 40.0)
    np.testing.assert_allclose(prof.r[:6], [0.0, 1e-3, 2e-3, 4e-3, 8e-3, 13e-3])
    # r_(k+1) = r_k + min(r_k, max(5e-3, r_k/400)): 5e-3 apart up to r = 2,
    # 0.25% of r past it, and a last interval cut short by landing on r_max.
    r = prof.r[1:-1]
    spacing = np.minimum(r, np.maximum(5e-3, r / 400.0))
    steps = np.diff(prof.r[1:])
    np.testing.assert_allclose(steps[:-1], spacing[:-1], rtol=1e-9)
    assert 0.1 * spacing[-1] < steps[-1] <= 1.1 * spacing[-1]
    assert prof.r.size == 1604


def test_the_march_starts_at_the_series_radius_however_close_r_max_is():
    # r_max within a tenth of a spacing of the series radius keeps it.
    prof = so.radial_translator(1.0, 1.0, 1.1e-3)
    np.testing.assert_array_equal(prof.r, [0.0, 1e-3, 1.1e-3])
    assert so.l_sigma_residual(prof, 1.0, 1.0) <= 1e-10


def test_a_profile_at_the_r_max_cap_has_few_nodes():
    # The r_max cap's profile, counted without marching it.
    assert so._radial_nodes(cli.MAX_R_MAX).size < 5000


def test_landing_on_r_max_leaves_no_sliver():
    # r_max and an extra radius each a hair past a node of the grid; an
    # interval that thin would fail the increment check on roundoff alone.
    grid = so._radial_nodes(10.0)
    r_max, radius = (float(np.nextafter(node, np.inf)) for node in grid[[-20, -40]])
    prof = so.radial_translator(2.0, 1.0, r_max, radii=[radius])
    assert prof.r[-1] == r_max and radius in prof.r
    assert np.all(np.diff(prof.r)[1:] >= 0.1 * so._node_spacing(prof.r[1:-1]))
    assert so.hermite_increment_defect(prof) <= 1e-8


def test_increment_defect_catches_a_slope_the_residual_misses():
    alpha, sigma = 2.0, 1.0
    prof = so.radial_translator(alpha, sigma, 5.0)
    assert so.hermite_increment_defect(prof) <= 1e-8

    # Slope 5% off everywhere, u'' recomputed from the ODE at that slope.
    e1 = 0.5 - 0.5 / alpha
    du = 1.05 * prof.du
    d2u = prof.d2u.copy()
    r, w = prof.r[1:], du[1:]
    d2u[1:] = ((sigma + w * w) / sigma) * ((sigma + w * w) ** e1 - w / r)
    wrong = RadialProfile(prof.r, prof.u, du, d2u)
    assert so.l_sigma_residual(wrong, alpha, sigma) <= 1e-12
    assert so.hermite_increment_defect(wrong) > 1e-6


def test_radial_translator_validation():
    with pytest.raises(ValueError):
        so.radial_translator(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        so.radial_translator(1.0, 1.5, 10.0)
    with pytest.raises(ValueError):
        so.radial_translator(1.0, 1.0, 1e-4)


def test_growth_constant_of_the_cone():
    cone = so.cone_profile(1.0, 10.0)
    c = so.growth_bound_check(cone, 1.0)
    assert 0.45 <= c < 0.5  # sup of (r^2/2)/(1+r^2) on [0, 10]


# -- operator comparison -----------------------------------------------------

def test_cone_is_an_exact_translator_for_l_zero():
    for alpha in (1.0, 1.5, 2.0):
        cone = so.cone_profile(alpha, 10.0)
        assert so.l_sigma_residual(cone, alpha, 0.0) <= 1e-12


def test_l0_below_lsigma_up_to_alpha_one():
    for alpha, r_max in ((0.6, 20.0), (1.0, 20.0)):
        prof = so.radial_translator(alpha, 1.0, r_max)
        assert so.l0_vs_lsigma(prof, alpha, 1.0) >= -1e-10


def test_l0_comparison_fails_pointwise_beyond_alpha_one():
    # Near the origin u' ~ c r while the sigma-free operator carries
    # u'^(1/alpha)/r ~ r^(1/alpha - 1), which dominates once alpha > 1;
    # the pointwise gap genuinely reverses there.
    prof = so.radial_translator(1.5, 1.0, 20.0)
    assert so.l0_vs_lsigma(prof, 1.5, 1.0) < -1.0


def test_l0_comparison_needs_positive_gradient():
    flat = RadialProfile(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3),
                         np.zeros(3))
    with pytest.raises(ValueError):
        so.l0_vs_lsigma(flat, 1.0, 1.0)


# -- blow-down ---------------------------------------------------------------

def test_blow_down_of_cone_is_itself():
    cone = so.cone_profile(1.0, 10.0)
    rescaled, sup = so.blow_down(cone, 1.0, 25.0)
    assert sup <= 1e-13
    assert rescaled.r[-1] == pytest.approx(1.0, abs=1e-12)


def test_blow_down_converges_along_scales():
    scales = (10.0, 1e2, 1e3, 1e4)
    prof = so.radial_translator(1.0, 1.0, 110.0,
                                radii=[so.blow_down_radius(1.0, h) for h in scales])
    sups = [so.blow_down(prof, 1.0, h)[1] for h in scales]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    expected = [1.6169445e-01, 2.9446103e-02, 4.1051914e-03, 5.2573866e-04]
    np.testing.assert_allclose(sups, expected, rtol=1e-6)


def test_blow_down_validation():
    cone = so.cone_profile(1.0, 10.0)
    with pytest.raises(ValueError):
        so.blow_down(cone, 1.0, -1.0)
    with pytest.raises(ValueError):
        so.blow_down(cone, 1.0, 1e6)  # needs r up to 1000


# -- legendre transform ------------------------------------------------------

def test_legendre_of_cone_is_the_dual_cone():
    cone = so.cone_profile(1.0, 10.0)
    dual = so.legendre(cone)
    np.testing.assert_allclose(dual.u, dual.r**2 / 2.0, atol=1e-12)
    np.testing.assert_allclose(dual.du, dual.r, atol=1e-10)


def test_legendre_involution():
    n = 20000
    cone = so.cone_profile(1.0, 10.0)
    dd = so.legendre(so.legendre(cone, n_dual=n), n_dual=n)
    sel = (dd.r >= 0.05 * dd.r[-1]) & (dd.r <= 0.9 * dd.r[-1])
    np.testing.assert_allclose(dd.u[sel], dd.r[sel] ** 2 / 2.0, atol=1e-10)

    prof = so.radial_translator(1.0, 1.0, 20.0)
    dd = so.legendre(so.legendre(prof, n_dual=n), n_dual=n)
    sel = (dd.r >= 0.05 * dd.r[-1]) & (dd.r <= 0.9 * dd.r[-1])
    spline = CubicHermiteSpline(prof.r, prof.u, prof.du)
    assert np.max(np.abs(dd.u[sel] - spline(dd.r[sel]))) <= 1e-6


def test_legendre_is_exact_at_nodal_slopes():
    # u = r^3/3 on uneven nodes whose slopes r^2 are the dual's uniform p
    # grid: every p is some u'_i, where u* = r_i u'_i - u_i.
    du = np.linspace(0.0, 9.0, 301)
    r = np.sqrt(du)
    prof = RadialProfile(r, r**3 / 3.0, du, 2.0 * r)
    dual = so.legendre(prof)
    np.testing.assert_array_equal(dual.r, du)
    np.testing.assert_allclose(dual.du, r, rtol=1e-15)
    np.testing.assert_allclose(dual.u, r * du - prof.u, rtol=1e-15, atol=1e-15)


def test_legendre_rejects_non_convex_input():
    flat = RadialProfile(np.array([0.0, 1.0, 2.0]),
                         np.array([0.0, 1.0, 2.0]),
                         np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        so.legendre(flat)


def test_dual_power_fit_recovers_translator_asymptotics():
    dual = so.legendre(so.radial_translator(1.0, 1.0, 110.0))
    fit = so.dual_power_fit(dual)
    assert abs(fit.exponent - 2.0) <= 1e-3
    assert abs(fit.coefficient - 0.5) <= 2e-3
    # the constant term the three-parameter model exists to absorb
    assert 0.0 < fit.offset < 5.0


def test_dual_power_fit_needs_points_in_window():
    dual = so.legendre(so.cone_profile(1.0, 10.0))  # p only reaches 10
    with pytest.raises(ValueError):
        so.dual_power_fit(dual, 50.0, 100.0)


# -- comparison ODE ----------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_comparison_ode_matches_closed_form(alpha):
    sol = so.comparison_ode(alpha, 1e-6, 2.0)
    ref = so.comparison_closed_form(alpha, 1e-6, sol.t)
    err = np.max(np.abs(sol.drho - ref)) / np.max(np.abs(ref))
    assert err <= 1e-8


@pytest.mark.parametrize("alpha,delta", [(0.6, 1e-3), (2.0, 1e-8)])
def test_comparison_ode_rows_are_the_accepted_steps(alpha, delta):
    t_max = 1.0 + 0.8 * (-math.log(delta)) ** (alpha / (1.0 + alpha))
    sol = so.comparison_ode(alpha, delta, t_max)
    assert sol.t[0] == 0.0 and sol.t[-1] == t_max
    assert np.all(np.diff(sol.t) > 0.0)
    assert sol.t.size == sol.rho.size == sol.drho.size
    ref = so.comparison_closed_form(alpha, delta, sol.t)
    assert np.max(np.abs(sol.drho - ref)) / np.max(np.abs(ref)) <= 1e-8


def test_closed_form_satisfies_the_ode():
    # central difference of rho' against 10 t^(1/alpha) rho' + 10 delta
    alpha, delta = 0.7, 1e-3
    h = 1e-4
    ts = np.linspace(0.2, 1.2, 11)
    grid = np.sort(np.concatenate([ts - h, ts, ts + h, [0.0]]))
    vals = dict(zip(grid, so.comparison_closed_form(alpha, delta, grid)))
    for t in ts:
        lhs = (vals[t + h] - vals[t - h]) / (2.0 * h)
        rhs = 10.0 * t ** (1.0 / alpha) * vals[t] + 10.0 * delta
        assert abs(lhs - rhs) / abs(rhs) <= 1e-6


def test_crossing_is_consistent_with_closed_form():
    sol = so.comparison_ode(1.0, 1e-6, 3.0)
    a_cross = so.crossing_time(sol.t, sol.drho, 1.0)
    assert a_cross is not None
    ref = so.comparison_closed_form(1.0, 1e-6, np.linspace(0.0, a_cross, 20001))
    assert abs(ref[-1] - 1.0) <= 1e-8


def test_no_crossing_before_the_slope_builds_up():
    sol = so.comparison_ode(1.0, 1e-6, 0.2)
    assert so.crossing_time(sol.t, sol.drho, 1.0) is None
    assert np.max(sol.drho) < 1.0


def test_crossing_scale_tracks_log_delta():
    # a_cross grows like (-log delta)^(alpha/(1+alpha)) up to a bounded factor
    ratios = []
    for delta in (1e-4, 1e-6, 1e-8):
        sol = so.comparison_ode(1.0, delta, 3.0)
        ratios.append(so.crossing_time(sol.t, sol.drho, 1.0) / (-math.log(delta)) ** 0.5)
    assert max(ratios) / min(ratios) < 1.15
    assert 0.3 < min(ratios) < 0.6


@pytest.mark.parametrize("alpha, delta", [(0.6, 1e-8), (1.0, 1e-6), (2.0, 1e-3)])
def test_the_located_crossing_is_a_row(alpha, delta):
    sol = so.comparison_ode(alpha, delta, 3.0)
    assert np.all(np.diff(sol.t) > 0.0)
    (k,) = np.flatnonzero(sol.t == so.crossing_time(sol.t, sol.drho, 1.0))
    assert abs(sol.drho[k] - 1.0) <= 1e-14
    # The accepted steps on either side sit far outside crossing_time's
    # 1e-9 reading tolerance.
    assert sol.drho[k - 1] < 1.0 - 1e-2 and sol.drho[k + 1] > 1.0 + 1e-2


def test_crossing_time_reads_the_first_row_at_the_level():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    assert so.crossing_time(t, np.array([0.0, 1.0 - 2e-9, 1.0 - 5e-10, 2.0]), 1.0) == 2.0
    assert so.crossing_time(t, np.array([0.0, 0.5, 0.9, 0.99]), 1.0) is None


def test_comparison_ode_validation():
    with pytest.raises(ValueError):
        so.comparison_ode(0.0, 1e-6, 1.0)
    with pytest.raises(ValueError):
        so.comparison_ode(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        so.comparison_ode(1.0, 1e-6, 0.0)


# -- references: the same ODEs through solve_ivp -----------------------------
# solve_ivp runs the same integrators (LSODA, DOP853) at the same tolerances
# with a Python step loop, and locates crossings with its own events.

def _solve_ivp(rhs, span, y0, method, atol=1e-14, **options):
    sol = solve_ivp(rhs, span, y0, method=method, rtol=1e-12, atol=atol, **options)
    assert sol.success
    return sol


def radial_reference(alpha, r_max):
    """(u, u') at the radial nodes, sigma = 1, from the same series start."""
    e1 = 0.5 - 0.5 / alpha
    c = 0.5
    c3 = c**3 * (1.0 + 2.0 * e1) / 4.0

    def rhs(r, y):
        w = y[1]
        return [w, (1.0 + w * w) * ((1.0 + w * w) ** e1 - w / r)]

    def jacobian(r, y):
        w = y[1]
        g2 = 1.0 + w * w
        return [[0.0, 1.0],
                [0.0, (2.0 + 2.0 * e1) * w * g2**e1 - g2 / r - 2.0 * w * w / r]]

    r1 = 1e-3
    start = [c * r1**2 / 2.0 + c3 * r1**4 / 4.0, c * r1 + c3 * r1**3]
    return _solve_ivp(rhs, (r1, r_max), start, "LSODA", t_eval=so._radial_nodes(r_max),
                      jac=jacobian).y


def half_width_reference(alpha):
    q = 1.5 - 0.5 / alpha

    def rhs(_x, y):
        return [y[1], (1.0 + y[1] * y[1]) ** q]

    def steep(_x, y):
        return y[1] - so.SLOPE_SWITCH

    steep.terminal = True
    sol = _solve_ivp(rhs, (0.0, 20.0), [0.0, 0.0], "DOP853", events=steep)
    return so.strip_half_width(alpha, sol.t[-1], sol.y[1, -1])


def crossing_reference(alpha, delta, t_max):
    def rhs(t, y):
        return [y[1], 10.0 * t ** (1.0 / alpha) * y[1] + 10.0 * delta]

    def slope_one(_t, y):
        return y[1] - 1.0

    slope_one.direction = 1.0
    sol = _solve_ivp(rhs, (0.0, t_max), [-delta, 0.0], "DOP853", atol=1e-14 * delta,
                     events=slope_one)
    return sol.t_events[0][0]


@pytest.mark.parametrize("alpha,r_max", [(0.6, 200.0), (1.0, 115.0), (1.5, 40.6), (2.0, 100.0)])
def test_radial_translator_matches_the_solve_ivp_reference(alpha, r_max):
    u, du = radial_reference(alpha, r_max)
    prof = so.radial_translator(alpha, 1.0, r_max)
    far = prof.r[1:] > 1.0
    assert np.max(np.abs(prof.u[1:][far] / u[far] - 1.0)) <= 1e-10
    assert np.max(np.abs(prof.du[1:][far] / du[far] - 1.0)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0, 5.0])
def test_half_width_matches_the_solve_ivp_reference(alpha):
    prof = so.translator_1d(alpha, 20.0)
    width = so.blow_up_half_width(alpha, 20.0, prof.x, prof.dv)
    assert abs(width / half_width_reference(alpha) - 1.0) <= 1e-13


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_crossing_matches_the_solve_ivp_reference(alpha):
    delta = 1e-8
    t_max = 1.0 + 0.8 * (-math.log(delta)) ** (alpha / (1.0 + alpha))
    sol = so.comparison_ode(alpha, delta, t_max)
    a_cross = so.crossing_time(sol.t, sol.drho, 1.0)
    assert abs(a_cross / crossing_reference(alpha, delta, t_max) - 1.0) <= 1e-12


# -- failure and cost of the compiled marches --------------------------------

MARCHES = {
    "radial_translator": ((2.0, 1.0, 40.0), "LSODA failed near r = "),
    "translator_1d": ((1.0, 20.0), "DOP853 failed past t = "),
    "comparison_ode": ((1.0, 1e-6, 3.0), "DOP853 failed past t = "),
}


@pytest.mark.parametrize("name", sorted(MARCHES))
def test_a_march_past_the_step_cap_fails_in_one_error(monkeypatch, name):
    args, message = MARCHES[name]
    monkeypatch.setattr(so, "MAX_STEPS", 5)
    stats = so.OdeStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the driver's own warning must not leak
        with pytest.raises(RuntimeError, match=f"^{message}") as failure:
            getattr(so, name)(*args, stats=stats)
    assert "\n" not in str(failure.value)
    # the counts up to the failure, none read from past it; DOP853 tests
    # its cap before a step, so it may finish one step past it
    assert 0 < stats.accepted_steps <= 6
    assert stats.rhs_evals >= stats.accepted_steps


def test_a_march_to_a_non_finite_state_fails_in_one_error():
    # The entire alpha = 0.3 profile's slope leaves the float range far
    # short of x_max = 1e300.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError,
                           match=r"^DOP853 failed past t = \S+: non-finite state$"):
            so.translator_1d(0.3, 1e300)


@pytest.mark.parametrize("name", sorted(MARCHES))
def test_marches_count_their_work(name):
    args, _ = MARCHES[name]
    counts = []
    for _ in range(2):
        stats = so.OdeStats()
        result = getattr(so, name)(*args, stats=stats)
        counts.append(stats)
    assert counts[0] == counts[1]
    assert 0 < stats.accepted_steps < stats.rhs_evals
    if name == "radial_translator":
        assert 0 < stats.jacobian_evals < stats.accepted_steps
    else:
        # every accepted step is a row and so is the located crossing, which
        # on the terminal translator_1d march replaces the step past it
        assert stats.jacobian_evals is None
        if name == "comparison_ode":
            assert len(result.t) == stats.accepted_steps + 2
        else:
            assert len(result.x) == stats.accepted_steps + 1


# -- log-convexity -----------------------------------------------------------

def test_log_convexity_grid_matches_symbolic_derivatives():
    sympy = pytest.importorskip("sympy")
    alpha, R = 0.7, 2.0
    r_sym = sympy.symbols("r", positive=True)
    u = (r_sym ** sympy.Rational(17, 10) - R ** sympy.Rational(17, 10)) / sympy.Rational(17, 10)
    phi = -sympy.log(-u)
    phi_rr = sympy.lambdify(r_sym, sympy.diff(phi, r_sym, 2), "numpy")
    phi_tan = sympy.lambdify(r_sym, sympy.diff(phi, r_sym) / r_sym, "numpy")
    r, rr, tan = so.log_convexity_grid(R, alpha, n_points=501)
    np.testing.assert_allclose(rr, phi_rr(r), rtol=1e-10)
    np.testing.assert_allclose(tan, phi_tan(r), rtol=1e-10)


def test_log_convexity_margins_are_positive():
    for alpha in (0.7, 1.0, 2.0):
        for R in (0.5, 1.0, 2.0):
            _, phi_rr, phi_tan = so.log_convexity_grid(R, alpha)
            assert min(np.min(phi_rr), np.min(phi_tan)) > 0.0


def test_log_convexity_validation():
    with pytest.raises(ValueError):
        so.log_convexity_grid(0.0, 1.0)
    with pytest.raises(ValueError):
        so.log_convexity_grid(1.0, -1.0)
    with pytest.raises(ValueError):
        so.log_convexity_grid(1.0, 1.0, n_points=1)


# -- artifacts ---------------------------------------------------------------
# A run stores its marcher's arrays through gcsf.tables: read back by name,
# under the header the artifact has always had, they are the same arrays
# bit for bit.

def _artifact(tmp_path, name, **config):
    cfg = cli.config_from_dict(dict(config, output_dir=str(tmp_path)))
    assert cli.run_config(cfg)["pass"]
    return tables.read_columns(tmp_path / name)


def test_profile_csv_round_trip(tmp_path):
    prof = so.radial_translator(1.0, 1.0, 5.0)
    back = _artifact(tmp_path, "profile.csv", experiment="radial-translator", r_max=5.0)
    assert list(back) == ["r", "u", "du", "d2u"]
    for name in back:
        np.testing.assert_array_equal(back[name], getattr(prof, name))


def test_ode_csv_columns(tmp_path):
    sol = so.comparison_ode(1.0, 1e-4, 0.5)
    back = _artifact(tmp_path, "ode.csv", experiment="comparison-ode", delta=1e-4, t_max=0.5)
    assert list(back) == ["t", "rho", "drho"]
    for name in back:
        np.testing.assert_array_equal(back[name], getattr(sol, name))


def test_profile1d_csv_columns(tmp_path):
    prof = so.translator_1d(0.5, 2.0)
    back = _artifact(tmp_path, "profile1d.csv", experiment="translator1d", alpha=0.5,
                     x_max=2.0)
    assert list(back) == ["x", "v", "dv"]
    for name in back:
        np.testing.assert_array_equal(back[name], getattr(prof, name))
