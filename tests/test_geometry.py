import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ellipe

from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import solitons as so
from gcsf.geometry import ConvexityLostError, SupportFunction


def unit_circle(m=256):
    return geo.make_circle(1.0, m=m)


@st.composite
def convex_bodies(draw, m=128):
    """Truncated Fourier support functions kept convex by an amplitude budget.

    s = 1 + sum of modes 2..5; each mode k contributes at most
    budget_k * (k^2 - 1) to the curvature radius, and the budgets sum
    to 0.8, so s'' + s >= 0.2 by construction.
    """
    cos_c = [1.0, 0.0]
    sin_c = [0.0]
    for k in range(2, 6):
        bound = 0.2 / (k * k - 1.0)
        cos_c.append(draw(st.floats(-bound, bound, allow_nan=False)))
        sin_c.append(draw(st.floats(-bound, bound, allow_nan=False)))
    return geo.make_fourier_body(cos_c, sin_c, m=m)


vectors = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


# -- spectral differentiation ----------------------------------------------

def test_trig_derivative_exact_on_harmonics():
    theta = geo._angles(256)
    values = np.cos(3.0 * theta)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 1), -3.0 * np.sin(3.0 * theta), atol=1e-12)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 2), -9.0 * np.cos(3.0 * theta), atol=1e-11)


def test_trig_derivative_nyquist_mode():
    m = 256
    theta = geo._angles(m)
    values = np.cos((m // 2) * theta)
    # The Nyquist cosine has no resolvable odd derivative on this grid.
    np.testing.assert_allclose(geo.trig_derivative(values, 1), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 2), -(m // 2) ** 2 * values, rtol=1e-12)


def test_curvature_radius_circle_and_ellipse():
    np.testing.assert_allclose(geo.curvature_radius_samples(unit_circle().samples), 1.0,
                               rtol=1e-13)
    a, b = 2.0, 1.0
    s = geo.make_ellipse(a, b)
    # Support parametrization: radius of curvature = a^2 b^2 / s^3.
    expected = (a * b) ** 2 / s.samples**3
    np.testing.assert_allclose(geo.curvature_radius_samples(s.samples), expected, rtol=1e-10)
    radius = geo.curvature_radius_samples(spectrum=np.fft.rfft(s.samples))
    np.testing.assert_allclose(radius, expected, rtol=1e-10)
    with pytest.raises(TypeError):
        geo.curvature_radius_samples()
    with pytest.raises(TypeError):
        geo.curvature_radius_samples(s.samples, spectrum=np.fft.rfft(s.samples))


# -- validation -------------------------------------------------------------

def test_support_function_rejects_bad_grids():
    with pytest.raises(ValueError):
        SupportFunction(np.ones(63))
    with pytest.raises(ValueError):
        SupportFunction(np.ones(32))
    with pytest.raises(ValueError):
        SupportFunction(np.full(64, np.nan))
    with pytest.raises(ValueError):
        SupportFunction(np.ones((2, 64)))


def test_support_function_rejects_nonconvex():
    theta = geo._angles(256)
    # mode-2 amplitude 0.9 drives s'' + s to 1 - 3*0.9 < 0
    with pytest.raises(ConvexityLostError):
        SupportFunction(1.0 + 0.9 * np.cos(2.0 * theta))


def test_samples_are_frozen():
    s = unit_circle()
    with pytest.raises(ValueError):
        s.samples[0] = 2.0


def test_maker_argument_validation():
    with pytest.raises(ValueError):
        geo.make_circle(0.0)
    with pytest.raises(ValueError):
        geo.make_ellipse(1.0, -1.0)


@pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (math.inf, -math.inf)])
def test_circle_about_a_non_finite_center_is_rejected_without_warning(center):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            geo.make_circle(1.0, center)


@pytest.mark.parametrize("cached", [geo._wavenumbers, geo._angles, geo._radius_symbol,
                                    lambda m: geo._basis(m)[0], lambda m: geo._basis(m)[1]])
def test_cached_grid_arrays_are_read_only(cached):
    # Every caller shares one array per grid size, so a write must fail.
    array = cached(64)
    before = array.copy()
    with pytest.raises(ValueError):
        array[0] = 2.0
    np.testing.assert_array_equal(cached(64), before)


def test_angles_are_the_uniform_grid():
    np.testing.assert_array_equal(geo._angles(64), np.arange(64) * (2.0 * np.pi / 64))
    cos_t, sin_t = geo._basis(64)
    np.testing.assert_array_equal(cos_t, np.cos(geo._angles(64)))
    np.testing.assert_array_equal(sin_t, np.sin(geo._angles(64)))


# Every scalar argument guarded by geometry's one guard, as a call that
# passes the value given to it; the cheap profile is exact.
_CONE = so.cone_profile(1.0, 2.0)
_GUARDED = {
    "FlowParams.alpha": lambda v: fl.FlowParams(alpha=v, m=64),
    "step.dt": lambda v: fl.step(geo.make_circle(1.0, m=64), fl.FlowParams(1.0, 64), v),
    "run_normalized.tau_end": lambda v: fl.run_normalized(
        geo.make_circle(1.0, m=64), fl.FlowParams(1.0, 64), v),
    "linearized_mode_rate.alpha": lambda v: fl.linearized_mode_rate(v, 2),
    "make_circle.radius": lambda v: geo.make_circle(v, m=64),
    "make_ellipse.a": lambda v: geo.make_ellipse(v, 1.0, m=64),
    "make_ellipse.b": lambda v: geo.make_ellipse(1.0, v, m=64),
    "translator_1d.alpha": lambda v: so.translator_1d(v, 1.0),
    "translator_1d.x_max": lambda v: so.translator_1d(1.0, v),
    "strip_half_width.alpha": lambda v: so.strip_half_width(v),
    "radial_translator.alpha": lambda v: so.radial_translator(v, 1.0, 1.0),
    "radial_translator.r_max": lambda v: so.radial_translator(1.0, 1.0, v),
    "cone_profile.alpha": lambda v: so.cone_profile(v, 1.0),
    "cone_profile.r_max": lambda v: so.cone_profile(1.0, v),
    "l_sigma_residual.alpha": lambda v: so.l_sigma_residual(_CONE, v, 1.0),
    "l0_vs_lsigma.alpha": lambda v: so.l0_vs_lsigma(_CONE, v, 1.0),
    "blow_down.alpha": lambda v: so.blow_down(_CONE, v, 1.0),
    "blow_down.h": lambda v: so.blow_down(_CONE, 1.0, v),
    "growth_bound_check.alpha": lambda v: so.growth_bound_check(_CONE, v),
    "comparison_ode.alpha": lambda v: so.comparison_ode(v, 1.0, 1.0),
    "comparison_ode.delta": lambda v: so.comparison_ode(1.0, v, 1.0),
    "comparison_ode.t_max": lambda v: so.comparison_ode(1.0, 1.0, v),
    "log_convexity_grid.R": lambda v: so.log_convexity_grid(v, 1.0, 11),
    "log_convexity_grid.alpha": lambda v: so.log_convexity_grid(1.0, v, 11),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", sorted(_GUARDED))
def test_guarded_arguments_reject_nan_and_infinity(argument, value):
    # NaN passes every comparison guard such as "x <= 0"; the one guard
    # rejects it, and both infinities, before any arithmetic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be a finite number"):
            _GUARDED[argument](value)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argument, value", [
    ("step.dt", 0.0), ("run_normalized.tau_end", 0.0), ("strip_half_width.alpha", 0.5000001),
    ("cone_profile.alpha", 1.0), ("make_circle.radius", 1e-300), ("FlowParams.alpha", 1e-300)])
def test_guards_keep_their_floors(argument, value):
    _GUARDED[argument](value)
    below = {"step.dt": -1e-300, "run_normalized.tau_end": -1e-300,
             "strip_half_width.alpha": 0.5, "cone_profile.alpha": 1.0 - 1e-16,
             "make_circle.radius": 0.0, "FlowParams.alpha": 0.0}[argument]
    with pytest.raises(ValueError, match="must be a finite number"):
        _GUARDED[argument](below)


def test_ellipse_beyond_the_float_range_is_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            geo.make_ellipse(1.0, 1e308)


# -- closed-form measures ---------------------------------------------------

def test_circle_measures_exact():
    for radius in (0.5, 1.0, 1.7):
        s = geo.make_circle(radius)
        assert math.isclose(geo.area(s), math.pi * radius**2, rel_tol=1e-13)
        assert math.isclose(geo.length(s), 2.0 * math.pi * radius, rel_tol=1e-13)
        assert math.isclose(geo.inradius(s), radius, rel_tol=1e-13)
        assert math.isclose(geo.circumradius(s), radius, rel_tol=1e-13)


def test_offcenter_circle_measures():
    s = geo.make_circle(1.0, center=(0.3, -0.4))
    assert math.isclose(geo.area(s), math.pi, rel_tol=1e-12)
    assert math.isclose(geo.length(s), 2.0 * math.pi, rel_tol=1e-12)
    x, y = geo.steiner_point(s)
    assert math.isclose(x, 0.3, abs_tol=1e-13)
    assert math.isclose(y, -0.4, abs_tol=1e-13)


def test_ellipse_area_and_length():
    a, b = 2.0, 1.0
    s = geo.make_ellipse(a, b)
    assert math.isclose(geo.area(s), math.pi * a * b, rel_tol=1e-12)
    # perimeter via the complete elliptic integral of the second kind
    expected = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert math.isclose(geo.length(s), expected, rel_tol=1e-12)
    assert math.isclose(geo.inradius(s), b, rel_tol=1e-12)
    assert math.isclose(geo.circumradius(s), a, rel_tol=1e-12)


def test_spectral_accuracy_of_area():
    # Circles are band-limited, so the quadrature is exact at every grid size.
    for m in (64, 128, 256):
        s = geo.make_circle(1.0, m=m)
        assert abs(geo.area(s) - math.pi) <= 1e-13
        assert abs(geo.length(s) - 2.0 * math.pi) <= 1e-13
    # An eccentric ellipse has slowly decaying harmonics; the error must
    # collapse much faster than any fixed-order quadrature as m doubles.
    errs = [abs(geo.area(geo.make_ellipse(6.0, 1.0, m=m)) - 6.0 * math.pi)
            for m in (64, 128, 256)]
    assert 1e-6 < errs[0] < 1e-2
    assert errs[1] < errs[0] / 1e3
    assert errs[2] < 1e-10


def test_mode_amplitude_reads_coefficients():
    s = geo.make_fourier_body([1.0, 0.0, 0.03], [0.0, 0.04], m=256)
    assert math.isclose(geo._mode_amplitudes(s.samples, 0), 1.0, rel_tol=1e-12)
    assert math.isclose(geo._mode_amplitudes(s.samples, 2), 0.05, rel_tol=1e-12)
    assert geo._mode_amplitudes(s.samples, 3) <= 1e-14

    nyq = SupportFunction(1.0 + 1e-5 * np.cos(128 * geo._angles(256)))
    assert math.isclose(geo._mode_amplitudes(nyq.samples, 128), 1e-5, rel_tol=1e-10)


@pytest.mark.parametrize("mode", [0, 2, 5, 32])
def test_mode_amplitudes_of_stacked_rows_match_each_state(mode):
    rng = np.random.default_rng(11)
    rows = np.array([geo.random_convex_body(rng, m=64).samples for _ in range(5)])
    np.testing.assert_array_equal(
        geo._mode_amplitudes(rows, mode), [geo._mode_amplitudes(row, mode) for row in rows])
    with pytest.raises(ValueError, match="mode must lie in"):
        geo._mode_amplitudes(rows, 33)


def test_random_convex_body_is_deterministic_and_convex():
    a = geo.random_convex_body(np.random.default_rng(42))
    b = geo.random_convex_body(np.random.default_rng(42))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.min(geo.curvature_radius_samples(a.samples)) > 0.0
    c = geo.random_convex_body(np.random.default_rng(43))
    assert not np.array_equal(a.samples, c.samples)


# -- translation and recentering -------------------------------------------

@given(convex_bodies(), vectors)
def test_measures_are_translation_invariant(s, v):
    t = geo.translate(s, v)
    assert math.isclose(geo.area(t), geo.area(s), rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(geo.length(t), geo.length(s), rel_tol=1e-10)


@given(convex_bodies(), vectors)
def test_steiner_point_is_translation_equivariant(s, v):
    px, py = geo.steiner_point(s)
    qx, qy = geo.steiner_point(geo.translate(s, v))
    assert math.isclose(qx, px + v[0], abs_tol=1e-10)
    assert math.isclose(qy, py + v[1], abs_tol=1e-10)


@given(convex_bodies(), vectors)
def test_recenter_moves_steiner_to_origin(s, v):
    # The distances to the supporting lines from the Steiner point, which
    # inradius and circumradius read, are the body moved to the origin.
    centered = SupportFunction(geo._steiner(geo.translate(s, v).samples)[2])
    x, y = geo.steiner_point(centered)
    assert abs(x) <= 1e-10 and abs(y) <= 1e-10
    again = geo._steiner(centered.samples)[2]
    np.testing.assert_allclose(again, centered.samples, atol=1e-12)


@given(convex_bodies())
def test_isoperimetric_inequality(s):
    assert geo.length(s) ** 2 - 4.0 * math.pi * geo.area(s) >= -1e-10


def test_isoperimetric_equality_only_for_circles():
    c = geo.make_circle(1.7)
    assert abs(geo.length(c) ** 2 - 4.0 * math.pi * geo.area(c)) <= 1e-10
    e = geo.make_ellipse(1.1, 1.0)
    assert geo.length(e) ** 2 - 4.0 * math.pi * geo.area(e) > 1e-4


@given(convex_bodies())
def test_inradius_bounds(s):
    assert 0.0 < geo.inradius(s) <= geo.circumradius(s) + 1e-15

