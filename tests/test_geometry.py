import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ellipe

from gcsf import geometry as geo
from gcsf.geometry import ConvexityLostError, PlanePoint, SupportFunction


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
    m = 256
    theta = np.arange(m) * (2.0 * np.pi / m)
    values = np.cos(3.0 * theta)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 1), -3.0 * np.sin(3.0 * theta), atol=1e-12)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 2), -9.0 * np.cos(3.0 * theta), atol=1e-11)


def test_trig_derivative_nyquist_mode():
    m = 256
    theta = np.arange(m) * (2.0 * np.pi / m)
    values = np.cos((m // 2) * theta)
    # The Nyquist cosine has no resolvable odd derivative on this grid.
    np.testing.assert_allclose(geo.trig_derivative(values, 1), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        geo.trig_derivative(values, 2), -(m // 2) ** 2 * values, rtol=1e-12)


def test_curvature_radius_circle_and_ellipse():
    np.testing.assert_allclose(geo.curvature_radius(unit_circle()), 1.0, rtol=1e-13)
    a, b = 2.0, 1.0
    s = geo.make_ellipse(a, b)
    # Support parametrization: radius of curvature = a^2 b^2 / s^3.
    expected = (a * b) ** 2 / s.samples**3
    np.testing.assert_allclose(geo.curvature_radius(s), expected, rtol=1e-10)
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
    theta = np.arange(256) * (2.0 * np.pi / 256)
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
    with pytest.raises(ValueError):
        geo.hausdorff_to_circle(unit_circle(), (0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        geo.mode_amplitude(unit_circle(), 129)


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
    s = geo.make_circle(1.0, center=PlanePoint(0.3, -0.4))
    assert math.isclose(geo.area(s), math.pi, rel_tol=1e-12)
    assert math.isclose(geo.length(s), 2.0 * math.pi, rel_tol=1e-12)
    p = geo.steiner_point(s)
    assert math.isclose(p.x, 0.3, abs_tol=1e-13)
    assert math.isclose(p.y, -0.4, abs_tol=1e-13)


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


def test_hausdorff_to_circle():
    s = geo.make_circle(1.5)
    assert geo.hausdorff_to_circle(s, (0.0, 0.0), 1.5) <= 1e-14
    assert math.isclose(geo.hausdorff_to_circle(s, (0.0, 0.0), 1.0), 0.5,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        geo.hausdorff_to_circle(s, (5.0, 0.0), 1.0)


def test_mode_amplitude_reads_coefficients():
    s = geo.make_fourier_body([1.0, 0.0, 0.03], [0.0, 0.04], m=256)
    assert math.isclose(geo.mode_amplitude(s, 0), 1.0, rel_tol=1e-12)
    assert math.isclose(geo.mode_amplitude(s, 2), 0.05, rel_tol=1e-12)
    assert geo.mode_amplitude(s, 3) <= 1e-14

    nyq = SupportFunction(1.0 + 1e-5 * np.cos(128 * unit_circle().thetas))
    assert math.isclose(geo.mode_amplitude(nyq, 128), 1e-5, rel_tol=1e-10)


def test_random_convex_body_is_deterministic_and_convex():
    a = geo.random_convex_body(np.random.default_rng(42))
    b = geo.random_convex_body(np.random.default_rng(42))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.min(geo.curvature_radius(a)) > 0.0
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
    p = geo.steiner_point(s)
    q = geo.steiner_point(geo.translate(s, v))
    assert math.isclose(q.x, p.x + v[0], abs_tol=1e-10)
    assert math.isclose(q.y, p.y + v[1], abs_tol=1e-10)


@given(convex_bodies(), vectors)
def test_recenter_moves_steiner_to_origin(s, v):
    centered = geo.recenter(geo.translate(s, v))
    p = geo.steiner_point(centered)
    assert abs(p.x) <= 1e-10 and abs(p.y) <= 1e-10
    again = geo.recenter(centered)
    np.testing.assert_allclose(again.samples, centered.samples, atol=1e-12)


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


# -- serialization ----------------------------------------------------------

def test_json_round_trip_is_exact():
    s = geo.random_convex_body(np.random.default_rng(7))
    back = geo.support_from_json(geo.support_to_json(s))
    np.testing.assert_array_equal(back.samples, s.samples)


def test_json_rejects_inconsistent_size():
    text = geo.support_to_json(unit_circle(m=64)).replace('"m": 64', '"m": 65')
    with pytest.raises(ValueError):
        geo.support_from_json(text)
