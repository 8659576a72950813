import math

import numpy as np
import pytest

from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf.flow import FlowParams, StepRejectedError, StopReason


def circle(radius=1.0, m=64):
    return geo.make_circle(radius, m=m)


# Small grids keep the marches cheap; the circle is band-limited so the
# spatial error is at roundoff no matter the grid.
P64 = FlowParams(alpha=1.0, m=64)


# -- parameters and stepping ------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(alpha=0.0)
    with pytest.raises(ValueError):
        FlowParams(alpha=1.0, m=63)
    with pytest.raises(ValueError):
        FlowParams(alpha=1.0, m=32)


def test_step_zero_dt_is_identity():
    s = circle()
    out = fl.step(s, P64, 0.0)
    np.testing.assert_array_equal(out.samples, s.samples)


def test_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        fl.step(circle(), P64, -1e-3)


def test_oversized_step_is_rejected_not_absorbed():
    # A huge step drives the circle through the origin; the stages leave
    # the convex cone and the step must be refused.
    with pytest.raises(StepRejectedError):
        fl.step(circle(), P64, 10.0)


def test_step_matches_circle_ode():
    # For a circle the flow reduces to dR/dt = -R^-alpha; one RK4 step of
    # that scalar ODE is what the full solver must reproduce.
    p = FlowParams(alpha=2.0, m=64)
    dt = 1e-3
    stepped = fl.step(circle(1.2), p, dt)

    def f(r):
        return -(r ** -2.0)

    r = 1.2
    k1 = f(r)
    k2 = f(r + 0.5 * dt * k1)
    k3 = f(r + 0.5 * dt * k2)
    k4 = f(r + dt * k3)
    expected = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(stepped.samples, expected, rtol=1e-14)


def test_overflowing_speed_rejects_the_step():
    # r^-alpha overflows to inf, so a stage's curvature radius is NaN; the
    # positivity guards must reject it rather than let NaN through.
    with np.errstate(all="ignore"), pytest.raises(StepRejectedError):
        fl.step(geo.make_circle(1e-3, m=64), FlowParams(alpha=200.0, m=64), 1e-3)


def test_stable_dt_scales_with_radius():
    p = FlowParams(alpha=1.0, m=64)
    small = fl.stable_dt(circle(0.5), p)
    large = fl.stable_dt(circle(1.0), p)
    assert small < large
    # dt ~ R^(alpha+1) for a circle
    assert math.isclose(large / small, 2.0 ** 2, rel_tol=1e-12)


def test_grid_mismatch_is_rejected():
    with pytest.raises(ValueError):
        fl.run_to_extinction(circle(m=128), P64)
    with pytest.raises(ValueError):
        fl.run_to_extinction(circle(), P64, store_every=0)
    with pytest.raises(ValueError):
        fl.run_normalized(circle(), P64, 1.0, store_every=0)


# -- extinction --------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_circle_extinction_time(alpha):
    p = FlowParams(alpha=alpha, m=64)
    trace = fl.run_to_extinction(circle(), p)
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - 1.0 / (1.0 + alpha)) <= 1e-6


def test_extinction_march_has_no_collapse_floor():
    # A circle of radius 2 falls below STOP_INRADIUS times its starting
    # curvature radius at radius 2e-3, before the inradius stop; only the
    # rescaled march treats that as a collapse.
    trace = fl.run_to_extinction(circle(2.0), P64)
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - 2.0) <= 1e-6


def test_march_stops_where_the_linear_part_overflows():
    # r_min^-(alpha+1) = 1e308 is finite; A (1 - k^2) on the top mode is not.
    march = fl._etd_march(np.full(64, 1e-154), P64, 1.0, rescaled=False)
    next(march)
    with pytest.raises(geo.ConvexityLostError, match="too small to step"):
        next(march)


def test_circle_radius_follows_power_law():
    p = FlowParams(alpha=1.0, m=64)
    trace = fl.run_to_extinction(circle(), p)
    T = 0.5
    for t, s in zip(trace.times, trace.states):
        if t > 0.9 * T:
            break
        expected = math.sqrt(max(1.0 - 2.0 * t, 0.0))
        assert abs(geo.inradius(s) - expected) <= 1e-10


def test_time_limit_stop():
    trace = fl.run_to_extinction(circle(), P64, t_max=0.01)
    assert trace.stop_reason is StopReason.TIME_LIMIT
    assert trace.extinction_time is None
    assert trace.times[-1] == pytest.approx(0.01, abs=1e-15)


def test_eccentric_ellipse_extinction_time():
    # At alpha = 1 the area falls at exactly 2 pi for every convex body, so
    # T = A0 / 2 pi.  A 6:1 ellipse is where a frozen scalar diffusivity is
    # furthest from the local one, and a step rule blind to eccentricity
    # misses this by ~1e-4.
    s0 = geo.make_ellipse(math.sqrt(6.0), 1.0 / math.sqrt(6.0), m=128)
    trace = _assert_frozen_march(s0, FlowParams(alpha=1.0, m=128), FROZEN_ELLIPSE[1.0])
    assert abs(trace.extinction_time - geo.area(s0) / (2.0 * math.pi)) <= 1e-6


# Extinction times and accepted step counts of the ETD march whose phi-weights
# were contour means on every mode and whose stage radii went through the
# samples (16 FFTs a step).  The closed-form weights and the one-transform
# stage radius must reproduce them to 1e-12 relative in the same number of
# steps.
FROZEN_BENCHMARK_BODIES = {1: (0.4987698226179989, 717),
                           2: (0.499255159718393, 708),
                           3: (0.49880081920376795, 715)}
FROZEN_ELLIPSE = {0.6: (0.6846540110766519, 20702),
                  1.0: (0.4999999938072628, 18913),
                  2.0: (0.19168186039092142, 30131)}


def _assert_frozen_march(s0, p, frozen):
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(s0, p, stats=stats)
    assert trace.stop_reason is StopReason.EXTINCT
    assert trace.extinction_time == pytest.approx(frozen[0], rel=1e-12, abs=0.0)
    assert stats.accepted_steps == len(trace.times) - 1 == frozen[1]
    return trace


def _benchmark_body(seed, m=256):
    # The seeded Fourier body of perfbench's flow-extinction workload: a_k,
    # b_k uniform in +-0.3/k^3 for k = 2..8, redrawn until
    # sum (k^2 - 1)(|a_k| + |b_k|) < 1.
    rng = np.random.default_rng(seed)
    while True:
        draws = [(k, *rng.uniform(-0.3 / k**3, 0.3 / k**3, size=2)) for k in range(2, 9)]
        if sum((k * k - 1) * (abs(a) + abs(b)) for k, a, b in draws) < 1.0:
            break
    return geo.make_fourier_body([1.0, 0.0] + [a for _, a, _ in draws],
                                 [0.0] + [b for _, _, b in draws], m=m)


@pytest.mark.parametrize("seed", sorted(FROZEN_BENCHMARK_BODIES))
def test_march_keeps_frozen_times_on_benchmark_bodies(seed):
    _assert_frozen_march(_benchmark_body(seed), FlowParams(alpha=1.0, m=256),
                         FROZEN_BENCHMARK_BODIES[seed])


@pytest.mark.parametrize("alpha", [0.6, 2.0])
def test_march_keeps_frozen_times_on_the_eccentric_ellipse(alpha):
    s0 = geo.make_ellipse(math.sqrt(6.0), 1.0 / math.sqrt(6.0), m=128)
    _assert_frozen_march(s0, FlowParams(alpha=alpha, m=128), FROZEN_ELLIPSE[alpha])


def test_extrapolate_extinction_exact_on_synthetic_law():
    # inradius^(1+alpha) linear in t is the exact circle law; the fit must
    # recover the root to roundoff.
    p = FlowParams(alpha=1.5)
    T = 0.4
    times = np.linspace(0.0, 0.399, 80)
    inradii = ((1.0 + p.alpha) * (T - times)) ** (1.0 / (1.0 + p.alpha))
    # keep only the tail the extrapolation is supposed to use
    assert abs(fl.extrapolate_extinction(times, inradii, p) - T) <= 1e-12


def test_trace_is_monotone_and_shrinking():
    trace = fl.run_to_extinction(circle(), P64)
    times = np.asarray(trace.times)
    assert np.all(np.diff(times) > 0.0)
    areas = np.asarray(trace.areas)
    assert np.all(np.diff(areas) < 0.0)


# -- the record loop both marches share ---------------------------------------

def _stub_march(n, lose_convexity):
    # Yields n shrinking circles on 64 points; then, if asked, raises as a
    # march does when no acceptable step exists.
    def march(y, p, t_end, rescaled, stats=None):
        for i in range(n):
            yield 0.01 * i, (1.0 - 0.01 * i) * np.ones(64)
        if lose_convexity:
            raise geo.ConvexityLostError("no acceptable step")
    return march


def test_lost_convexity_keeps_the_last_accepted_state_once(monkeypatch):
    monkeypatch.setattr(fl, "_etd_march", _stub_march(5, lose_convexity=True))
    trace = fl.run_to_extinction(circle(), P64, store_every=3)
    assert trace.stop_reason is StopReason.CONVEXITY_LOST
    assert trace.extinction_time is None
    np.testing.assert_array_equal(trace.times, [0.0, 0.03, 0.04])
    np.testing.assert_array_equal(trace.samples[:, 0], [1.0, 0.97, 0.96])
    with pytest.raises(geo.ConvexityLostError):
        fl.run_normalized(circle(), P64, 1.0, store_every=3)


@pytest.mark.parametrize("store_every, n, stored", [
    (1, 4, [0, 1, 2, 3]), (3, 7, [0, 3, 6]), (3, 8, [0, 3, 6, 7])])
def test_both_marches_store_every_kth_state_and_the_last_once(monkeypatch, store_every,
                                                              n, stored):
    monkeypatch.setattr(fl, "_etd_march", _stub_march(n, lose_convexity=False))
    trace = fl.run_to_extinction(circle(), P64, store_every=store_every)
    taus, states = fl.run_normalized(circle(), P64, 1.0, store_every=store_every)
    assert trace.stop_reason is StopReason.TIME_LIMIT
    expected = [0.01 * i for i in stored]
    np.testing.assert_array_equal(trace.times, expected)
    np.testing.assert_array_equal(taus, expected)
    radii = [1.0 - 0.01 * i for i in stored]
    np.testing.assert_array_equal(trace.samples[:, 0], radii)
    np.testing.assert_array_equal([s.samples[0] for s in states], radii)


# -- the ETD step --------------------------------------------------------------

def _phi_weights_60_digits(z):
    # E, E2 and the Cox-Matthews combinations Q, f1, f2, f3 in 60-digit
    # arithmetic, with their limits at z = 0.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        if z == 0.0:
            return [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]
        z = mpmath.mpf(z)
        e, e2 = mpmath.exp(z), mpmath.exp(z / 2)
        exact = [e, e2, (e2 - 1) / z,
                 (-4 - z + e * (4 - 3 * z + z * z)) / z**3,
                 (2 + z + e * (z - 2)) / z**3,
                 (-4 - 3 * z - z * z + e * (4 - z)) / z**3]
        return [float(w) for w in exact]


def test_etd_weights_match_60_digit_values():
    # Large negative z is the stiff high modes, positive z the growing mode
    # 0 and the rescaling term; |z| in [0.3, 1.2] straddles the switch
    # between contour means and closed forms, where the unit contour passes
    # close to the removable pole at 0.
    z = np.concatenate([-np.logspace(-3.0, 4.0, 120), np.logspace(-3.0, np.log10(3.0), 40),
                        -np.linspace(0.3, 1.2, 181), np.linspace(0.3, 1.2, 181), [0.0]])
    weights = np.array(fl._etd_weights(z)).T
    exact = np.array([_phi_weights_60_digits(x) for x in z])
    # exp(z) underflows to exactly 0.0 below z = -745, which is exact enough.
    assert np.all(np.abs(weights - exact) <= 1e-13 * np.abs(exact))


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stage_radius_is_one_transform_of_the_coefficients(seed, m):
    # The coefficients of a seeded body, cut to its modes 0..8, whose exact
    # radius is sum (1 - k^2)(a_k cos k theta + b_k sin k theta).
    v = np.fft.rfft(geo.random_convex_body(np.random.default_rng(seed), m=m).samples)
    v[9:] = 0.0
    k = np.arange(9)
    theta = np.arange(m) * (2.0 * np.pi / m)
    scale = np.where(k == 0, 1.0, 2.0) * (1.0 - k**2) / m
    exact = (np.cos(np.outer(theta, k)) @ (scale * v[:9].real)
             - np.sin(np.outer(theta, k)) @ (scale * v[:9].imag))
    radius = fl._etd_radius(v)
    assert np.max(np.abs(radius - exact)) <= 1e-14 * np.max(exact)
    # Through the samples the forward transform rounds every mode by about
    # eps, and s'' multiplies mode k by k^2, so that route agrees only to
    # about eps (m/2)^2.
    via_samples = geo.curvature_radius_samples(np.fft.irfft(v, n=m))
    assert np.max(np.abs(radius - via_samples)) <= 1e-15 * (m // 2) ** 2 * np.max(exact)


def test_nan_coefficient_rejects_the_stage():
    m = 64
    v = np.fft.rfft(circle(m=m).samples)
    v[3] = np.nan
    with pytest.raises(fl._StageFailure):
        fl._etd_radius(v)


@pytest.mark.parametrize("rescaled", [False, True])
def test_etd_step_takes_nine_ffts(monkeypatch, rescaled):
    calls = []

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapper

    y = geo.random_convex_body(np.random.default_rng(3), m=64).samples
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    stats = fl.MarchStats()
    states = list(fl._etd_march(y, P64, 0.05, rescaled, stats))
    assert stats.accepted_steps == len(states) - 1 > 0
    assert stats.halved_trials == 0
    # The start costs rfft(y) and its curvature radius, rfft and irfft.
    assert len(calls) == 3 + 9 * stats.accepted_steps
    assert stats.remainder_evals == 4 * stats.accepted_steps
    assert 0 < stats.weight_evals <= stats.accepted_steps
    assert 0.0 < stats.dt_min <= stats.dt_max


def test_march_records_the_smallest_curvature_radius():
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=64), P64, store_every=1,
                                 stats=stats)
    radii = [float(np.min(geo.curvature_radius(s))) for s in trace.states]
    # The march takes each radius from the coefficients, the geometry
    # function from the samples; the two routes agree to rounding.
    assert stats.r_min == pytest.approx(min(radii), rel=1e-12)
    assert stats.r_min < radii[0]


def test_extinction_run_calls_the_kernel_only_from_the_march(monkeypatch):
    calls = {"flow": 0, "geometry": 0}

    def counted(binding):
        kernel = geo.curvature_radius_samples

        def wrapper(*args, **kwargs):
            calls[binding] += 1
            return kernel(*args, **kwargs)
        return wrapper

    s0 = _benchmark_body(1, m=64)
    monkeypatch.setattr(fl, "curvature_radius_samples", counted("flow"))
    monkeypatch.setattr(geo, "curvature_radius_samples", counted("geometry"))
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(s0, P64, store_every=8, stats=stats)
    fl.trace_summary_rows(trace)
    # One radius for the start, then three stages and the new radius per
    # step; the stored states are never rebuilt as SupportFunctions.
    assert calls == {"flow": 1 + 4 * stats.accepted_steps, "geometry": 0}


# -- normalized flow ---------------------------------------------------------

def test_normalized_circle_is_a_fixed_point():
    p = FlowParams(alpha=1.0, m=64)
    taus, states = fl.run_normalized(circle(), p, 2.0)
    assert taus[-1] == pytest.approx(2.0, abs=1e-12)
    for s in states:
        assert geo.hausdorff_to_circle(s, (0.0, 0.0), 1.0) <= 1e-9


def _rk4_normalized(s, p, tau_end):
    # The Runge-Kutta reference: classical RK4 under the parabolic bound.
    tau = 0.0
    while tau < tau_end:
        dt = min(fl.stable_dt(s, p), tau_end - tau)
        s = fl.step(s, p, dt, rescaled=True)
        tau += dt
    return s


def _sup_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_normalized_march_matches_rk4_near_the_circle(alpha):
    p = FlowParams(alpha=alpha, m=64)
    theta = np.arange(64) * (2.0 * np.pi / 64)
    s0 = geo.SupportFunction(1.0 + 1e-3 * np.cos(2.0 * theta))
    taus, states = fl.run_normalized(s0, p, 0.5)
    assert taus[-1] == pytest.approx(0.5, abs=1e-12)
    reference = _rk4_normalized(s0, p, 0.5)
    assert _sup_rel(states[-1].samples, reference.samples) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_normalized_march_matches_rk4_on_random_bodies(seed, alpha):
    p = FlowParams(alpha=alpha, m=64)
    s0 = geo.random_convex_body(np.random.default_rng(seed), m=64)
    _, states = fl.run_normalized(s0, p, 0.5)
    reference = _rk4_normalized(s0, p, 0.5)
    assert _sup_rel(states[-1].samples, reference.samples) <= 1e-6


def test_normalize_trace_rescales_onto_unit_circle():
    p = FlowParams(alpha=1.0, m=64)
    trace = fl.run_to_extinction(circle(), p)
    pairs = fl.normalize_trace(trace, p)
    # tau(0) carries the roundoff of the fitted extinction time
    assert abs(pairs[0][0]) <= 1e-10
    taus = [tau for tau, _ in pairs]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    for tau, s in pairs:
        if tau > 3.0:
            break
        assert geo.hausdorff_to_circle(s, geo.steiner_point(s), 1.0) <= 1e-9


def test_linearized_mode_rate_values():
    assert fl.linearized_mode_rate(1.0, 2) == pytest.approx(-2.0)
    assert fl.linearized_mode_rate(1.0, 3) == pytest.approx(-7.0)
    assert fl.linearized_mode_rate(0.5, 2) == pytest.approx(-0.5)
    # translation modes are neutral directions of the shape, rate 1 - 0
    assert fl.linearized_mode_rate(2.0, 1) == pytest.approx(1.0)


def test_fit_decay_rate_recovers_synthetic_series():
    taus = np.linspace(0.0, 4.0, 200)
    series = np.column_stack([taus, 3e-2 * np.exp(-1.7 * taus)])
    fit = fl.fit_decay_rate(series, (1.0, 3.0))
    assert abs(fit.rate + 1.7) <= 1e-12
    assert fit.residual_rms <= 1e-12
    assert fit.window == (1.0, 3.0)


def test_fit_decay_rate_needs_enough_points():
    taus = np.linspace(0.0, 4.0, 200)
    series = np.column_stack([taus, np.exp(-taus)])
    with pytest.raises(ValueError):
        fl.fit_decay_rate(series, (3.99, 4.0))


def test_mode_three_decays_at_its_own_rate():
    series = fl.mode_decay_series(1.0, mode=3, tau_end=2.0, m=128)
    fit = fl.fit_decay_rate(series, (0.5, 1.5))
    expected = fl.linearized_mode_rate(1.0, 3)
    assert abs(fit.rate - expected) / abs(expected) <= 5e-3


def test_perturbation_modes_stay_decoupled():
    # Starting from circle + eps*cos(3 theta), other modes are excited only
    # at second order in eps.
    eps = 1e-3
    theta = np.arange(128) * (2.0 * np.pi / 128)
    s0 = geo.SupportFunction(1.0 + eps * np.cos(3.0 * theta))
    p = FlowParams(alpha=1.0, m=128)
    _, states = fl.run_normalized(s0, p, 1.0)
    for s in states:
        assert geo.mode_amplitude(s, 2) <= 10.0 * eps**2
        assert geo.mode_amplitude(s, 4) <= 10.0 * eps**2


def test_normalized_delta_series_contracts_for_near_circle():
    p = FlowParams(alpha=1.0, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.05, 1.0, m=128), p)
    deltas = fl.normalized_delta_series(trace, p)
    taus, vals = deltas[:, 0], deltas[:, 1]
    sel = taus <= 3.0
    assert np.all(np.diff(vals[sel]) <= 1e-12)
    assert vals[sel][-1] < 1e-3 < vals[0]


# -- integral identities ------------------------------------------------------

def test_curvature_integral_closed_forms():
    # circle of radius R: integral of kappa^alpha over arc length = 2 pi R^(1-alpha)
    for alpha, radius in ((0.6, 1.0), (1.0, 0.7), (2.0, 1.3)):
        s = geo.make_circle(radius, m=128)
        expected = 2.0 * math.pi * radius ** (1.0 - alpha)
        assert math.isclose(fl.curvature_integral(s, alpha), expected, rel_tol=1e-12)
    # alpha = 1 gives the total turning angle 2 pi for every convex body
    body = geo.random_convex_body(np.random.default_rng(3), m=128)
    assert math.isclose(fl.curvature_integral(body, 1.0), 2.0 * math.pi, rel_tol=1e-12)


def test_area_defect_validation():
    with pytest.raises(ValueError):
        fl.area_defect([0.0, 1.0], [1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        fl.area_defect([0.0, 0.5, 1.0], [1.0, 0.8], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fl.area_defect([0.0, 0.5, 1.0], [1.0, 0.8, 0.5], [1.0, 1.0, 1.0],
                       interior=0.0)


def test_area_defect_exact_for_synthetic_quadratic():
    # A(t) quadratic is differentiated exactly by the 3-point stencil,
    # uniform grid or not.
    times = np.array([0.0, 0.1, 0.25, 0.3, 0.5])
    areas = 2.0 - 3.0 * times + 0.5 * times**2
    integrals = 3.0 - times  # -dA/dt
    assert fl.area_defect(times, areas, integrals) <= 1e-13


def test_area_rate_identity_along_flow():
    p = FlowParams(alpha=1.0, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=128), p)
    assert fl.area_rate_check(trace, p) <= 1e-8


def test_jensen_bound_on_seeded_bodies():
    rng = np.random.default_rng(5)
    bodies = [geo.random_convex_body(rng, m=128) for _ in range(10)]
    for alpha in (1.5, 2.0):
        p = FlowParams(alpha=alpha, m=128)
        for b in bodies:
            lhs, rhs = fl.jensen_bound_check(b, p)
            assert lhs >= rhs - 1e-12
    # alpha = 1 degenerates to an identity: both sides are 2 pi
    p1 = FlowParams(alpha=1.0, m=128)
    for b in bodies:
        lhs, rhs = fl.jensen_bound_check(b, p1)
        assert abs(lhs - rhs) <= 1e-10


def test_jensen_bound_rejects_small_alpha():
    with pytest.raises(ValueError):
        fl.jensen_bound_check(circle(), FlowParams(alpha=0.9, m=64))


# -- trace exports -----------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    trace = fl.run_to_extinction(circle(), P64)
    path = tmp_path / "trace.csv"
    fl.write_trace_csv(trace, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], np.asarray(trace.times))
    np.testing.assert_array_equal(data[:, 1], np.asarray(trace.areas))


@pytest.mark.parametrize("body", ["ellipse", "benchmark"])
def test_trace_columns_match_the_per_state_functions(monkeypatch, body):
    # The trace is post-processed on its (n, m) samples array, a block of
    # rows at a time; each row must equal the geometry functions applied to
    # its state, bit for bit.  Small blocks leave a ragged last one.
    monkeypatch.setattr(fl, "ROW_BLOCK_VALUES", 1000)
    if body == "ellipse":
        s0, p = geo.make_ellipse(3.0, 1.0, m=128), FlowParams(alpha=1.0, m=128)
        trace = fl.run_to_extinction(s0, p, t_max=0.2, store_every=8)
    else:
        trace = fl.run_to_extinction(_benchmark_body(2), FlowParams(alpha=1.0, m=256),
                                     store_every=8)
    states = list(trace.states)
    assert len(states) == len(trace.times) == trace.samples.shape[0] > 10
    np.testing.assert_array_equal(trace.areas, [geo.area(s) for s in states])
    np.testing.assert_array_equal(trace.lengths, [geo.length(s) for s in states])
    expected = []
    for t, s in zip(trace.times, states):
        rec = geo.recenter(s).samples
        mean_radius = float(np.mean(rec))
        expected.append([t, geo.area(s), geo.length(s), geo.inradius(s),
                         geo.circumradius(s),
                         float(np.max(np.abs(rec - mean_radius))) / mean_radius])
    columns = fl.trace_summary_rows(trace)
    np.testing.assert_array_equal(np.column_stack(list(columns.values())), expected)


def test_trace_states_are_built_on_access():
    trace = fl.run_to_extinction(circle(), P64)
    states = trace.states
    assert len(states) == len(trace.times)
    np.testing.assert_array_equal(states[-1].samples, trace.samples[-1])
    assert [s.m for s in states[:2]] == [64, 64]
    with pytest.raises(AttributeError):
        trace.states = []


def test_trace_summary_rows_fields():
    trace = fl.run_to_extinction(circle(), P64)
    columns = fl.trace_summary_rows(trace)
    assert tuple(columns) == ("t", "area", "length", "inradius", "circumradius",
                              "delta_to_circle")
    assert all(len(column) == len(trace.times) for column in columns.values())
    assert columns["t"][0] == 0.0
    assert math.isclose(columns["area"][0], math.pi, rel_tol=1e-12)


def test_snapshots_written_every_k(tmp_path):
    trace = fl.run_to_extinction(circle(), P64)
    paths = fl.write_trace_snapshots(trace, tmp_path, every=50)
    n = len(trace.times)
    expected = {i for i in range(n) if i % 50 == 0} | {n - 1}
    assert paths == [f"{i:06d}.json" for i in sorted(expected)]
    s = geo.support_from_json((tmp_path / paths[0]).read_text())
    np.testing.assert_array_equal(s.samples, trace.states[0].samples)
