import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gcsf import flow as fl
from gcsf import geometry as geo
from gcsf import tables
from gcsf.flow import FlowParams, StepRejectedError, StopReason


def circle(radius=1.0, m=64):
    return geo.make_circle(radius, m=m)


# Small grids keep the marches cheap; the circle is band-limited so the
# spatial error is at roundoff no matter the grid.
P64 = FlowParams(alpha=1.0, m=64)


def _kept_states(trace):
    # The samples of every kept row of a run with snapshot_every=1, one row
    # per state, read off its snapshots table.
    return trace.snapshots["s"].reshape(len(trace.columns["t"]), -1)


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
        fl.run_normalized(circle(), P64, 1.0, store_every=0)


# -- extinction --------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_circle_extinction_time(alpha):
    p = FlowParams(alpha=alpha, m=64)
    trace = fl.run_to_extinction(circle(), p)
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - 1.0 / (1.0 + alpha)) <= 1e-6
    _assert_stops_on_its_first_extinct_row(trace, p)


def _assert_stops_on_its_first_extinct_row(trace, p):
    # The march stops by trace_outcome, the rule verify applies to
    # trace.csv: no shorter trace of two rows or more reads extinct.
    for n in range(2, len(trace.columns["t"])):
        prefix = {name: column[:n] for name, column in trace.columns.items()}
        assert fl.trace_outcome(prefix, p)[0] is not StopReason.EXTINCT
    assert fl.trace_outcome(trace.columns, p) == (StopReason.EXTINCT, trace.extinction_time)


def test_extinction_march_has_no_collapse_floor():
    # A circle of radius 2 falls below STOP_INRADIUS times its starting
    # curvature radius at radius 2e-3, and no march stops there: the
    # normalized state stays the unit circle, and the run ends once its
    # estimate of T has settled.
    trace = fl.run_to_extinction(circle(2.0), P64)
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - 2.0) <= 1e-6


def test_march_stops_where_the_linear_part_overflows():
    # The march sees the body at unit area, whatever its size, so only its
    # shape can make A = alpha r_min^-(alpha+1) large: the normalized
    # curvature radius of 1 + 0.3 cos(2 theta) falls to about 0.1, and at
    # alpha = 400 A (1 - k^2) on the top mode overflows.
    y = geo.make_fourier_body([1.0, 0.0, 0.3], m=64).samples
    march = fl._etd_march(y, FlowParams(alpha=400.0, m=64), math.inf, math.inf)
    next(march)
    with pytest.raises(geo.ConvexityLostError, match="too small to step"):
        next(march)


def test_march_of_a_body_whose_scale_power_overflows_raises():
    # t advances at R^(1+alpha), which is 1e600 here; the march refuses to
    # start rather than carry infinities.
    y = np.full(64, 1e300)
    with pytest.raises(OverflowError, match="R\\^\\(1\\+alpha\\) overflows at R = 1.000e[+]300"):
        next(fl._etd_march(y, P64, math.inf, math.inf))


def test_march_stops_where_the_step_no_longer_advances_time(monkeypatch):
    # On a circle of radius 1e150 the step of t, 0.01 r^2, falls below half
    # the spacing of floats at t long before extinction, near tau = 16:
    # t + dt == t.  A run to extinction stops well before, once its
    # estimate has settled, at the circle's own extinction time r^2 / 2.
    # Under a rule that never settles the record must stop at the last
    # state whose t advanced rather than repeat the time, while the march
    # itself goes on in tau.
    s0 = circle(1e150)
    trace = fl.run_to_extinction(s0, P64)
    assert trace.stop_reason is StopReason.EXTINCT
    assert trace.extinction_time == pytest.approx(0.5e300, rel=1e-7, abs=0.0)
    assert np.all(np.diff(trace.columns["t"]) > 0.0)
    monkeypatch.setattr(fl, "STOP_TOL", -1.0)
    trace = fl.run_to_extinction(s0, P64)
    assert trace.stop_reason is StopReason.CONVEXITY_LOST
    assert np.all(np.diff(trace.columns["t"]) > 0.0)
    assert trace.columns["inradius"][-1] > fl.STOP_INRADIUS
    stalled = [state for state in fl._etd_march(s0.samples, P64, math.inf, 20.0)
               if state[0] == trace.columns["t"][-1]]
    assert len(stalled) > 1


def test_circle_radius_follows_power_law():
    p = FlowParams(alpha=1.0, m=64)
    trace = fl.run_to_extinction(circle(), p, snapshot_every=1)
    T = 0.5
    for t, row in zip(trace.columns["t"], _kept_states(trace)):
        if t > 0.9 * T:
            break
        expected = math.sqrt(max(1.0 - 2.0 * t, 0.0))
        assert abs(geo.inradius(geo.SupportFunction(row)) - expected) <= 1e-10


def test_time_limit_stop():
    trace = fl.run_to_extinction(circle(), P64, t_max=0.01)
    assert trace.stop_reason is StopReason.TIME_LIMIT
    assert trace.extinction_time is None
    assert trace.columns["t"][-1] == pytest.approx(0.01, abs=1e-15)


def test_a_zero_time_limit_is_not_the_default_horizon():
    # t_max = 0.0 is a limit of its own: the run stops at its start row.
    # The same row judged with no time limit has stopped short.
    trace = fl.run_to_extinction(circle(), P64, t_max=0.0)
    assert trace.stop_reason is StopReason.TIME_LIMIT
    np.testing.assert_array_equal(trace.columns["t"], [0.0])
    assert fl.trace_outcome(trace.columns, P64) == (StopReason.CONVEXITY_LOST, None)


def test_eccentric_ellipse_extinction_time():
    # At alpha = 1 the area falls at exactly 2 pi for every convex body, so
    # T = A0 / 2 pi.  A 6:1 ellipse is where a frozen scalar diffusivity is
    # furthest from the local one, and a step rule blind to eccentricity
    # misses this by ~1e-4.
    s0 = geo.make_ellipse(math.sqrt(6.0), 1.0 / math.sqrt(6.0), m=128)
    trace = _assert_frozen_march(s0, FlowParams(alpha=1.0, m=128), FROZEN_ELLIPSE[1.0])
    assert abs(trace.extinction_time - geo.area(s0) / (2.0 * math.pi)) <= 1e-6


def test_ellipse_at_alpha_0_6_goes_extinct_at_the_converged_time():
    # The 2:1 ellipse is still rounding off near extinction at alpha = 0.6,
    # so its estimate settles only at the floor.  The reference is the
    # inradius-stopped march with the circle-law fit, at stop radius 1e-5,
    # where the fit's bias has gone; at 1e-3 that march gave 0.3641343143565.
    p = FlowParams(alpha=0.6)
    trace = fl.run_to_extinction(geo.make_ellipse(1.0, 0.5, m=256), p)
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - 0.3641338335873) <= 1e-9
    assert trace.columns["inradius"][-1] < fl.STOP_INRADIUS
    _assert_stops_on_its_first_extinct_row(trace, p)


def test_ellipse_at_alpha_one_third_settles_at_its_shrinker_time():
    # At alpha = 1/3 every ellipse shrinks homothetically, and vanishes at
    # (3/4)(ab)^(2/3); the estimate is exact on every row and settles one
    # unit of normalized time in.
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(geo.make_ellipse(1.0, 0.5, m=128),
                                 FlowParams(alpha=1.0 / 3.0, m=128), stats=stats)
    assert trace.stop_reason is StopReason.EXTINCT
    assert trace.extinction_time == pytest.approx(0.75 * 0.5 ** (2.0 / 3.0), rel=1e-9, abs=0.0)
    assert trace.columns["inradius"][-1] > 100.0 * fl.STOP_INRADIUS
    assert stats.accepted_steps < 2000


# Extinction times and accepted step counts of the ETD march whose z = A dt
# and A are rounded onto ladders of BANDS rungs per octave, so that steps
# share their phi-weights, and whose run to extinction tests its stop rule
# on every STORE_EVERY-th state.  The march must reproduce them to 1e-12
# relative in the same number of steps, and stop on a kept state.
FROZEN_BENCHMARK_BODIES = {1: (0.49876982264963304, 144),
                           2: (0.4992551597614741, 136),
                           3: (0.49880081921954883, 144)}
FROZEN_ELLIPSE = {0.6: (0.6846528446977659, 20848),
                  1.0: (0.5000000143090954, 18520),
                  2.0: (0.19168233734001994, 29944)}


def _assert_frozen_march(s0, p, frozen):
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(s0, p, stats=stats)
    assert trace.stop_reason is StopReason.EXTINCT
    assert trace.extinction_time == pytest.approx(frozen[0], rel=1e-12, abs=0.0)
    assert stats.accepted_steps == fl.STORE_EVERY * (len(trace.columns["t"]) - 1) == frozen[1]
    _assert_stops_on_its_first_extinct_row(trace, p)
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


# |T - A0/2 pi|, accepted steps and the normalized time tau reached on the
# benchmark bodies at m = 256 when the phi-weights were evaluated afresh on
# every step and the stop rule tested on every state.  The taus were
# measured with BANDS = 2^40, which reproduces those steps and errors.
UNBANDED_BENCHMARK_BODIES = {1: (9.24e-10, 135, 1.0507124244071475),
                             2: (7.39e-10, 128, 1.0597932756426003),
                             3: (4.53e-10, 133, 1.0489645872339841)}


@pytest.mark.parametrize("seed", sorted(UNBANDED_BENCHMARK_BODIES))
def test_ladders_share_weights_on_benchmark_bodies(seed):
    # The banded march to the unbanded one's tau, so that the step count
    # measures the ladders and not where a run to extinction stops.
    s0, p = _benchmark_body(seed), FlowParams(alpha=1.0, m=256)
    error, steps, tau = UNBANDED_BENCHMARK_BODIES[seed]
    stats = fl.MarchStats()
    for _ in fl._etd_march(s0.samples, p, math.inf, tau, stats):
        pass
    assert stats.weight_evals <= 64
    assert stats.accepted_steps <= 1.02 * steps
    trace = fl.run_to_extinction(s0, p)
    assert abs(trace.extinction_time - geo.area(s0) / (2.0 * math.pi)) <= error


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_step_ladders_only_shorten_the_step(alpha):
    p = FlowParams(alpha=alpha, m=256)
    circle_z = alpha * fl.ETD_STEP_SCALE * fl.CFL
    floor = fl.CFL * (2.0 * np.pi / p.m) ** 2
    assert fl._etd_step_size(0.7, 0.7, p.m, p) == circle_z
    rung = 2.0 ** (1.0 / fl.BANDS)
    for contrast in np.linspace(0.05, 1.0, 97):
        accurate = circle_z * contrast ** (0.5 * (alpha + 1.0))
        z = fl._etd_step_size(contrast, 1.0, p.m, p)
        assert z == floor or accurate / rung < z <= accurate
    for r_min in np.logspace(-3.0, 1.0, 101):
        exact = alpha * r_min ** -(alpha + 1.0)
        a = fl._etd_diffusivity(r_min, alpha)
        assert exact <= a < exact * rung
        rungs = math.log2(a) * fl.BANDS
        assert abs(rungs - round(rungs)) <= 1e-9


def test_extinction_estimate_exact_on_synthetic_shrinker():
    # A circle whose radius follows its law r^(1+alpha) = (1+alpha)(T - t)
    # has area pi r^2 and kappa_integral 2 pi r^(1-alpha); every row's
    # estimate is T to roundoff.  The rule settles on the first row one
    # unit of normalized time past the start, the first whose area is below
    # e^-2 of the first row's, and not before.
    p = FlowParams(alpha=1.5)
    T = 0.4
    times = np.linspace(0.0, 0.399, 80)
    radii = ((1.0 + p.alpha) * (T - times)) ** (1.0 / (1.0 + p.alpha))
    columns = {"t": times, "area": math.pi * radii**2,
               "kappa_integral": 2.0 * math.pi * radii ** (1.0 - p.alpha),
               "inradius": radii, "circumradius": radii}
    first = int(np.argmax(columns["area"] < math.exp(-2.0) * columns["area"][0]))
    assert 0 < first < len(times) - 1
    for i in range(len(times)):
        rows = {name: column[:i + 1] for name, column in columns.items()}
        settled = fl._settled(rows["t"], rows["area"], rows["kappa_integral"], p.alpha)
        assert settled == (i >= first)
        assert fl._estimate(times, columns["area"], columns["kappa_integral"], p.alpha, i) == \
            pytest.approx(T, rel=1e-14, abs=0.0)
    rows = {name: column[:first + 1] for name, column in columns.items()}
    stop, extinction = fl.trace_outcome(rows, p)
    assert stop is StopReason.EXTINCT
    assert extinction == fl._estimate(times, columns["area"], columns["kappa_integral"],
                                      p.alpha, first)


def test_trace_is_monotone_and_shrinking():
    trace = fl.run_to_extinction(circle(), P64)
    times = np.asarray(trace.columns["t"])
    assert np.all(np.diff(times) > 0.0)
    areas = np.asarray(trace.columns["area"])
    assert np.all(np.diff(areas) < 0.0)


# -- the record loop both marches share ---------------------------------------

def _stub_coefficients(i):
    return np.fft.rfft((1.0 - 0.01 * i) * np.ones(64))


def _stub_march(n, lose_convexity):
    # Yields n shrinking circles on 64 points, the same as body and as
    # normalized state, with t = tau; then, if asked,
    # raises as a march does when no acceptable step exists.
    def march(y, p, t_end, tau_end, stats=None):
        for i in range(n):
            yield 0.01 * i, 0.01 * i, 1.0, _stub_coefficients(i)
        if lose_convexity:
            raise geo.ConvexityLostError("no acceptable step")
    return march


def _stub_rows(s0, stored, scaled=True):
    # The physical start row is the input samples; every other stored row
    # is the inverse transform of what the march yielded.
    return [s0.samples if i == 0 and scaled else np.fft.irfft(_stub_coefficients(i), n=64)
            for i in stored]


def test_lost_convexity_keeps_the_last_accepted_state_once(monkeypatch):
    monkeypatch.setattr(fl, "_etd_march", _stub_march(5, lose_convexity=True))
    monkeypatch.setattr(fl, "STORE_EVERY", 3)
    s0 = circle()
    trace = fl.run_to_extinction(s0, P64, snapshot_every=1)
    assert trace.stop_reason is StopReason.CONVEXITY_LOST
    assert trace.extinction_time is None
    np.testing.assert_array_equal(trace.columns["t"], [0.0, 0.03, 0.04])
    np.testing.assert_array_equal(_kept_states(trace), _stub_rows(s0, [0, 3, 4]))
    taus, states = fl.run_normalized(s0, P64, 1.0, store_every=3)
    np.testing.assert_array_equal(taus, [0.0, 0.03, 0.04])
    np.testing.assert_array_equal([s.samples for s in states],
                                  _stub_rows(s0, [0, 3, 4], scaled=False))


def test_march_that_cannot_take_its_first_step_raises(monkeypatch):
    # With no step taken there is no run to record: the error propagates.
    monkeypatch.setattr(fl, "_etd_march", _stub_march(1, lose_convexity=True))
    with pytest.raises(geo.ConvexityLostError):
        fl.run_to_extinction(circle(), P64)


@pytest.mark.parametrize("store_every, n, stored", [
    (1, 4, [0, 1, 2, 3]), (3, 7, [0, 3, 6]), (3, 8, [0, 3, 6, 7])])
def test_both_marches_store_every_kth_state_and_the_last_once(monkeypatch, store_every,
                                                              n, stored):
    monkeypatch.setattr(fl, "_etd_march", _stub_march(n, lose_convexity=False))
    monkeypatch.setattr(fl, "STORE_EVERY", store_every)
    s0 = circle()
    trace = fl.run_to_extinction(s0, P64, t_max=0.01 * (n - 1), snapshot_every=1)
    taus, states = fl.run_normalized(s0, P64, 1.0, store_every=store_every)
    assert trace.stop_reason is StopReason.TIME_LIMIT
    expected = [0.01 * i for i in stored]
    np.testing.assert_array_equal(trace.columns["t"], expected)
    np.testing.assert_array_equal(taus, expected)
    np.testing.assert_array_equal(_kept_states(trace), _stub_rows(s0, stored))
    np.testing.assert_array_equal([s.samples for s in states],
                                  _stub_rows(s0, stored, scaled=False))


def test_a_run_without_snapshots_holds_flat_memory(monkeypatch):
    # The 2:1 ellipse at alpha = 0.2 never settles: each run ends at the
    # step cap.  Kept at every step, from n to 4n steps, the traced peak
    # may grow by trace.csv's rows alone: its seven floats, 56 B a row,
    # in float buffers, at most 100 B per row added.  Python lists of
    # numpy scalars take over 200 B, a row's samples 2 KB.
    s0, p = geo.make_ellipse(1.0, 0.5, m=256), FlowParams(alpha=0.2, m=256)
    monkeypatch.setattr(fl, "STORE_EVERY", 1)
    n, peaks = 125, []
    for steps in (n, 4 * n):
        monkeypatch.setattr(fl, "MAX_STEPS", steps)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="MAX_STEPS"):
                fl.run_to_extinction(s0, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows_added = 3 * n
    assert peaks[1] - peaks[0] <= 100 * rows_added


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


def _state_at(y, p, t_end):
    # The body's samples where the march lands on t_end.
    *_, (t, _, _, w) = fl._etd_march(y, p, t_end, math.inf)
    assert t == t_end
    return np.fft.irfft(w, n=y.size)


@pytest.mark.parametrize("alpha, t_end", [(0.6, 0.1), (1.0, 0.05), (2.0, 0.03)])
@pytest.mark.parametrize("body", ["ellipse", "random"])
def test_etd_march_converges_at_fourth_order(monkeypatch, body, alpha, t_end):
    # CFL scales every step, the parabolic floor included: halving it
    # twice, the state's max-norm differences fall by 2^4 = 16 on an
    # order-4 march, about 7 if the third stage reads n_a for n_b, and
    # about 2 if the f2 weight is off by 1e-3.
    if body == "ellipse":
        s0 = geo.make_ellipse(1.0, 0.5, m=64)
    else:
        s0 = geo.random_convex_body(np.random.default_rng(3), m=64)
    p, cfl, states = FlowParams(alpha=alpha, m=64), fl.CFL, []
    for scale in (1.0, 0.5, 0.25):
        monkeypatch.setattr(fl, "CFL", cfl * scale)
        states.append(_state_at(s0.samples, p, t_end))
    coarse, fine = (np.max(np.abs(a - b)) for a, b in itertools.pairwise(states))
    assert 10.0 <= coarse / fine <= 22.0


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
    theta = geo._angles(m)
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
    with pytest.raises(StepRejectedError):
        fl._etd_radius(v)


def test_oversized_steps_are_halved_and_the_run_still_goes_extinct(monkeypatch):
    # A trial step that leaves the convex cone is retried at half the step.
    # The normalized march stays convex even at 100 times its step, so
    # every other trial is made to fail: each step is then taken at half
    # its size, and the 2:1 ellipse still vanishes at A_0 / 2 pi = 1.
    etdrk4_step = fl._etdrk4_step
    trials = []

    def every_other_trial_fails(*args):
        trials.append(args)
        if len(trials) % 2:
            raise StepRejectedError
        return etdrk4_step(*args)

    monkeypatch.setattr(fl, "_etdrk4_step", every_other_trial_fails)
    body = geo.make_ellipse(2.0, 1.0, m=64)
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(body, P64, stats=stats)
    assert stats.halved_trials == stats.accepted_steps > 0
    assert trace.stop_reason is StopReason.EXTINCT
    assert abs(trace.extinction_time - geo.area(body) / (2.0 * math.pi)) <= 1e-3


def test_step_that_never_stays_convex_raises_after_the_last_halving(monkeypatch):
    def rejected(*args):
        raise StepRejectedError

    monkeypatch.setattr(fl, "_etdrk4_step", rejected)
    stats = fl.MarchStats()
    with pytest.raises(geo.ConvexityLostError, match="lost convexity"):
        fl.run_to_extinction(circle(), P64, stats=stats)
    assert stats.halved_trials == fl.MAX_STEP_HALVINGS
    assert stats.accepted_steps == 0


@pytest.mark.parametrize("scaled", [False, True])
def test_etd_step_takes_nine_ffts(monkeypatch, scaled):
    # Eight inside the march and one for the stored row, physical (scaled)
    # or normalized.
    calls = []

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapper

    s0 = geo.random_convex_body(np.random.default_rng(3), m=64)
    y = s0.samples
    t_end, tau_end = (0.05, math.inf) if scaled else (math.inf, 0.05)
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    stats = fl.MarchStats()
    states = list(fl._etd_march(y, P64, t_end, tau_end, stats))
    steps = stats.accepted_steps
    assert steps == len(states) - 1 > 0
    assert stats.halved_trials == 0
    # The start costs rfft(y) and its curvature radius, rfft and irfft.
    assert len(calls) == 3 + 8 * steps
    assert stats.remainder_evals == 4 * steps
    assert 0 < stats.weight_evals <= steps
    assert 0.0 < stats.dt_min <= stats.dt_max
    # Recording every state adds one inverse transform per step, made by
    # each record from the states the recorder hands on; the physical
    # start row is y itself, the normalized one a transform.  The rows
    # are caught where each record measures or rebuilds them, and those
    # transform nothing here.
    start = y if scaled else np.fft.irfft(states[0][3] / states[0][2], n=64)
    rows = []
    monkeypatch.setattr(fl, "STORE_EVERY", 1)
    monkeypatch.setattr(fl, "_trace_row", lambda row, alpha: rows.append(row) or (1.0,) * 6)
    monkeypatch.setattr(fl, "SupportFunction", rows.append)
    calls.clear()
    stats = fl.MarchStats()
    if scaled:
        trace = fl.run_to_extinction(s0, P64, t_max=t_end, stats=stats)
        assert trace.stop_reason is StopReason.TIME_LIMIT
    else:
        fl.run_normalized(s0, P64, tau_end, stats=stats)
    assert stats.accepted_steps == steps
    assert len(rows) == steps + 1
    np.testing.assert_array_equal(rows[0], start)
    assert len(calls) == (3 if scaled else 4) + 9 * steps


def _march_states(s0, p=P64):
    # Every physical state s = R s_hat of the march, at its time t.
    y0 = np.array(s0.samples)
    march = fl._etd_march(y0, p, math.inf, math.inf)
    for accepted, (t, tau, r, w) in enumerate(march):
        yield accepted, t, y0 if accepted == 0 else np.fft.irfft(w, n=p.m)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("store_every", [1, 8])
def test_march_stops_on_the_row_the_exact_test_picks(monkeypatch, seed, store_every):
    # The rule applied to the geometry functions of every kept state, row
    # by row, with the earlier row found by a plain search, stops on the
    # same state as run_to_extinction, well above the floor, whether it
    # keeps every state or every 8th.
    monkeypatch.setattr(fl, "STORE_EVERY", store_every)
    s0 = _benchmark_body(seed, m=64)
    trace = fl.run_to_extinction(s0, P64, snapshot_every=1)
    times, estimates, areas = [], [], []
    for accepted, t, y in _march_states(s0):
        if accepted % store_every:
            continue
        s = geo.SupportFunction(y)
        times.append(t)
        areas.append(geo.area(s))
        estimates.append(t + areas[-1] / fl.curvature_integral(s, 1.0))
        earlier = [j for j in range(len(areas) - 1) if areas[j] >= math.exp(2.0) * areas[-1]]
        if earlier and (abs(estimates[-1] - estimates[earlier[-1]])
                        <= fl.STOP_TOL * abs(estimates[-1])):
            break
    assert trace.stop_reason is StopReason.EXTINCT
    np.testing.assert_array_equal(trace.columns["t"], times)
    np.testing.assert_array_equal(_kept_states(trace)[-1], y)
    assert trace.extinction_time == estimates[-1]
    assert trace.columns["inradius"][-1] > 100.0 * fl.STOP_INRADIUS
    # With a rule that never settles, testing each stored state's samples
    # against the floor stops on the same state.
    monkeypatch.setattr(fl, "STOP_TOL", -1.0)
    trace = fl.run_to_extinction(s0, P64, snapshot_every=1)
    for accepted, t, y in _march_states(s0):
        if accepted % store_every == 0 and geo._steiner(y)[2].min() < fl.STOP_INRADIUS:
            break
    assert trace.stop_reason is StopReason.EXTINCT
    assert trace.columns["t"][-1] == t
    np.testing.assert_array_equal(_kept_states(trace)[-1], y)
    assert trace.columns["inradius"][-1] < fl.STOP_INRADIUS
    assert np.all(trace.columns["inradius"][:-1] >= fl.STOP_INRADIUS)


def _radii_of_every_state(s0, extremum):
    # The extremum of the curvature radius of every state a run to
    # extinction accepted, the start included, and that run's MarchStats.
    stats = fl.MarchStats()
    fl.run_to_extinction(s0, P64, stats=stats)
    states = itertools.islice(_march_states(s0), stats.accepted_steps + 1)
    return stats, [float(extremum(geo.curvature_radius_samples(y))) for _, _, y in states]


def test_march_records_the_largest_curvature_radius():
    stats, radii = _radii_of_every_state(geo.make_ellipse(1.3, 1.0, m=64), np.max)
    assert stats.r_max == pytest.approx(max(radii), rel=1e-12)
    assert stats.r_max > radii[-1]


def test_march_records_the_smallest_curvature_radius():
    stats, radii = _radii_of_every_state(geo.make_ellipse(1.3, 1.0, m=64), np.min)
    # The march takes each radius from the coefficients, the geometry
    # function from the samples; the two routes agree to rounding.
    assert stats.r_min == pytest.approx(min(radii), rel=1e-12)
    assert stats.r_min < radii[0]


def _count_kernel_calls(monkeypatch):
    # Calls of the kernel curvature_radius_samples at the flow module's
    # binding and at geometry's, from here on.
    calls = {"flow": 0, "geometry": 0}
    kernel = geo.curvature_radius_samples

    def counted(binding):
        def wrapper(*args, **kwargs):
            calls[binding] += 1
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fl, "curvature_radius_samples", counted("flow"))
    monkeypatch.setattr(geo, "curvature_radius_samples", counted("geometry"))
    return calls


def test_extinction_run_calls_the_kernel_only_from_the_march(monkeypatch):
    s0 = _benchmark_body(1, m=64)
    calls = _count_kernel_calls(monkeypatch)
    stats = fl.MarchStats()
    trace = fl.run_to_extinction(s0, P64, stats=stats)
    fl.trace_summary_rows(trace)
    # One radius for the start, then three stages and the new radius per
    # step; the stored states are never rebuilt as SupportFunctions.  The
    # kappa_integral column takes one radius per stored row, computed once
    # as the row is kept, and the stop test reads it.
    assert calls == {"flow": 1 + 4 * stats.accepted_steps,
                     "geometry": len(trace.columns["t"])}


# -- normalized flow ---------------------------------------------------------

def test_normalized_circle_is_a_fixed_point():
    p = FlowParams(alpha=1.0, m=64)
    taus, states = fl.run_normalized(circle(), p, 2.0)
    assert taus[-1] == pytest.approx(2.0, abs=1e-12)
    for s in states:
        assert np.max(np.abs(s.samples - 1.0)) <= 1e-9


def _rk4_normalized(s, p, tau_end):
    # The Runge-Kutta reference: classical RK4 under the parabolic bound,
    # from the body scaled to the area pi that the march starts from.
    s = geo.SupportFunction(s.samples / math.sqrt(geo.area(s) / math.pi))
    tau = 0.0
    while tau < tau_end:
        dt = min(fl.stable_dt(s, p), tau_end - tau)
        s = fl.step(s, p, dt, normalized=True)
        tau += dt
    return s


def _sup_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_normalized_march_matches_rk4_near_the_circle(alpha):
    p = FlowParams(alpha=alpha, m=64)
    theta = geo._angles(64)
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_mode_amplitudes_are_read_off_the_march(monkeypatch, seed, alpha):
    # Given a mode, run_normalized keeps the march's own coefficients of
    # each state: the same taus as the states, bit for bit, their
    # amplitudes to rounding, and no kernel call but the march's, since no
    # state is rebuilt as a SupportFunction.
    p = FlowParams(alpha=alpha, m=64)
    s0 = geo.random_convex_body(np.random.default_rng(seed), m=64)
    taus, states = fl.run_normalized(s0, p, 0.5)
    rows = np.array([s.samples for s in states])
    calls = _count_kernel_calls(monkeypatch)
    for mode in (0, 1, 2, 32):
        calls.update(flow=0, geometry=0)
        stats = fl.MarchStats()
        mode_taus, amplitudes = fl.run_normalized(s0, p, 0.5, stats=stats, mode=mode)
        assert mode_taus.tobytes() == taus.tobytes()
        np.testing.assert_allclose(amplitudes,
                                   geo._spectrum_amplitudes(np.fft.rfft(rows), mode),
                                   rtol=0.0, atol=1e-15)
        assert calls == {"flow": 1 + 4 * stats.accepted_steps, "geometry": 0}


def test_a_mode_off_the_grid_fails_before_the_march():
    stats = fl.MarchStats()
    with pytest.raises(ValueError, match="mode must lie in"):
        fl.run_normalized(circle(), P64, 1.0, stats=stats, mode=33)
    assert stats.accepted_steps == 0


def test_linearized_mode_rate_values():
    assert fl.linearized_mode_rate(1.0, 2) == pytest.approx(-2.0)
    assert fl.linearized_mode_rate(1.0, 3) == pytest.approx(-7.0)
    assert fl.linearized_mode_rate(0.5, 2) == pytest.approx(-0.5)
    # translation modes are neutral directions of the shape, rate 1 - 0
    assert fl.linearized_mode_rate(2.0, 1) == pytest.approx(1.0)


def test_fit_decay_rate_recovers_synthetic_series():
    taus = np.linspace(0.0, 4.0, 200)
    fit = fl.fit_decay_rate(taus, 3e-2 * np.exp(-1.7 * taus), (1.0, 3.0))
    assert abs(fit.rate + 1.7) <= 1e-12
    assert fit.residual_rms <= 1e-12


def test_fit_decay_rate_needs_enough_points():
    taus = np.linspace(0.0, 4.0, 200)
    with pytest.raises(ValueError):
        fl.fit_decay_rate(taus, np.exp(-taus), (3.99, 4.0))


def test_fit_decay_rate_rejects_a_nan_delta_in_its_window():
    taus = np.linspace(0.0, 4.0, 200)
    deltas = np.exp(-taus)
    deltas[100] = np.nan  # tau = 2.01, inside the window
    with pytest.raises(ValueError, match="deltas must be positive"):
        fl.fit_decay_rate(taus, deltas, (1.0, 3.0))


def test_mode_three_decays_at_its_own_rate():
    body = geo.make_fourier_body([1.0, 0.0, 0.0, 1e-3], m=128)
    taus, amplitudes = fl.run_normalized(body, FlowParams(alpha=1.0, m=128), 2.0, mode=3)
    fit = fl.fit_decay_rate(taus, amplitudes, (0.5, 1.5))
    expected = fl.linearized_mode_rate(1.0, 3)
    assert abs(fit.rate - expected) / abs(expected) <= 5e-3


def test_perturbation_modes_stay_decoupled():
    # Starting from circle + eps*cos(3 theta), other modes are excited only
    # at second order in eps.
    eps = 1e-3
    theta = geo._angles(128)
    s0 = geo.SupportFunction(1.0 + eps * np.cos(3.0 * theta))
    p = FlowParams(alpha=1.0, m=128)
    _, states = fl.run_normalized(s0, p, 1.0)
    for s in states:
        spectrum = np.fft.rfft(s.samples)
        assert geo._spectrum_amplitudes(spectrum, 2) <= 10.0 * eps**2
        assert geo._spectrum_amplitudes(spectrum, 4) <= 10.0 * eps**2


def test_delta_to_circle_contracts_for_near_circle():
    # delta_to_circle is scale free, so it is the distance of the normalized
    # state to the unit circle.  The run stops about one unit of normalized
    # time tau = -log(2 (T - t)) / 2 after its start; delta falls on every
    # row, and over the trace by the decay e^(-2 tau) of the cos(2 theta)
    # mode, whose linearized rate is 1 - 3 alpha = -2.
    p = FlowParams(alpha=1.0, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.05, 1.0, m=128), p)
    vals = trace.columns["delta_to_circle"]
    tau = -0.5 * np.log(2.0 * (trace.extinction_time - trace.columns["t"]))
    assert np.all(np.diff(vals) <= 1e-12)
    assert 0.9 < tau[-1] - tau[0] < 1.1
    assert vals[-1] / vals[0] == pytest.approx(math.exp(-2.0 * (tau[-1] - tau[0])), rel=0.02)


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


def test_area_defect_needs_increasing_times():
    with pytest.raises(ValueError, match="increase"):
        fl.area_defect([0.0, 0.5, 0.5, 1.0], [1.0, 0.8, 0.7, 0.5], [1.0] * 4)


def test_trace_integrals_and_defect_match_the_per_state_arithmetic():
    # Both run on the whole trace at once; each must equal the per-state
    # curvature integral and a row-by-row three-point stencil bit for bit.
    p = FlowParams(alpha=2.0, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=128), p, snapshot_every=1)
    integrals = fl._curvature_integrals(_kept_states(trace), p.alpha)
    np.testing.assert_array_equal(
        integrals, [fl.curvature_integral(geo.SupportFunction(row), p.alpha)
                    for row in _kept_states(trace)])
    t, a = trace.columns["t"], trace.columns["area"]
    worst = 0.0
    for i in range(1, len(t) - 1):
        h1, h2 = float(t[i] - t[i - 1]), float(t[i + 1] - t[i])
        dadt = (-h2 / (h1 * (h1 + h2)) * float(a[i - 1])
                + (h2 - h1) / (h1 * h2) * float(a[i])
                + h1 / (h2 * (h1 + h2)) * float(a[i + 1]))
        worst = max(worst, abs(dadt + float(integrals[i])))
    assert fl.area_defect(t, a, integrals) == worst > 0.0


def test_area_rate_identity_along_flow():
    p = FlowParams(alpha=1.0, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=128), p)
    assert fl.area_rate_check(trace.columns) <= 1e-8


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
    tables.write_columns(path, trace.columns)
    back = tables.read_columns(path)
    assert list(back) == list(fl.TRACE_COLUMNS)
    for name in fl.TRACE_COLUMNS:
        np.testing.assert_array_equal(back[name], trace.columns[name])


@pytest.mark.parametrize("body", ["ellipse", "benchmark"])
def test_trace_columns_match_the_per_state_functions(body):
    # Each row is measured as the march keeps it, with geometry's own
    # arithmetic; it must equal the geometry functions applied to its
    # state, bit for bit.
    if body == "ellipse":
        s0, p = geo.make_ellipse(3.0, 1.0, m=128), FlowParams(alpha=1.0, m=128)
        trace = fl.run_to_extinction(s0, p, t_max=0.2, snapshot_every=1)
    else:
        trace = fl.run_to_extinction(_benchmark_body(2), FlowParams(alpha=1.0, m=256),
                                     snapshot_every=1)
    states = [geo.SupportFunction(row) for row in _kept_states(trace)]
    assert len(states) == len(trace.columns["t"]) > 10
    np.testing.assert_array_equal(trace.columns["area"], [geo.area(s) for s in states])
    np.testing.assert_array_equal(trace.columns["length"], [geo.length(s) for s in states])
    expected = []
    for t, s in zip(trace.columns["t"], states):
        cx, cy = geo.steiner_point(s)
        rec = geo.translate(s, (-cx, -cy)).samples
        mean_radius = float(np.mean(rec))
        expected.append([t, geo.area(s), geo.length(s), geo.inradius(s),
                         geo.circumradius(s),
                         float(np.max(np.abs(rec - mean_radius))) / mean_radius,
                         fl.curvature_integral(s, 1.0)])
    columns = trace.columns
    np.testing.assert_array_equal(np.column_stack(list(columns.values())), expected)


@pytest.mark.parametrize("alpha", [0.6, 2.0])
def test_kappa_integral_column_matches_the_per_state_integral(alpha):
    # Computed once per row as the march keeps it; each row must equal
    # curvature_integral of its state bit for bit.
    p = FlowParams(alpha=alpha, m=128)
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=128), p, snapshot_every=1)
    assert len(trace.columns["t"]) > 15
    np.testing.assert_array_equal(
        trace.columns["kappa_integral"],
        [fl.curvature_integral(geo.SupportFunction(row), alpha) for row in _kept_states(trace)])


def test_trace_summary_rows_fields():
    trace = fl.run_to_extinction(circle(), P64)
    columns = fl.trace_summary_rows(trace)
    assert tuple(columns) == ("t", "area", "length", "inradius", "circumradius",
                              "delta_to_circle", "kappa_integral")
    assert all(len(column) == len(trace.columns["t"]) for column in columns.values())
    assert columns["t"][0] == 0.0
    assert math.isclose(columns["area"][0], math.pi, rel_tol=1e-12)


@pytest.mark.parametrize("every", [1, 3, 50])
def test_snapshot_columns_hold_every_kth_state_and_the_last(every):
    # A run holds kept rows 0, k, 2k, ... and the last of the rows a run
    # with k = 1 holds; k changes neither the march nor trace.csv, and a
    # run with k = 0 holds none.
    trace = fl.run_to_extinction(circle(), P64, snapshot_every=1)
    held = fl.run_to_extinction(circle(), P64, snapshot_every=every)
    columns = held.snapshots
    assert tuple(columns) == ("t", "theta", "s")
    for name in fl.TRACE_COLUMNS:
        assert held.columns[name].tobytes() == trace.columns[name].tobytes()
    assert fl.run_to_extinction(circle(), P64).snapshots is None
    samples = _kept_states(trace)
    n, m = samples.shape
    rows = sorted({i for i in range(n) if i % every == 0} | {n - 1})
    np.testing.assert_array_equal(columns["s"].reshape(-1, m), samples[rows])
    np.testing.assert_array_equal(columns["t"].reshape(-1, m),
                                  np.repeat(trace.columns["t"][rows, None], m, axis=1))
    np.testing.assert_array_equal(columns["theta"].reshape(-1, m),
                                  np.broadcast_to(geo._angles(m), (len(rows), m)))


def test_negative_snapshot_every_is_rejected():
    with pytest.raises(ValueError, match="snapshot_every"):
        fl.run_to_extinction(circle(), P64, snapshot_every=-1)


def test_snapshot_table_reads_back_bit_for_bit(tmp_path):
    trace = fl.run_to_extinction(geo.make_ellipse(1.3, 1.0, m=64), P64, snapshot_every=3)
    columns = trace.snapshots
    tables.write_columns(tmp_path / "snapshots.csv", columns)
    back = tables.read_columns(tmp_path / "snapshots.csv")
    assert list(back) == ["t", "theta", "s"]
    for name, column in columns.items():
        assert back[name].tobytes() == column.tobytes()
