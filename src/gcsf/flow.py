"""Time integration of the power-of-curvature contracting flow.

In support-function form the flow is ds/dt = -(s'' + s)^(-alpha).  It is
marched area-normalized (Andrews, Calc. Var. PDE 7, 1998): s = R s_hat
with dt/dtau = R^(1+alpha), d(ln R)/dtau = -lambda and
ds_hat/dtau = -(s_hat'' + s_hat)^(-alpha) + lambda s_hat, where lambda,
the integral of r_hat^(1-alpha) over twice the area, holds the area of
s_hat at pi.  As the body shrinks to a round point R falls to 0 and s_hat
tends to the unit circle.  Both flow experiments record this one march,
_etd_march: run_to_extinction the body s at t, run_normalized s_hat at tau,
or, given a mode, that harmonic's amplitude of s_hat, read off the march's
own Fourier coefficients without a transform.

The march is exponential time differencing (ETDRK4, Cox & Matthews,
J. Comput. Phys. 176, 2002) on the Fourier coefficients of s_hat.  The
linear part A(1 - k^2) + 1 freezes the largest local diffusivity
A = alpha * r_min^-(alpha+1) for one step and is integrated exactly, so the
step is set by accuracy rather than by the parabolic bound.  The
phi-functions take their closed forms, except on the few modes where
those cancel, which take a truncated Taylor series in place of the contour
means of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005).  The single
`step`, the classical 4-stage Runge-Kutta scheme under the explicit
parabolic bound `stable_dt`, is kept as the reference the ETD march is
tested against.  Convexity failures reject the step rather than
projecting the state back.
"""

from __future__ import annotations

import bisect
import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from gcsf.geometry import (
    DEFAULT_GRID,
    MIN_GRID,
    ConvexityLostError,
    SupportFunction,
    _angles,
    _areas,
    _curvature_integrals,
    _lengths,
    _radius_symbol,
    _require_above,
    _spectrum_amplitudes,
    _steiner,
    curvature_radius_samples,
    length,
)

#: Steps are rejected and halved at most this many times before giving up.
MAX_STEP_HALVINGS = 60

#: A march takes at most this many accepted steps, then raises
#: RuntimeError.  The longest march of the tests, the CI runs, the
#: acceptance configs and the benchmark takes 29,944 steps (the 6:1
#: ellipse at m = 128, alpha = 2), and the 6:1 ellipse at m = 256 and 512,
#: alpha = 1, 53,272 and 62,088: the cap is over 3 times the longest.  An
#: eccentric body at alpha < 1/3, whose steps fall to the parabolic floor
#: and stay there, ends at the cap instead of marching on without end.
MAX_STEPS = 200_000

#: The step constant: each step is a fraction of the fastest diffusive
#: time, CFL * dtheta^2 of it or more (stable_dt, _etd_step_size).
CFL = 0.2

#: On the unit circle an ETD step lasts ETD_STEP_SCALE * CFL in tau; the
#: product rounds to 0.010000000000000002, so it is not folded into 0.01.
ETD_STEP_SCALE = 0.05

#: A run to extinction stops once its estimate of T, exact for shrinkers,
#: settles to this, relative, over one unit of normalized time (_settled).
STOP_TOL = 1e-10

#: It also stops at the first stored row whose inradius is below this floor.
STOP_INRADIUS = 1e-3

#: A run to extinction keeps every STORE_EVERY-th accepted state and the
#: last: enough for its stop rule and the area identity, at an eighth of
#: the rows.
STORE_EVERY = 8

#: Rungs per factor of 2 of the ladders that z = A * dt and A are rounded
#: onto (_etd_step_size, _etd_diffusivity); each rounding shortens a step
#: by a factor of at most 2^(1/BANDS).  On the seed-1 body of the
#: benchmark (m = 256, alpha = 1) 16, 32, 64 and 128 rungs took 140, 138,
#: 136 and 136 accepted steps and 22, 38, 60 and 77 weight evaluations,
#: against 135 and 135 without the ladders; 64 is the coarsest with at
#: most 2% more steps.
BANDS = 64

#: Modes with |z| = |dt * L_k| below this take the Taylor series of the
#: phi-functions, whose closed forms cancel to O(z^3) there.  Above it the
#: closed forms stay within 3e-14 relative.
SERIES_BELOW = 0.7

#: Terms of that series: at |z| = SERIES_BELOW the first term left out is
#: below 1e-17 of every weight.
SERIES_TERMS = 17


def _series_coefficients() -> np.ndarray:
    """(SERIES_TERMS, 4) coefficients of z^n in Q, f1, f2, f3.

    With phi_k(z) = sum z^n / (n + k)!, Q = phi_1(z/2) / 2,
    f1 = phi_1 - 3 phi_2 + 4 phi_3, f2 = phi_2 - 2 phi_3 and
    f3 = -phi_2 + 4 phi_3; over the common (n + 3)! the numerators of the
    last three are (n + 1)^2, n + 1 and 1 - n.  Each coefficient is one
    correctly rounded quotient of exact integers.
    """
    rows = []
    for n in range(SERIES_TERMS):
        top = math.factorial(n + 3)
        rows.append((1 / (2 ** (n + 1) * math.factorial(n + 1)),
                     (n + 1) ** 2 / top, (n + 1) / top, (1 - n) / top))
    return np.array(rows)


_SERIES = _series_coefficients()


class StepRejectedError(RuntimeError):
    """A trial step produced a nonconvex state; the caller should shrink dt."""


class StopReason(str, enum.Enum):
    EXTINCT = "extinct"
    CONVEXITY_LOST = "convexity_lost"
    TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class FlowParams:
    """Parameters shared by every flow solver: the curvature power alpha
    and the grid size m.  Every step is set by the step constant CFL."""

    alpha: float
    m: int = DEFAULT_GRID

    def __post_init__(self) -> None:
        _require_above("alpha", self.alpha)
        if self.m < MIN_GRID or self.m % 2 != 0:
            raise ValueError(f"grid size must be even and >= {MIN_GRID}, got {self.m}")


TRACE_COLUMNS = ("t", "area", "length", "inradius", "circumradius", "delta_to_circle",
                 "kappa_integral")


@dataclass
class FlowTrace:
    """The record of one flow run; times are strictly increasing.

    columns holds trace.csv's columns of the kept rows, keyed by
    TRACE_COLUMNS.  snapshots holds snapshots.csv's columns t, theta and s
    of the kept rows the run held (run_to_extinction's snapshot_every),
    one row per sample, or None where it held none.
    """

    columns: dict[str, np.ndarray]
    snapshots: dict[str, np.ndarray] | None
    extinction_time: float | None
    stop_reason: StopReason

    times = property(lambda self: self.columns["t"])  # perfbench's tracer counts rows by it


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (tau, log delta) over a tau window."""

    rate: float
    residual_rms: float


@dataclass
class MarchStats:
    """What one ETD march did, filled in as it runs.

    accepted_steps counts the steps kept; halved_trials the trial steps
    rejected because a stage or the result left the convex cone, each
    retried at half the step; remainder_evals the evaluations of the
    nonlinear remainder, one at the start of every step and one per stage
    that stayed convex; weight_evals the evaluations of the phi-weights,
    which run only when the diagonal dt * L differs from the previous
    trial's, since z and A sit on ladders of BANDS rungs per octave.
    dt_min and dt_max bound the accepted steps in tau, the last one cut
    short at the end included; both are None until a step is accepted.
    r_min and r_max are the smallest and largest curvature radius of the
    accepted states of the body s, the start included.
    """

    accepted_steps: int = 0
    halved_trials: int = 0
    remainder_evals: int = 0
    weight_evals: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    r_min: float | None = None
    r_max: float | None = None


def stable_dt(s: SupportFunction, p: FlowParams) -> float:
    """Parabolic step bound CFL * dtheta^2 / max(alpha * (s''+s)^-(alpha+1)).

    The linearized diffusivity of the flow is alpha * r^-(alpha+1); an
    explicit scheme must resolve it on the angular grid scale.
    """
    r_min = curvature_radius_samples(s.samples).min()
    if not (r_min > 0.0):
        raise ConvexityLostError("state is not convex")
    dtheta = 2.0 * np.pi / s.m
    return CFL * dtheta**2 * float(r_min) ** (p.alpha + 1.0) / p.alpha


def step(s: SupportFunction, p: FlowParams, dt: float,
         normalized: bool = False) -> SupportFunction:
    """One classical Runge-Kutta step of the flow, at speed -(s'' + s)^(-alpha),
    or of the area-normalized flow, at speed -(s'' + s)^(-alpha) + lambda s.

    dt = 0 returns the state unchanged.  A step whose stages or result leave
    the convex cone raises StepRejectedError; the caller is expected to halve
    dt and retry.
    """
    _require_above("dt", dt, at_floor=True)
    if dt == 0.0:
        return s
    y, alpha = s.samples, p.alpha
    try:
        k1 = _rhs_array(y, alpha, normalized)
        k2 = _rhs_array(y + 0.5 * dt * k1, alpha, normalized)
        k3 = _rhs_array(y + 0.5 * dt * k2, alpha, normalized)
        k4 = _rhs_array(y + dt * k3, alpha, normalized)
        # SupportFunction rejects a nonconvex or non-finite result.
        return SupportFunction(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    except (StepRejectedError, ValueError) as exc:
        raise StepRejectedError(f"step of size {dt:.3e} left the convex cone") from exc


def _rhs_array(y: np.ndarray, alpha: float, normalized: bool) -> np.ndarray:
    """Speed of a Runge-Kutta stage; raises StepRejectedError unless the stage
    keeps a positive curvature radius (NaN included).  On the normalized
    flow lambda = K / (2 A) comes from the stage's samples: K by the
    trapezoid rule on r * r^-alpha, A by geometry's area."""
    radius = curvature_radius_samples(y)
    if not (radius.min() > 0.0):
        raise StepRejectedError
    power = np.power(radius, -alpha)
    if not normalized:
        return -power
    return (math.pi * float(np.mean(radius * power)) / float(_areas(y))) * y - power


def disc_extinction_time(radius: float, alpha: float) -> float:
    """Time R^(1+alpha)/(1+alpha) at which a disc of radius R shrinks to a
    point; infinite where that power overflows."""
    try:
        return float(radius) ** (1.0 + alpha) / (1.0 + alpha)
    except OverflowError:  # Python's float power raises where numpy gives inf
        return math.inf


def _etd_step_size(r_min: float, r_max: float, m: int, p: FlowParams) -> float:
    """Step of the ETD march as a multiple z = A * dt of the fastest diffusive
    time 1/A, A = alpha * r_min^-(alpha+1), for a state on m points whose
    curvature radius lies in [r_min, r_max].

    A circle takes z_circle = alpha * ETD_STEP_SCALE * CFL, a bound set by
    accuracy alone.  On an eccentric body the frozen A overdamps the flat
    arcs, where the local diffusivity alpha * r^-(alpha+1) is smaller, and
    the explicit remainder has to undo it; z therefore shrinks with the
    square root of the diffusivity contrast, (r_min / r_max)^((alpha+1)/2).
    The exponent is measured, not derived: on a 6:1 ellipse at m = 128 and
    alpha = 2 it keeps T within 3e-7 of the RK4 march, where the plain
    ratio r_min / r_max left an error of 7e-6.  That z is rounded down onto
    the ladder z_circle * 2^(-j/BANDS), j = 0, 1, ..., so that steps whose
    contrasts differ a little share their phi-weights.  z never drops
    below the parabolic fraction CFL * dtheta^2 of the Runge-Kutta
    reference, where the linear part is no longer stiff on the grid and
    ETDRK4 is as accurate as classical RK4.
    """
    circle = p.alpha * ETD_STEP_SCALE * CFL
    rungs = math.ceil(-BANDS * 0.5 * (p.alpha + 1.0) * math.log2(r_min / r_max))
    return max(circle * 2.0 ** (-rungs / BANDS), CFL * (2.0 * np.pi / m) ** 2)


def _etd_diffusivity(r_min: float, alpha: float) -> float:
    """The largest local diffusivity alpha * r_min^-(alpha+1), rounded up
    onto the ladder 2^(i/BANDS); inf where that overflows."""
    rung = math.ceil(BANDS * (math.log2(alpha) - (alpha + 1.0) * math.log2(r_min)))
    try:
        return 2.0 ** (rung / BANDS)
    except OverflowError:  # Python's float power raises where numpy gives inf
        return math.inf


def _phi_combinations(z, e, e2):
    """Q, f1, f2, f3 of Cox & Matthews at z, given e = exp(z) and e2 = exp(z/2)."""
    inv3 = 1.0 / (z * z * z)
    return ((e2 - 1.0) / z,
            (-4.0 - z + e * (4.0 - 3.0 * z + z * z)) * inv3,
            (2.0 + z + e * (z - 2.0)) * inv3,
            (-4.0 - 3.0 * z - z * z + e * (4.0 - z)) * inv3)


def _etd_weights(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """ETDRK4 weights for the real diagonal z = dt * L, per unit of dt.

    Returns (E, E2, Q, f1, f2, f3): E = exp(z), E2 = exp(z/2) and the
    phi-function combinations of Cox & Matthews divided by dt,

        Q  = (E2 - 1) / z,
        f1 = (-4 - z + E (4 - 3z + z^2)) / z^3,
        f2 = (2 + z + E (z - 2)) / z^3,
        f3 = (-4 - 3z - z^2 + E (4 - z)) / z^3.

    These closed forms are evaluated in real arithmetic on every mode.
    Where |z| < SERIES_BELOW their numerators cancel (at z = 0 they are
    0/0), so those few modes are overwritten by the Taylor series, one
    product of z's powers with the coefficient table _SERIES.  Against
    60-digit arithmetic every weight is within 1e-13 relative.
    """
    e = np.exp(z)
    e2 = np.exp(0.5 * z)
    # The near modes' closed forms may overflow or be 0/0; they are discarded.
    with np.errstate(all="ignore"):
        weights = np.array(_phi_combinations(z, e, e2))
    near = np.abs(z) < SERIES_BELOW
    weights[:, near] = (np.vander(z[near], SERIES_TERMS, increasing=True) @ _SERIES).T
    return (e, e2, *weights)


def _etd_radius(w: np.ndarray) -> np.ndarray:
    """Curvature radius s'' + s on the grid of the rfft coefficients w, in
    one inverse transform; raises StepRejectedError unless it is positive
    (NaN included)."""
    radius = curvature_radius_samples(spectrum=w)
    if not (radius.min() > 0.0):
        raise StepRejectedError
    return radius


def _remainder(w, radius, lin, gram, alpha):
    """The remainder rfft(-r^-alpha) + (lambda - 1) w - lin * w of the
    normalized flow at the rfft coefficients w of curvature radius radius,
    and lambda = K_hat / (2 A_hat) from two dot products, K_hat = dtheta *
    sum r * r^-alpha and A_hat = (pi / m^2) gram . |w|^2 (_etd_march)."""
    power = np.power(radius, -alpha)
    lam = radius.size * float(radius @ power) / float(gram @ np.square(w.view(float)))
    return np.fft.rfft(-power) - (lin + (1.0 - lam)) * w, lam


def _etdrk4_step(v, n_v, lin, gram, weights, alpha, stats):
    """One ETDRK4 step of the rfft coefficients v; returns v_new, its
    curvature radius, that radius's minimum and maximum, and lambda at the
    three stages.

    n_v is the remainder at v (_remainder), weights E, E2 and dt times Q,
    f1, 2 f2 and f3 of _etd_weights for dt times the linear part lin + 1.
    Each stage costs two transforms, its radius and its remainder.  Stages
    must stay convex, and the result convex with a finite radius, or
    StepRejectedError is raised.
    """
    e, e2, dt_q, dt_f1, dt_f2, dt_f3 = weights
    e2_v = e2 * v
    lams = []

    def remainder(w):
        n_w, lam = _remainder(w, _etd_radius(w), lin, gram, alpha)
        stats.remainder_evals += 1
        lams.append(lam)
        return n_w

    a = e2_v + dt_q * n_v
    n_a = remainder(a)
    b = e2_v + dt_q * n_a
    n_b = remainder(b)
    c = e2 * a + dt_q * (2.0 * n_b - n_v)
    n_c = remainder(c)
    v_new = e * v + dt_f1 * n_v + dt_f2 * (n_a + n_b) + dt_f3 * n_c
    radius = curvature_radius_samples(spectrum=v_new)
    r_min, r_max = float(radius.min()), float(radius.max())
    if not (r_min > 0.0 and r_max < math.inf):
        raise StepRejectedError
    return v_new, radius, r_min, r_max, lams


def _etd_march(y: np.ndarray, p: FlowParams, t_end: float, tau_end: float,
               stats: MarchStats | None = None):
    """Yield (t, tau, R, w) for the start state and after every accepted
    ETDRK4 step of the normalized flow, until t reaches t_end or tau
    reaches tau_end: the time, the normalized time, the scale R and the
    rfft coefficients w of the body s = R * s_hat, whose samples are
    np.fft.irfft(w, n=m).  stats, if given, is updated as the march goes.

    The march starts from s_hat = y / R_0, R_0 = sqrt(A_0 / pi).  Each step
    is ETDRK4 on the coefficients v of s_hat about its Steiner point, with
    the linear part L_k = A(1 - k^2) + 1, A the largest local diffusivity
    of s_hat on its ladder (_etd_diffusivity), and the remainder of
    _remainder.  The step dtau = z / A, z from _etd_step_size, is
    ETD_STEP_SCALE * CFL on the unit circle; since z and A move by whole
    rungs, consecutive steps mostly share the diagonal dtau * L and its
    weights.  An accepted step costs 8 FFTs: the remainder at its start,
    two per stage and the new radius.  ln R and t advance by classical RK4
    on the lambdas of the same four stages, t through
    E = t + R^(1+alpha)/(1+alpha), which is constant on a circle.  The step
    that would pass t_end takes the dtau at which t reaches t_end with
    lambda frozen, and ends at t_end.  Mode 1, the translation, grows like
    e^tau in v unseen by the rest; after each step R times it moves to w's
    mode 1, the body's position, exactly, since R falls as it grows.  A
    step that leaves the convex cone is halved and retried.
    ConvexityLostError is raised after MAX_STEP_HALVINGS halvings and once
    A (1 - k^2) overflows, OverflowError where R_0^(1+alpha) does, and
    RuntimeError in place of a step past MAX_STEPS.  y is never written to.
    """
    if stats is None:
        stats = MarchStats()
    m, alpha, a1 = y.size, p.alpha, 1.0 + p.alpha
    symbol = _radius_symbol(m)
    # By Parseval A_hat = (pi / m^2) gram . |v|^2, on v's (real, imaginary) pairs.
    gram = np.repeat(2.0 * symbol, 2)
    gram[:2], gram[-2:] = symbol[0], symbol[-1]
    v = np.fft.rfft(y)
    mean = float(v[0].real) / m  # of s, positive; dividing by it first keeps |v|^2 finite
    v = v / mean
    r = mean * math.sqrt(float(gram @ np.square(v.view(float)))) / m
    v = v * (mean / r)
    position, v[1] = r * v[1], 0.0  # the body's mode 1, which v leaves out
    try:
        rpow = r**a1  # R^(1+alpha)
    except OverflowError:
        raise OverflowError(f"R^(1+alpha) overflows at R = {r:.3e}") from None
    radius = curvature_radius_samples(y) / r  # as SupportFunction checked it
    r_min, r_max = float(radius.min()), float(radius.max())
    stats.r_min, stats.r_max = r * r_min, r * r_max
    t = tau = 0.0
    steps = 0
    # The weights depend on the diagonal dt * L = z * symbol + dt alone, and
    # z and A take few distinct values.
    weights_key = weights = None
    while True:
        w = r * v
        w[1] = position
        yield t, tau, r, w
        if t >= t_end or tau >= tau_end:
            return
        if steps == MAX_STEPS:
            raise RuntimeError(f"flow march took MAX_STEPS = {MAX_STEPS} steps "
                               f"without ending, at t = {t:.6g}, tau = {tau:.6f}")
        a_max = _etd_diffusivity(r_min, alpha)
        if not math.isfinite(a_max * symbol[-1]):
            raise ConvexityLostError(
                f"curvature radius {r_min:.3e} too small to step at tau = {tau:.6f}")
        lin = a_max * symbol
        n_v, lam = _remainder(v, radius, lin, gram, alpha)
        stats.remainder_evals += 1
        # Where t reaches t_end with lambda frozen: t grows by
        # R^(1+alpha) (1 - exp(-(1+alpha) lambda dtau)) / ((1+alpha) lambda).
        room = a1 * lam * (t_end - t)
        reach = -math.log1p(-room / rpow) / (a1 * lam) if room < rpow else math.inf
        z = _etd_step_size(r_min, r_max, m, p)
        dt = min(z / a_max, tau_end - tau, reach)
        landing = dt == reach
        if dt < z / a_max:
            z = dt * a_max
        for _ in range(MAX_STEP_HALVINGS):
            key = (z, dt)
            if key != weights_key:
                e, e2, q, f1, f2, f3 = _etd_weights(z * symbol + dt)
                weights_key = key
                weights = (e, e2, dt * q, dt * f1, 2.0 * dt * f2, dt * f3)
                stats.weight_evals += 1
            try:
                v, radius, r_min, r_max, stage_lams = _etdrk4_step(
                    v, n_v, lin, gram, weights, alpha, stats)
                break
            except StepRejectedError:
                stats.halved_trials += 1
                dt *= 0.5
                z *= 0.5
                landing = False
        else:
            raise ConvexityLostError(f"flow lost convexity at tau = {tau:.6f}")
        lam_a, lam_b, lam_c = stage_lams
        decay = -dt * (lam + 2.0 * (lam_a + lam_b) + lam_c) / 6.0  # of ln R over the step
        # E = t + R^(1+alpha)/(1+alpha) grows at (1 - lambda) R^(1+alpha),
        # taken at each stage with ln R where RK4 puts it.
        gain = dt / 6.0 * rpow * (1.0 - lam + 2.0 * (1.0 - lam_a) * math.exp(-0.5 * a1 * dt * lam)
                                  + 2.0 * (1.0 - lam_b) * math.exp(-0.5 * a1 * dt * lam_a)
                                  + (1.0 - lam_c) * math.exp(-a1 * dt * lam_b))
        t = t_end if landing else t + gain - rpow * math.expm1(a1 * decay) / a1
        tau += dt
        r *= math.exp(decay)
        rpow *= math.exp(a1 * decay)
        position, v[1] = position + r * v[1], 0.0
        steps += 1
        stats.accepted_steps += 1
        stats.dt_min = dt if stats.dt_min is None else min(stats.dt_min, dt)
        stats.dt_max = dt if stats.dt_max is None else max(stats.dt_max, dt)
        stats.r_min = min(stats.r_min, r * r_min)
        stats.r_max = max(stats.r_max, r * r_max)


def _check_start(s0: SupportFunction, p: FlowParams) -> None:
    if s0.m != p.m:
        raise ValueError(f"state grid {s0.m} does not match params grid {p.m}")


def _record(march, store_every: int, clock: int):
    """Yield (accepted, state) for the accepted states 0, k, 2k, ... of a
    march from _etd_march, k = store_every, and for its last state, once:
    each state (t, tau, R, w) as the march yielded it.

    clock is the index of the state's clock: 0 for t, 1 for tau.  The
    record ends with the march; at the last state whose clock advanced,
    since near extinction the steps of t fall below its rounding; at the
    last state accepted before a ConvexityLostError past the first step;
    or where the consumer stops.
    """
    kept, last, accepted = None, None, 0
    try:
        for accepted, state in enumerate(march):
            if accepted and state[clock] <= last[1][clock]:
                break
            last = accepted, state
            if accepted % store_every == 0:
                kept = accepted
                yield last
    except ConvexityLostError:
        if not accepted:  # no step taken: no run to record
            raise
    if kept != last[0]:
        yield last


def _trace_row(row: np.ndarray, alpha: float) -> tuple:
    """trace.csv's columns area to kappa_integral of one row, with
    geometry's arithmetic; distances are seen from the Steiner point."""
    with np.errstate(over="raise"):  # a body whose area overflows ends the run
        area, kappa = _areas(row), _curvature_integrals(row, alpha)
    d = _steiner(row)[2]
    mean = np.mean(d)
    return area, _lengths(row), d.min(), d.max(), np.max(np.abs(d - mean)) / mean, kappa


def run_to_extinction(
    s0: SupportFunction,
    p: FlowParams,
    t_max: float | None = None,
    stats: MarchStats | None = None,
    snapshot_every: int = 0,
) -> FlowTrace:
    """March the flow until its extinction time has converged, recording
    the body's states.

    The march is _etd_march to t_max, if given.  It keeps every
    STORE_EVERY-th accepted state and the last one, once (_record): the
    input samples for the start, one inverse transform of the march's
    coefficients for every other row.  It measures each kept row's trace
    columns as it keeps it, into float buffers.  Of those rows it holds
    rows 0, k, 2k, ... and the last, once, for k = snapshot_every > 0, and
    none for k = 0, so a run without snapshots holds O(m) samples however
    long it marches.  It stops at the first kept row past the start at
    which trace_outcome of the rows so far reads extinct: the row's
    estimate of T has settled before t_max or its inradius is below the
    floor STOP_INRADIUS.  Else it ends at t_max (time_limit), or when no
    acceptable step exists or t no longer advances (convexity_lost); a
    march that cannot take its first step raises ConvexityLostError.  A
    MarchStats passed as stats receives the march's counts.
    """
    _check_start(s0, p)
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    t_max = math.inf if t_max is None else t_max
    y = np.array(s0.samples, dtype=float)
    columns, held = {name: array("d") for name in TRACE_COLUMNS}, []
    march = _etd_march(y, p, t_max, math.inf, stats)
    for kept, (accepted, (t, _, _, w)) in enumerate(_record(march, STORE_EVERY, clock=0)):
        row = np.fft.irfft(w, n=p.m) if accepted else y
        for name, value in zip(TRACE_COLUMNS, (t, *_trace_row(row, p.alpha))):
            columns[name].append(value)
        if snapshot_every and kept % snapshot_every == 0:
            held.append((t, row))
        if kept and trace_outcome(columns, p, t_max)[0] is StopReason.EXTINCT:
            break
    if snapshot_every and kept % snapshot_every:
        held.append((t, row))
    columns = {name: np.array(values) for name, values in columns.items()}
    outcome, extinction = trace_outcome(columns, p, t_max)
    snapshots = {"t": np.repeat([t for t, _ in held], p.m),
                 "theta": np.tile(_angles(p.m), len(held)),
                 "s": np.concatenate([row for _, row in held])} if held else None
    return FlowTrace(columns, snapshots, extinction, outcome)


def _estimate(times, areas, kappas, alpha: float, i: int) -> float:
    """T = t + 2 area / ((1 + alpha) kappa_integral) on row i, in plain floats."""
    return float(times[i]) + 2.0 * float(areas[i]) / ((1.0 + alpha) * float(kappas[i]))


def _settled(times, areas, kappas, alpha: float, t_max: float = math.inf) -> bool:
    """Whether the last row's estimate lies at or before t_max, so that a
    run asked to stop sooner goes on to t_max, and agrees to STOP_TOL,
    relative, with that of the last row whose area is at least e^2 times
    its own, one unit of normalized time earlier, found by bisection as
    areas fall."""
    i = len(times) - 1
    j = bisect.bisect_right(areas, -math.exp(2.0) * areas[i], hi=i, key=lambda a: -a) - 1
    now = _estimate(times, areas, kappas, alpha, i)
    if j < 0 or now > t_max:
        return False
    return abs(now - _estimate(times, areas, kappas, alpha, j)) <= STOP_TOL * abs(now)


def trace_outcome(columns, p: FlowParams,
                  t_max: float | None = None) -> tuple[StopReason, float | None]:
    """(stop reason, extinction time or None) of a flow run from its trace
    columns (FlowTrace.columns, or trace.csv's): extinct, at the last row's
    estimate, once it has settled before t_max or the last inradius is
    below the floor; else time_limit if the last t has reached t_max, if
    given; else convexity_lost."""
    times, areas, kappas = columns["t"], columns["area"], columns["kappa_integral"]
    t_max = math.inf if t_max is None else t_max
    if columns["inradius"][-1] < STOP_INRADIUS or _settled(times, areas, kappas, p.alpha, t_max):
        return StopReason.EXTINCT, _estimate(times, areas, kappas, p.alpha, -1)
    return (StopReason.TIME_LIMIT if times[-1] >= t_max else StopReason.CONVEXITY_LOST), None


def run_normalized(
    s0: SupportFunction,
    p: FlowParams,
    tau_end: float,
    store_every: int = 1,
    stats: MarchStats | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, list[SupportFunction] | np.ndarray]:
    """March the flow to tau_end, recording the normalized state
    s_hat = s / R at every store_every-th accepted step and the final state.

    Returns (taus, states), or, with mode, (taus, amplitudes): the
    amplitude of harmonic mode of each kept s_hat, read by
    geometry's amplitude rule off the coefficients w / R the march already
    holds, with no transform and no SupportFunction per state.  A mode off
    the grid raises ValueError before the first step.  The states are kept
    for perfbench, which counts and re-validates them; gcsf itself asks for
    amplitudes.  The march is _etd_march to tau_end; where no acceptable
    step exists the record ends at the last accepted state, before tau_end.
    A MarchStats passed as stats receives its counts.
    """
    _check_start(s0, p)
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    _require_above("tau_end", tau_end, at_floor=True)
    y = np.array(s0.samples, dtype=float)
    march = _etd_march(y, p, math.inf, tau_end, stats)
    records = ((tau, w / r) for _, (_, tau, r, w) in _record(march, store_every, clock=1))
    if mode is None:
        taus, rows = zip(*((tau, np.fft.irfft(w, n=p.m)) for tau, w in records))
        return np.array(taus), [SupportFunction(row) for row in rows]
    # The march yields its start before any step, so a bad mode fails at once.
    taus, amplitudes = zip(*((tau, _spectrum_amplitudes(w, mode)) for tau, w in records))
    return np.array(taus), np.array(amplitudes)


def linearized_mode_rate(alpha: float, mode: int) -> float:
    """Rate 1 + alpha(1 - mode^2) of one harmonic of the normalized flow.

    Translations (mode 1) grow at 1, as R falls; the leading shape mode
    cos(2 theta) decays at 1 - 3 alpha, negative exactly when alpha > 1/3.
    """
    _require_above("alpha", alpha)
    if mode < 0 or mode != int(mode):
        raise ValueError(f"mode must be a nonnegative integer, got {mode}")
    return 1.0 + alpha * (1.0 - float(mode) ** 2)


#: Fewest points inside its window that a decay-rate fit takes.
FIT_MIN_POINTS = 5


def fit_decay_rate(taus, deltas, window: tuple[float, float]) -> RateFit:
    """Least-squares slope of log delta against tau inside the window.

    At least FIT_MIN_POINTS of the points (taus, deltas) must fall inside
    the window and their deltas must be positive.
    """
    taus, deltas = np.asarray(taus, dtype=float), np.asarray(deltas, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mask = (taus >= lo) & (taus <= hi)
    if np.count_nonzero(mask) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} points in window [{lo}, {hi}], "
                         f"got {np.count_nonzero(mask)}")
    taus = taus[mask]
    deltas = deltas[mask]
    if not np.all(deltas > 0.0):  # NaN fails this too
        raise ValueError("deltas must be positive inside the fit window")
    logs = np.log(deltas)
    rate, intercept = np.polyfit(taus, logs, 1)
    resid = logs - (rate * taus + intercept)
    return RateFit(float(rate), float(np.sqrt(np.mean(resid**2))))


def curvature_integral(s: SupportFunction, alpha: float) -> float:
    """Total alpha-power of curvature over arc length, integral of kappa^alpha dxi.

    In support form dxi = (s''+s) dtheta and kappa = 1/(s''+s).
    """
    return float(_curvature_integrals(s.samples, alpha))


def area_defect(times, areas, integrals, interior: float = 1.0) -> float:
    """Worst defect |dA/dt + integral| on a stored series.

    dA/dt is formed by centered differencing of the areas on the
    (generally nonuniform) sample times; integrals holds the matching
    quadrature values of kappa^(alpha-1) dtheta.  Split out so the same
    arithmetic runs on a live trace and on re-read CSV columns.

    interior < 1 drops rows past that fraction of the final time.  Near
    extinction the adaptive step collapses and consecutive areas differ
    at the roundoff floor, so differencing there measures noise.
    """
    if not 0.0 < interior <= 1.0:
        raise ValueError(f"interior fraction must lie in (0, 1], got {interior}")
    times = np.asarray(times, dtype=float)
    areas = np.asarray(areas, dtype=float)
    integrals = np.asarray(integrals, dtype=float)
    n = times.size
    if n < 3:
        raise ValueError("need at least 3 samples")
    if areas.size != n or integrals.size != n:
        raise ValueError("series must share one length")
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("times must increase strictly")
    if interior < 1.0:
        cut = int(np.searchsorted(times, interior * times[-1], side="right"))
        n = max(cut, 3)
    h = np.diff(times[:n])
    h1, h2 = h[:-1], h[1:]
    # Steps near 1e154 or 1e-162 overflow the stencil's products: raise
    # FloatingPointError rather than give a defect of 0 or inf.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        dadt = (-h2 / (h1 * (h1 + h2)) * areas[:n - 2]
                + (h2 - h1) / (h1 * h2) * areas[1:n - 1]
                + h1 / (h2 * (h1 + h2)) * areas[2:n])
        return float(np.max(np.abs(dadt + integrals[1:n - 1])))


def area_rate_check(columns) -> float | None:
    """Max defect of the area identity dA/dt = -integral of kappa^alpha dxi
    over the first 90% of a trace's times, from its columns keyed by
    TRACE_COLUMNS (FlowTrace.columns, or trace.csv's); None on fewer than
    3 rows.
    """
    if len(columns["t"]) < 3:
        return None
    return area_defect(columns["t"], columns["area"], columns["kappa_integral"],
                       interior=0.9)


def jensen_bound_check(s: SupportFunction, p: FlowParams) -> tuple[float, float]:
    """Pair (integral of kappa^alpha dxi, L^(1-alpha) (2 pi)^alpha).

    The first dominates the second for alpha >= 1 by the power mean
    inequality with respect to arc length; alpha < 1 is rejected.
    """
    _require_above("alpha", p.alpha, 1.0, at_floor=True)
    lhs = curvature_integral(s, p.alpha)
    rhs = length(s) ** (1.0 - p.alpha) * (2.0 * np.pi) ** p.alpha
    return lhs, rhs


# -- trace exports ----------------------------------------------------------

def trace_summary_rows(trace: FlowTrace) -> dict[str, np.ndarray]:
    """A copy of trace.columns, trace.csv's columns keyed by TRACE_COLUMNS.
    Kept only for perfbench, which times it as trace post-processing; gcsf
    itself reads trace.columns."""
    return dict(trace.columns)
