"""Time integration of the power-of-curvature contracting flow.

In support-function form the unnormalized flow is ds/dt = -(s'' + s)^(-alpha)
and the rescaled (self-similar) flow is ds/dtau = -(s'' + s)^(-alpha) + s.

Both flows march by exponential time differencing (ETDRK4, Cox & Matthews,
J. Comput. Phys. 176, 2002) on the Fourier coefficients of s, through one
loop, _etd_march.  The linear part A(1 - k^2), plus 1 for the rescaling
term of the rescaled flow, freezes the largest local diffusivity
A = alpha * r_min^-(alpha+1) for one step and is integrated exactly, so the
step is set by accuracy rather than by the parabolic bound; one constant,
CFL, sets the steps of both marches and of the reference.  The
phi-functions take their closed forms, except on the few modes where
those cancel, which take a truncated Taylor series in place of the
contour means of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005).  A
step costs 9 FFTs: each stage's curvature radius is one inverse
transform of (1 - k^2) times its coefficients, and only the accepted
state is transformed back to samples.  The single `step`, the
classical 4-stage Runge-Kutta scheme under the explicit parabolic bound
`stable_dt`, is kept as the reference the ETD march is tested against.
Convexity failures reject the step rather than projecting the state back.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from gcsf import tables
from gcsf.geometry import (
    ConvexityLostError,
    SupportFunction,
    _areas,
    _lengths,
    _steiner,
    circumradius,
    curvature_radius_samples,
    hausdorff_to_circle,
    length,
    mode_amplitude,
    recenter,
    support_to_json,
)

#: Steps are rejected and halved at most this many times before giving up.
MAX_STEP_HALVINGS = 60

#: The step constant: each step is a fraction of the fastest diffusive
#: time, CFL * dtheta^2 of it or more (stable_dt, _etd_step_size).
CFL = 0.2

#: On a circle an ETD step lasts ETD_STEP_SCALE * CFL * r^(alpha+1); the
#: product rounds to 0.010000000000000002, so it is not folded into 0.01.
ETD_STEP_SCALE = 0.05

#: The flow is extinct once its inradius falls below this, and the rescaled
#: flow has collapsed once r_min falls below this fraction of its start.
STOP_INRADIUS = 1e-3

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
    m: int = 256

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.m < 64 or self.m % 2 != 0:
            raise ValueError(f"grid size must be even and >= 64, got {self.m}")


class _States(Sequence):
    """The rows of a samples array as SupportFunctions, each built and
    validated when it is asked for."""

    def __init__(self, samples: np.ndarray):
        self._samples = samples

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [SupportFunction(row) for row in self._samples[index]]
        return SupportFunction(self._samples[index])


TRACE_COLUMNS = ("t", "area", "length", "inradius", "circumradius", "delta_to_circle")


@dataclass
class FlowTrace:
    """Snapshots of one flow run; times are strictly increasing.

    samples is the (n, m) array of the stored support functions, one row
    per time, each checked finite and convex by the march that stored it.
    columns holds trace.csv's columns of those rows, keyed by TRACE_COLUMNS.
    """

    samples: np.ndarray
    columns: dict[str, np.ndarray]
    extinction_time: float | None
    stop_reason: StopReason

    times = property(lambda self: self.columns["t"])
    areas = property(lambda self: self.columns["area"])
    lengths = property(lambda self: self.columns["length"])

    @property
    def states(self) -> Sequence[SupportFunction]:
        """The stored states as SupportFunctions, built on access."""
        return _States(self.samples)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (tau, log delta) over a tau window."""

    rate: float
    intercept: float
    residual_rms: float
    window: tuple[float, float]


@dataclass
class MarchStats:
    """What one ETD march did, filled in as it runs.

    accepted_steps counts the steps kept; halved_trials the trial steps
    rejected because a stage or the result left the convex cone, each
    retried at half the step; remainder_evals the evaluations of the
    nonlinear remainder, one at the start of every step and one per stage
    that stayed convex; weight_evals the evaluations of the phi-weights,
    which consecutive trials with the same diagonal share.  dt_min and
    dt_max bound the accepted steps, the last one cut short at the end
    time included; both are None until a step is accepted.  r_min is the
    smallest curvature radius of the accepted states, the start included.
    """

    accepted_steps: int = 0
    halved_trials: int = 0
    remainder_evals: int = 0
    weight_evals: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    r_min: float | None = None


def stable_dt(s: SupportFunction, p: FlowParams) -> float:
    """Parabolic step bound CFL * dtheta^2 / max(alpha * (s''+s)^-(alpha+1)).

    The linearized diffusivity of the flow is alpha * r^-(alpha+1); an
    explicit scheme must resolve it on the angular grid scale.
    """
    radius = curvature_radius_samples(s.samples)
    if not (np.min(radius) > 0.0):
        raise ConvexityLostError("state is not convex")
    dtheta = 2.0 * np.pi / s.m
    return CFL * dtheta**2 * float(np.min(radius)) ** (p.alpha + 1.0) / p.alpha


def step(s: SupportFunction, p: FlowParams, dt: float, rescaled: bool = False) -> SupportFunction:
    """One classical Runge-Kutta step of the flow, at speed -(s'' + s)^(-alpha),
    or of the rescaled flow, at speed -(s'' + s)^(-alpha) + s.

    dt = 0 returns the state unchanged.  A step whose stages or result leave
    the convex cone raises StepRejectedError; the caller is expected to halve
    dt and retry.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return s
    y, alpha = s.samples, p.alpha
    try:
        k1 = _rhs_array(y, alpha, rescaled)
        k2 = _rhs_array(y + 0.5 * dt * k1, alpha, rescaled)
        k3 = _rhs_array(y + 0.5 * dt * k2, alpha, rescaled)
        k4 = _rhs_array(y + dt * k3, alpha, rescaled)
        # SupportFunction rejects a nonconvex or non-finite result.
        return SupportFunction(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    except (_StageFailure, ValueError) as exc:
        raise StepRejectedError(f"step of size {dt:.3e} left the convex cone") from exc


class _StageFailure(Exception):
    pass


def _rhs_array(y: np.ndarray, alpha: float, rescaled: bool) -> np.ndarray:
    """Speed of a Runge-Kutta stage; raises _StageFailure unless the stage
    keeps a positive curvature radius (NaN included)."""
    radius = curvature_radius_samples(y)
    if not (np.min(radius) > 0.0):
        raise _StageFailure
    out = -np.power(radius, -alpha)
    if rescaled:
        out = out + y
    return out


def default_time_limit(s: SupportFunction, p: FlowParams) -> float:
    """Safe horizon: the circumscribed disc is extinct by R^(1+a)/(1+a)."""
    return 1.05 * circumradius(s) ** (1.0 + p.alpha) / (1.0 + p.alpha)


def _etd_step_size(r_min: float, r_max: float, m: int, p: FlowParams) -> float:
    """Step of the ETD march as a multiple z = A * dt of the fastest diffusive
    time 1/A, A = alpha * r_min^-(alpha+1), for a state on m points whose
    curvature radius lies in [r_min, r_max].

    A circle takes z = alpha * ETD_STEP_SCALE * CFL, a bound set by accuracy
    alone.  On an eccentric body the frozen A overdamps the flat arcs, where
    the local diffusivity alpha * r^-(alpha+1) is smaller, and the explicit
    remainder has to undo it; z therefore shrinks with the square root of
    the diffusivity contrast, (r_min / r_max)^((alpha+1)/2).  The exponent
    is measured, not derived: on a 6:1 ellipse at m = 128 and alpha = 2 it
    keeps T within 3e-7 of the RK4 march, where the plain ratio
    r_min / r_max left an error of 7e-6.  z never drops below the
    parabolic fraction CFL * dtheta^2 of the Runge-Kutta reference, where the
    linear part is no longer stiff on the grid and ETDRK4 is as accurate
    as classical RK4.
    """
    contrast = r_min / r_max
    accurate = p.alpha * ETD_STEP_SCALE * CFL * contrast ** (0.5 * (p.alpha + 1.0))
    return max(accurate, CFL * (2.0 * np.pi / m) ** 2)


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
    one inverse transform; raises _StageFailure unless it is positive (NaN
    included)."""
    radius = curvature_radius_samples(spectrum=w)
    if not (np.min(radius) > 0.0):
        raise _StageFailure
    return radius


def _etdrk4_step(v, n_v, lin, weights, dt, alpha, stats):
    """One ETDRK4 step of the rfft coefficients v; returns v_new, its
    curvature radius and that radius's minimum and maximum.

    n_v is the remainder rfft(-r^-alpha) - lin * v at v, weights the
    output of _etd_weights for dt times the linear part (lin, plus 1 on
    the rescaled flow).  Each stage costs two transforms, its radius and
    its remainder.  Stages must stay convex, and the result convex with a
    finite radius, or _StageFailure is raised.
    """
    e, e2, q, f1, f2, f3 = weights
    dt_q = dt * q
    e2_v = e2 * v

    def remainder(w):
        n_w = np.fft.rfft(-np.power(_etd_radius(w), -alpha)) - lin * w
        stats.remainder_evals += 1
        return n_w

    a = e2_v + dt_q * n_v
    n_a = remainder(a)
    b = e2_v + dt_q * n_a
    n_b = remainder(b)
    c = e2 * a + dt_q * (2.0 * n_b - n_v)
    n_c = remainder(c)
    v_new = e * v + dt * (f1 * n_v + 2.0 * f2 * (n_a + n_b) + f3 * n_c)
    radius = curvature_radius_samples(spectrum=v_new)
    r_min, r_max = float(np.min(radius)), float(np.max(radius))
    if not (r_min > 0.0 and r_max < math.inf):
        raise _StageFailure
    return v_new, radius, r_min, r_max


def _etd_march(y: np.ndarray, p: FlowParams, t_end: float, rescaled: bool,
               stats: MarchStats | None = None):
    """Yield (t, samples) for the start state and after every accepted
    ETDRK4 step of the flow, until t reaches t_end; stats, if given, is
    updated as the march goes.

    Each step is ETDRK4 on the rfft coefficients of s with the linear part
    L_k = A(1 - k^2), A = alpha * r_min^-(alpha+1) frozen for the step,
    plus 1 on the rescaled flow, whose rescaling term +s is then integrated
    exactly; the remainder rfft(-(s''+s)^-alpha) - A(1 - k^2) s is the same
    for both flows.  The step dt = z / A (z from _etd_step_size) is
    ETD_STEP_SCALE * CFL * r_min^(alpha+1) on a circle, shrinks with the
    curvature-radius contrast on eccentric bodies, and never falls below
    the parabolic bound stable_dt.  An accepted step costs 9 FFTs: the
    remainder at its start, two per stage, the new radius and the new
    samples.  A step whose stages or result leave the convex cone is
    halved and retried.  ConvexityLostError is raised after
    MAX_STEP_HALVINGS halvings, once r_min is so small that the linear part
    overflows, and on the rescaled flow once r_min has fallen below
    STOP_INRADIUS times its starting value: the body has collapsed, and
    dt, which follows r_min^(alpha+1), would only shrink from there.  y is
    never written to.
    """
    if stats is None:
        stats = MarchStats()
    m = y.size
    symbol = 1.0 - np.arange(m // 2 + 1, dtype=float) ** 2
    stiffest = float(symbol[-1])
    shift = 1.0 if rescaled else 0.0
    v = np.fft.rfft(y)
    radius = curvature_radius_samples(y)
    r_min, r_max = float(np.min(radius)), float(np.max(radius))
    stats.r_min = r_min
    floor = STOP_INRADIUS * r_min if rescaled else 0.0
    t = 0.0
    # The weights depend on the diagonal dt * L = z * symbol + shift * dt
    # alone; consecutive steps with the same pair (the parabolic floor of
    # the unnormalized flow, say) reuse them.
    weights_key = None
    weights = None
    yield t, y
    while t < t_end:
        if r_min < floor:
            raise ConvexityLostError(f"body collapsed: r_min = {r_min:.3e} at t = {t:.6f}")
        a_max = p.alpha * r_min ** -(p.alpha + 1.0)
        if not math.isfinite(a_max * stiffest):
            raise ConvexityLostError(
                f"curvature radius {r_min:.3e} too small to step at t = {t:.6f}")
        z = _etd_step_size(r_min, r_max, m, p)
        dt = z / a_max
        if dt > t_end - t:
            dt = t_end - t
            z = dt * a_max
        lin = a_max * symbol
        n_v = np.fft.rfft(-np.power(radius, -p.alpha)) - lin * v
        stats.remainder_evals += 1
        for _ in range(MAX_STEP_HALVINGS):
            key = (z, shift * dt)
            if key != weights_key:
                weights_key, weights = key, _etd_weights(z * symbol + key[1])
                stats.weight_evals += 1
            try:
                v, radius, r_min, r_max = _etdrk4_step(v, n_v, lin, weights, dt, p.alpha,
                                                       stats)
                break
            except _StageFailure:
                stats.halved_trials += 1
                dt *= 0.5
                z *= 0.5
        else:
            raise ConvexityLostError(f"flow lost convexity at t = {t:.6f}")
        t += dt
        stats.accepted_steps += 1
        stats.dt_min = dt if stats.dt_min is None else min(stats.dt_min, dt)
        stats.dt_max = dt if stats.dt_max is None else max(stats.dt_max, dt)
        stats.r_min = min(stats.r_min, r_min)
        yield t, np.fft.irfft(v, n=m)


def _check_start(s0: SupportFunction, p: FlowParams, store_every: int) -> None:
    if s0.m != p.m:
        raise ValueError(f"state grid {s0.m} does not match params grid {p.m}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")


def _record(march, store_every: int, extinct=lambda y: False):
    """Run a march from _etd_march until it ends or extinct(samples) holds,
    keeping every store_every-th state and the last one, once.

    Returns (times, list of sample rows, error): error is the
    ConvexityLostError that ended the march, or None.
    """
    times, rows, error = [], [], None
    try:
        for accepted, (t, y) in enumerate(march):
            if accepted % store_every == 0:
                times.append(t)
                rows.append(y)
            if extinct(y):
                break
    except ConvexityLostError as exc:
        error = exc
    if times[-1] != t:
        times.append(t)
        rows.append(y)
    return np.array(times), rows, error


def run_to_extinction(
    s0: SupportFunction,
    p: FlowParams,
    t_max: float | None = None,
    store_every: int = 1,
    stats: MarchStats | None = None,
) -> FlowTrace:
    """March the unnormalized flow until the body is numerically extinct.

    The march is _etd_march without the rescaling term.  Integration stops
    once the inradius drops below STOP_INRADIUS (stop_reason extinct), at
    t_max (time_limit), or when no acceptable step exists
    (convexity_lost).  Every store_every-th accepted step is recorded, plus
    the final state; the default of every step keeps the area series fine
    enough for its second-order differencing (area_defect).

    On extinction the extinction time is estimated by fitting
    inradius^(1+alpha), which is linear in t for shrinking circles, over
    the last decade of the inradius column and extrapolating to zero.  A
    MarchStats passed as stats receives the march's counts.  The stored
    states stay one (n, m) array, FlowTrace.samples, whose trace columns
    are computed a block of rows at a time.
    """
    _check_start(s0, p, store_every)
    if t_max is None:
        t_max = default_time_limit(s0, p)
    march = _etd_march(np.array(s0.samples, dtype=float), p, t_max, rescaled=False,
                       stats=stats)
    times, rows, error = _record(
        march, store_every, lambda y: _steiner(y)[2].min() < STOP_INRADIUS)
    samples = np.array(rows)
    del rows
    columns = dict(zip(TRACE_COLUMNS, (times, *_shape_columns(samples))))
    inradii = columns["inradius"]
    extinction = None
    if error is not None:
        stop = StopReason.CONVEXITY_LOST
    elif inradii[-1] < STOP_INRADIUS:
        stop = StopReason.EXTINCT
        extinction = extrapolate_extinction(times, inradii, p)
    else:
        stop = StopReason.TIME_LIMIT
    return FlowTrace(samples, columns, extinction, stop)


#: Values of a trace post-processed together.  The transforms and products
#: on a block need a few copies of it, which stay small next to a long trace.
ROW_BLOCK_VALUES = 2**17


def _shape_columns(samples: np.ndarray) -> list[np.ndarray]:
    """Area, length, inradius, circumradius and delta_to_circle of each row
    of samples, computed a block of ROW_BLOCK_VALUES values at a time."""
    rows = max(1, ROW_BLOCK_VALUES // samples.shape[1])
    blocks = []
    for lo in range(0, len(samples), rows):
        y = samples[lo:lo + rows]
        areas, lengths = _areas(y), _lengths(y)
        d = _steiner(y)[2]
        mean_radius = np.mean(d, axis=1)
        blocks.append((areas, lengths, np.min(d, axis=1), np.max(d, axis=1),
                       np.max(np.abs(d - mean_radius[:, None]), axis=1) / mean_radius))
    return [np.concatenate(column) for column in zip(*blocks)]


def extrapolate_extinction(times: np.ndarray, inradii: np.ndarray, p: FlowParams) -> float:
    """Fit inradius^(1+alpha) linearly in t over the trace tail, solve for zero."""
    if times.size < 2:
        return float(times[-1])
    tail = inradii <= 10.0 * STOP_INRADIUS
    if np.count_nonzero(tail) < 5:
        tail = np.zeros_like(tail)
        tail[-min(5, times.size):] = True
    z = inradii[tail] ** (1.0 + p.alpha)
    slope, offset = np.polyfit(times[tail], z, 1)
    if slope >= 0.0:
        return float(times[-1])
    return float(-offset / slope)


def run_normalized(
    s0: SupportFunction,
    p: FlowParams,
    tau_end: float,
    store_every: int = 1,
    stats: MarchStats | None = None,
) -> tuple[np.ndarray, list[SupportFunction]]:
    """Integrate the rescaled flow to tau_end, recording every
    store_every-th accepted step and the final state.

    The march is _etd_march with the rescaling term in its linear part.
    ConvexityLostError is raised when no acceptable step exists or the
    body has collapsed.  A
    MarchStats passed as stats receives the march's counts.
    """
    _check_start(s0, p, store_every)
    if tau_end < 0.0:
        raise ValueError(f"tau_end must be nonnegative, got {tau_end}")
    march = _etd_march(np.array(s0.samples, dtype=float), p, tau_end, rescaled=True,
                       stats=stats)
    taus, rows, error = _record(march, store_every)
    if error is not None:
        raise error
    return taus, [SupportFunction(row) for row in rows]


def normalize_trace(trace: FlowTrace, p: FlowParams) -> list[tuple[float, SupportFunction]]:
    """Rescale a contracting trace onto the self-similar time scale.

    Each state is recentred at its Steiner point, then magnified by
    ((1+alpha)(T - t))^(-1/(1+alpha)) with T the extrapolated extinction
    time; tau = -log((1+alpha)(T - t)) / (1+alpha).  Shrinking circles map
    to the unit circle at every tau.
    """
    if trace.extinction_time is None:
        raise ValueError("trace has no extinction time; run further or check stop_reason")
    a1 = 1.0 + p.alpha
    out: list[tuple[float, SupportFunction]] = []
    for t, state in zip(trace.times, trace.states):
        remaining = a1 * (trace.extinction_time - float(t))
        if remaining <= 0.0:
            continue
        tau = -math.log(remaining) / a1
        factor = remaining ** (-1.0 / a1)
        out.append((tau, SupportFunction(recenter(state).samples * factor)))
    return out


def normalized_delta_series(trace: FlowTrace, p: FlowParams) -> np.ndarray:
    """Pairs (tau, sup distance of the rescaled state to the unit circle)."""
    rows = [
        (tau, hausdorff_to_circle(state, (0.0, 0.0), 1.0))
        for tau, state in normalize_trace(trace, p)
    ]
    return np.array(rows)


def linearized_mode_rate(alpha: float, mode: int) -> float:
    """Decay rate 1 + alpha(1 - mode^2) of one harmonic of the rescaled flow.

    Translations (mode 1) are neutral; the leading shape mode cos(2 theta)
    decays at 1 - 3 alpha, negative exactly when alpha > 1/3.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if mode < 0 or mode != int(mode):
        raise ValueError(f"mode must be a nonnegative integer, got {mode}")
    return 1.0 + alpha * (1.0 - float(mode) ** 2)


def fit_decay_rate(series, window: tuple[float, float]) -> RateFit:
    """Least-squares slope of log delta against tau inside the window.

    series is an (n, 2) array of (tau, delta) pairs; at least five points
    must fall inside the window and their deltas must be positive.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be an (n, 2) array of (tau, delta) pairs")
    lo, hi = float(window[0]), float(window[1])
    mask = (arr[:, 0] >= lo) & (arr[:, 0] <= hi)
    if np.count_nonzero(mask) < 5:
        raise ValueError(f"need at least 5 points in window [{lo}, {hi}], "
                         f"got {np.count_nonzero(mask)}")
    taus = arr[mask, 0]
    deltas = arr[mask, 1]
    if np.min(deltas) <= 0.0:
        raise ValueError("deltas must be positive inside the fit window")
    logs = np.log(deltas)
    rate, intercept = np.polyfit(taus, logs, 1)
    resid = logs - (rate * taus + intercept)
    return RateFit(float(rate), float(intercept), float(np.sqrt(np.mean(resid**2))),
                   (lo, hi))


def mode_decay_series(
    alpha: float,
    mode: int = 2,
    eps: float = 1e-3,
    tau_end: float = 3.5,
    m: int = 256,
    store_every: int = 1,
) -> np.ndarray:
    """Amplitude of one harmonic along the rescaled flow started from
    the unit circle plus eps*cos(mode*theta); rows are (tau, amplitude)."""
    theta = np.arange(m) * (2.0 * np.pi / m)
    s0 = SupportFunction(1.0 + eps * np.cos(mode * theta))
    p = FlowParams(alpha=alpha, m=m)
    taus, states = run_normalized(s0, p, tau_end, store_every=store_every)
    amps = np.array([mode_amplitude(state, mode) for state in states])
    return np.column_stack([taus, amps])


def curvature_integral(s: SupportFunction, alpha: float) -> float:
    """Total alpha-power of curvature over arc length, integral of kappa^alpha dxi.

    In support form dxi = (s''+s) dtheta and kappa = 1/(s''+s).
    """
    radius = curvature_radius_samples(s.samples)
    if not (np.min(radius) > 0.0):
        raise ConvexityLostError("state is not convex")
    kappa = 1.0 / radius
    return (2.0 * np.pi / s.m) * float(np.sum(np.power(kappa, alpha) * radius))


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
    if interior < 1.0:
        cut = int(np.searchsorted(times, interior * times[-1], side="right"))
        n = max(cut, 3)
    worst = 0.0
    for i in range(1, n - 1):
        h1 = float(times[i] - times[i - 1])
        h2 = float(times[i + 1] - times[i])
        a_prev, a_mid, a_next = float(areas[i - 1]), float(areas[i]), float(areas[i + 1])
        dadt = (-h2 / (h1 * (h1 + h2)) * a_prev
                + (h2 - h1) / (h1 * h2) * a_mid
                + h1 / (h2 * (h1 + h2)) * a_next)
        worst = max(worst, abs(dadt + float(integrals[i])))
    return worst


def area_rate_check(trace: FlowTrace, p: FlowParams, interior: float = 0.9) -> float:
    """Max defect of the area identity dA/dt = -integral of kappa^(alpha-1) dtheta.

    The quadrature side is evaluated on each interior snapshot state; in
    support form kappa^(alpha-1) dtheta = kappa^alpha dxi, the arc-length
    integral computed by curvature_integral.
    """
    integrals = [curvature_integral(state, p.alpha) for state in trace.states]
    return area_defect(trace.times, trace.areas, integrals, interior=interior)


def jensen_bound_check(s: SupportFunction, p: FlowParams) -> tuple[float, float]:
    """Pair (integral of kappa^alpha dxi, L^(1-alpha) (2 pi)^alpha).

    The first dominates the second for alpha >= 1 by the power mean
    inequality with respect to arc length; alpha < 1 is rejected.
    """
    if p.alpha < 1.0:
        raise ValueError(f"bound requires alpha >= 1, got {p.alpha}")
    lhs = curvature_integral(s, p.alpha)
    rhs = length(s) ** (1.0 - p.alpha) * (2.0 * np.pi) ** p.alpha
    return lhs, rhs


# -- trace exports ----------------------------------------------------------

def trace_summary_rows(trace: FlowTrace) -> dict[str, np.ndarray]:
    """Per-snapshot diagnostics used by the CSV export and the CLI checks,
    keyed by TRACE_COLUMNS: t, area, length, and the inradius,
    circumradius and relative sup distance to its mean circle of each
    state seen from its Steiner point.  run_to_extinction computes them
    with the arithmetic of area, length, inradius and circumradius, so
    each row matches those functions applied to its state bit for bit.
    """
    return dict(trace.columns)


def write_trace_csv(trace: FlowTrace, path) -> list[np.ndarray]:
    """Plot-ready series: t, area, length, inradius, circumradius and the
    relative sup distance of the recentred state to its mean circle.
    Returns the columns written, in that order."""
    columns = trace_summary_rows(trace)
    tables.write_columns(path, list(columns), *columns.values())
    return list(columns.values())


def write_trace_snapshots(trace: FlowTrace, directory, every: int = 1) -> list[str]:
    """Dump states as JSON support functions named by zero-padded snapshot index."""
    os.makedirs(directory, exist_ok=True)
    states = trace.states
    written = []
    for i in range(len(states)):
        if i % every != 0 and i != len(states) - 1:
            continue
        name = f"{i:06d}.json"
        with open(os.path.join(directory, name), "w") as f:
            f.write(support_to_json(states[i]))
        written.append(name)
    return written
