"""Translating solitons of the power-of-curvature flow and checks built on them.

The 1-D translator profile solves v'' = (1 + v'^2)^(3/2 - 1/(2*alpha)); its
domain is the whole line exactly when alpha <= 1/2, otherwise a strip whose
half-width is located by switching to the inverse variable (x as a function
of v') once the slope is large.  The rotationally symmetric 2-D translator
solves, in the graph radius r,

    u'' = ((sigma + u'^2) / sigma) * ((sigma + u'^2)^(1/2 - 1/(2*alpha)) - u'/r)

started from a quartic Taylor expansion at the origin.  The radial ODE is
stiff at large radius and goes to ODEPACK's LSODA through scipy's odeint;
the 1-D translator and the slope comparison ODE go to Hairer's DOP853
through scipy's ode.  Both drivers step in compiled code and call back
only for the right-hand side.  On top of the profiles: pointwise operator
residuals, a quadrature check that ties u' to u, the sigma = 0 comparison,
parabolic blow-down toward the cone |x|^(1+alpha)/(1+alpha), a discrete
Legendre transform, a growth-bound check, the slope comparison ODE with
its integrating-factor closed form, and the log-convexity margin of the
radial separated solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gcsf.geometry import _require_above

#: Forward integration of the 1-D translator hands over to the inverse
#: variable once the slope exceeds this.
SLOPE_SWITCH = 1e3

_SERIES_RADIUS = 1e-3

#: Spacing of the stored radial nodes from r = 5e-3 to r = 2; past r = 2
#: the spacing is r / _NODE_RATIO, 0.25% of the radius.  u' grows like
#: r^alpha, so a fixed relative spacing keeps the cubic-Hermite increment
#: check's relative defect level while the node count grows only like
#: log r: 1,603 nodes to r = 40, about 4,100 to r = 20,000.
_NODE_SPACING = 5e-3
_NODE_RATIO = 400.0

#: Tolerances of LSODA and DOP853 on every soliton ODE.
_RTOL = 1e-12
_ATOL = 1e-14

#: Step cap of the ODE drivers: LSODA's steps between two stored nodes,
#: which are at most 0.25% of the radius apart, DOP853's steps over one
#: march or one crossing re-integration.
MAX_STEPS = 100_000

#: brentq's tolerances on a crossing time: its smallest relative one.
_ROOT_TOL = 4.0 * np.finfo(float).eps

#: DOP853's failure return codes (Hairer, Norsett & Wanner, Solving ODEs I).
_DOP853_FAILURES = {-1: "input is not consistent", -2: "more than MAX_STEPS steps",
                    -3: "step size becomes too small", -4: "problem is probably stiff"}


@dataclass
class OdeStats:
    """What the driver of one soliton ODE did, filled in as it runs.

    accepted_steps counts the steps of the march; rhs_evals every
    evaluation of the right-hand side, those that locate a crossing
    included; jacobian_evals LSODA's evaluations of the analytic Jacobian,
    None for DOP853, which takes none.
    """

    accepted_steps: int = 0
    rhs_evals: int = 0
    jacobian_evals: int | None = None


@dataclass
class Profile1D:
    """Graph of the 1-D translator on x >= 0."""

    x: np.ndarray
    v: np.ndarray
    dv: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "v", "dv"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.size == self.v.size == self.dv.size):
            raise ValueError("profile arrays must share one length")
        if self.x[0] != 0.0 or np.any(np.diff(self.x) <= 0.0):
            raise ValueError("x grid must increase strictly from 0")


@dataclass
class RadialProfile:
    """Radial graph samples (r, u, du, d2u), r increasing from 0."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r", "u", "du", "d2u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.r.size
        if not (self.u.size == n and self.du.size == n and self.d2u.size == n):
            raise ValueError("profile arrays must share one length")
        if n < 2 or self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0.0):
            raise ValueError("r grid must increase strictly from 0")
        if not all(np.isfinite(getattr(self, name)).all() for name in ("r", "u", "du", "d2u")):
            raise ValueError("profile arrays must be finite")

    def check_convex(self) -> None:
        """Solver outputs are convex: du >= 0 with du(0) = 0 and d2u >= 0."""
        if self.du[0] != 0.0 or np.any(self.du < 0.0) or np.any(self.d2u < 0.0):
            raise ValueError("profile is not a convex radial graph")


@dataclass
class OdeSolution:
    """The slope comparison ODE at its accepted steps plus the located crossing."""

    t: np.ndarray
    rho: np.ndarray
    drho: np.ndarray


def _dop853(rhs, t_end, y0, atol, stats, level=None, terminal=False):
    """DOP853 on a 2-D system from t = 0 to t_end, every accepted step a row.

    Returns the rows as arrays (t, y0, y1); the first rising crossing of y1
    through level is a row too, in time order.  solout only records steps,
    since the driver cannot be re-entered from it; the crossing is located
    afterwards by brentq on re-integrations from the last step before it.
    A terminal crossing ends the march as the last row.  A failed march or
    a non-finite state is a RuntimeError naming the last row kept.
    """
    from scipy.integrate import ode
    from scipy.optimize import brentq

    def counted(t, y):
        stats.rhs_evals += 1
        return rhs(t, y)

    def driver():
        return ode(counted).set_integrator("dop853", rtol=_RTOL, atol=atol, nsteps=MAX_STEPS)

    rows, bracket = [], []  # rows are (t, y0, y1)
    finite = True

    def solout(t, y):
        nonlocal finite
        finite = bool(np.all(np.isfinite(y)))
        if not finite:
            return -1
        if rows:  # every call but the first, at the initial state, ends a step
            stats.accepted_steps += 1
            if level is not None and not bracket and rows[-1][2] < level <= y[1]:
                bracket.append((len(rows), rows[-1], (t, *y)))
                if terminal:
                    return -1
        rows.append((t, *y))
        return 0

    def solve(solver, t):
        # The driver warns on failure as well; its return code is read instead.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dop853: ", UserWarning)
            y = solver.integrate(t)
        code = solver.get_return_code()
        if code < 1 or not (finite and np.all(np.isfinite(y))):
            reason = (_DOP853_FAILURES.get(code, f"return code {code}") if code < 1
                      else "non-finite state")
            raise RuntimeError(f"DOP853 failed past t = {rows[-1][0]:.6g}: {reason}")
        return y

    march = driver()
    march.set_solout(solout)
    march.set_initial_value(y0, 0.0)
    solve(march, t_end)
    if bracket:
        k, (t0, *y_before), (t1, *y_after) = bracket[0]
        # brentq starts from the two ends: the march's own states there keep
        # the signs that bracketed the crossing.
        ends = {t0: y_before, t1: y_after}
        locator = driver()

        def state(t):
            if t in ends:
                return ends[t]
            locator.set_initial_value(y_before, t0)
            return solve(locator, t)

        t_cross = brentq(lambda t: state(t)[1] - level, t0, t1,
                         xtol=_ROOT_TOL, rtol=_ROOT_TOL)
        # The located state follows the step before it, unless it is a stored step.
        if t_cross not in (row[0] for row in rows[k - 1:k + 1]):
            rows.insert(k, (t_cross, *state(t_cross)))
    return np.array(rows).T


def translator_1d(alpha: float, x_max: float, stats: OdeStats | None = None) -> Profile1D:
    """Solve the 1-D translator ODE v'' = (1 + v'^2)^(3/2 - 1/(2*alpha)).

    Integrates v, v' from v(0) = v'(0) = 0 with DOP853 and stores its
    accepted steps.  For alpha > 1/2 the inverse abscissa
    x(v') = integral of (1 + v'^2)^-(3/2 - 1/(2*alpha)) dv' converges, so
    the march stops at the located crossing of the slope through
    SLOPE_SWITCH, which becomes the last row, and the remaining distance to
    the asymptote is the tail integral of strip_half_width; a march that
    stopped short of x_max has blown up, and blow_up_half_width reads its
    half-width off the last row.  A march that reached x_max is entire so
    far, as always for alpha <= 1/2.  stats, if given, receives DOP853's
    counts.
    """
    _require_above("alpha", alpha)
    _require_above("x_max", x_max)
    q = 1.5 - 0.5 / alpha

    def rhs(_x, y):
        w = y[1]
        # Past |w| = 1e150, 1 + w^2 rounds to w^2, and w^2 overflows long
        # before w does; |w|^(2q) is the same number without the square.
        return [w, abs(w) ** (2.0 * q) if abs(w) > 1e150 else (1.0 + w * w) ** q]

    # Only a strip profile hands over to the tail.
    x, v, dv = _dop853(rhs, x_max, [0.0, 0.0], _ATOL, stats or OdeStats(),
                       level=SLOPE_SWITCH if q > 0.5 else None, terminal=True)
    return Profile1D(x, v, dv)


def blow_up_half_width(alpha: float, x_max: float, x, dv) -> float | None:
    """Half-width read off a stored 1-D profile's last row.

    For alpha > 1/2, a march that stopped short of x_max at the located
    slope crossing blew up; anything else, rows cut short below
    SLOPE_SWITCH included, reports None.  The crossing lands within about
    1e-9 relative of the switch, so the last slope must reach it to within
    1e-6.
    """
    if alpha > 0.5 and x[-1] < x_max and dv[-1] >= (1.0 - 1e-6) * SLOPE_SWITCH:
        return strip_half_width(alpha, float(x[-1]), float(dv[-1]))
    return None


def strip_half_width(alpha: float, x: float = 0.0, slope: float = 0.0) -> float:
    """Half-width of the alpha > 1/2 translator's strip from the profile's
    point (x, v' = slope): x plus the inverse abscissa integral of
    (1 + z^2)^-q, q = 3/2 - 1/(2*alpha), over [slope, inf), which
    t = 1/(1 + z^2) turns into (1/2) B(a, 1/2) I_t(a, 1/2), a = q - 1/2.
    From (0, 0) that is the whole strip, (1/2) B(a, 1/2); from a march
    state at large slope it does not depend on where the march stopped."""
    from scipy.special import beta, betainc

    _require_above("alpha", alpha, 0.5)  # the profile is entire for alpha <= 1/2
    a = 1.0 - 0.5 / alpha
    return float(x + 0.5 * betainc(a, 0.5, 1.0 / (1.0 + slope * slope)) * beta(a, 0.5))


def _node_spacing(r):
    """Spacing of the radial nodes after r: min(r, max(_NODE_SPACING, r / _NODE_RATIO))."""
    return np.minimum(r, np.maximum(_NODE_SPACING, r / _NODE_RATIO))


def _radial_nodes(r_max: float, radii=()) -> np.ndarray:
    """Output radii r_(k+1) = r_k + _node_spacing(r_k) from the series
    radius, landing on r_max, with the extra radii merged in.

    The nodes double up to _NODE_SPACING, are _NODE_SPACING apart up to
    r = _NODE_SPACING * _NODE_RATIO = 2 and grow by the factor
    1 + 1/_NODE_RATIO past it.  A node closer to r_max or to an extra
    radius than a tenth of its spacing is dropped: that sliver of an
    interval would leave an increment of u below its roundoff.
    """
    head = [_SERIES_RADIUS]
    while head[-1] < _NODE_SPACING:
        head.append(2.0 * head[-1])
    knee = min(r_max, _NODE_SPACING * _NODE_RATIO)
    count = math.ceil((knee - head[-1]) / _NODE_SPACING)
    nodes = np.concatenate([head, head[-1] + _NODE_SPACING * np.arange(1, count + 1)])
    count = math.ceil(math.log(r_max / nodes[-1]) / math.log1p(1.0 / _NODE_RATIO))
    nodes = np.append(nodes, nodes[-1] * (1.0 + 1.0 / _NODE_RATIO) ** np.arange(1, count + 1))
    marks = np.unique(np.append(np.asarray(radii, dtype=float), r_max))
    k = np.searchsorted(marks, nodes)
    gap = np.minimum(np.abs(marks[np.minimum(k, marks.size - 1)] - nodes),
                     np.abs(nodes - marks[np.maximum(k - 1, 0)]))
    keep = (nodes < r_max) & (gap > 0.1 * _node_spacing(nodes))
    keep[0] = True  # the march starts there
    return np.union1d(nodes[keep], marks)


def radial_translator(alpha: float, sigma: float, r_max: float,
                      stats: OdeStats | None = None, radii=()) -> RadialProfile:
    """Rotationally symmetric translator profile on [0, r_max].

    The origin is degenerate (u'/r appears in the ODE), so integration
    starts from the quartic Taylor expansion

        u(r) = c r^2 / 2 + c3 r^4 / 4,   c = sigma^(1/2 - 1/(2*alpha)) / 2,
        c3 = c^3 (1 + 2 e1) / (4 sigma), e1 = 1/2 - 1/(2*alpha),

    applied on [0, 1e-3], then LSODA through odeint, with the analytic
    Jacobian, to r_max, which it never steps past.  The translator branch
    is strongly attracting at large radius (the slope relaxes onto
    u' ~ r^alpha at rate ~ r^(2*alpha-1)/alpha), which makes the equation
    stiff there; LSODA switches to its stiff method on its own.  odeint
    interpolates onto the nodes of _radial_nodes, the extra radii among
    them, without changing LSODA's steps, and u'' comes from the ODE at
    each node.  A failed march or a non-finite node is a RuntimeError
    naming where it stopped; stats, if given, receives LSODA's counts.
    """
    _require_above("alpha", alpha)
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    _require_above("r_max", r_max, _SERIES_RADIUS)
    if not all(_SERIES_RADIUS < radius <= r_max for radius in radii):
        raise ValueError(f"extra radii must lie in ({_SERIES_RADIUS}, r_max]")
    # scipy is imported where it is called, never at module level: loading
    # it costs about 0.6 s and 48 MB, and the flow experiments never use it.
    from scipy.integrate import ODEintWarning, odeint

    e1 = 0.5 - 0.5 / alpha
    c = 0.5 * sigma**e1
    c3 = c**3 * (1.0 + 2.0 * e1) / (4.0 * sigma)

    def curvature_term(r, w):
        return ((sigma + w * w) / sigma) * ((sigma + w * w) ** e1 - w / r)

    def rhs(r, y):
        return [y[1], curvature_term(r, y[1])]

    def jacobian(r, y):
        w = y[1]
        g2 = sigma + w * w
        slope = ((2.0 + 2.0 * e1) * w * g2**e1 - g2 / r - 2.0 * w * w / r) / sigma
        return [[0.0, 1.0], [0.0, slope]]

    r1 = _SERIES_RADIUS
    start = [c * r1**2 / 2.0 + c3 * r1**4 / 4.0, c * r1 + c3 * r1**3]
    nodes = _radial_nodes(r_max, radii)  # the first is r1
    with warnings.catch_warnings():
        # odeint warns on failure as well; its message is read instead.
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(rhs, start, nodes, Dfun=jacobian, tfirst=True, rtol=_RTOL,
                          atol=_ATOL, tcrit=[r_max], mxstep=MAX_STEPS, full_output=True)
    # A failed interval is the last one odeint writes, rows and counts alike;
    # it is the first whose march stopped short of its node.
    failed = info["message"] != "Integration successful."
    last = int(np.argmax(info["tcur"] < nodes[1:])) if failed else -1
    stats = stats or OdeStats()
    stats.accepted_steps = int(info["nst"][last])
    stats.rhs_evals = int(info["nfe"][last])
    stats.jacobian_evals = int(info["nje"][last])
    if failed:
        raise RuntimeError(f"LSODA failed near r = {info['tcur'][last]:.6g}: "
                           f"{info['message']}")
    finite = np.all(np.isfinite(ys), axis=1)
    if not finite.all():
        raise RuntimeError(f"LSODA failed past r = {nodes[np.argmin(finite) - 1]:.6g}: "
                           "non-finite state")
    u, w = ys.T
    profile = RadialProfile(np.append(0.0, nodes), np.append(0.0, u), np.append(0.0, w),
                            np.append(c, curvature_term(nodes, w)))
    profile.check_convex()
    return profile


def cone_profile(alpha: float, r_max: float) -> RadialProfile:
    """Exact cone u = r^(1+alpha)/(1+alpha) on a uniform grid of 2001 points.

    Restricted to alpha >= 1 so the second derivative stays finite at 0.
    """
    _require_above("alpha", alpha, 1.0, at_floor=True)
    _require_above("r_max", r_max)
    r = np.linspace(0.0, r_max, 2001)
    d2 = np.zeros_like(r)
    d2[1:] = alpha * r[1:] ** (alpha - 1.0)
    if alpha == 1.0:
        d2[0] = 1.0
    return RadialProfile(r, r ** (1.0 + alpha) / (1.0 + alpha), r**alpha, d2)


def l_sigma_residual(profile: RadialProfile, alpha: float, sigma: float) -> float:
    """Max pointwise defect |L_sigma(u) - 1| of a radial profile.

    The operator is evaluated from the stored (u', u'') arrays,

        L_sigma = (sigma + u'^2)^(1/(2*alpha) - 1/2)
                  * (sigma u'' / (sigma + u'^2) + u'/r),

    so a profile that is not a translator is detected.  At r = 0 the
    series limit 2 u''(0) sigma^(1/(2*alpha) - 1/2) replaces the formula;
    for sigma = 0 the origin is excluded instead.
    """
    _require_above("alpha", alpha)
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    worst = float(np.max(np.abs(_l_sigma_off_origin(profile, alpha, sigma) - 1.0)))
    if sigma > 0.0:
        origin = sigma ** (0.5 / alpha - 0.5) * 2.0 * profile.d2u[0]
        worst = max(worst, abs(origin - 1.0))
    return worst


def _l_sigma_off_origin(profile: RadialProfile, alpha: float, sigma: float) -> np.ndarray:
    """L_sigma(u) at every node but r = 0, from the stored (u', u'')."""
    du = profile.du[1:]
    grad2 = sigma + du**2
    expo = 0.5 / alpha - 0.5
    return grad2**expo * (sigma * profile.d2u[1:] / grad2 + du / profile.r[1:])


def hermite_increment_defect(profile: RadialProfile) -> float:
    """Largest relative gap between the increments of u and the cubic-Hermite
    quadrature of u' with slopes u'' over each interval,

        integral_{r_i}^{r_i+1} u' = h (u'_i + u'_i+1) / 2 + h^2 (u''_i - u''_i+1) / 12 + O(h^5).

    Unlike l_sigma_residual, which reads only (u', u''), this ties u' to u,
    so a profile whose slope is off is detected even when its u'' was
    recomputed from the ODE.
    """
    h = np.diff(profile.r)
    increments = np.diff(profile.u)
    quadrature = (0.5 * h * (profile.du[:-1] + profile.du[1:])
                  + h * h * (profile.d2u[:-1] - profile.d2u[1:]) / 12.0)
    scale = np.maximum(np.abs(increments), np.finfo(float).tiny)
    return float(np.max(np.abs(increments - quadrature) / scale))


def l0_vs_lsigma(profile: RadialProfile, alpha: float, sigma: float) -> float:
    """Min over the grid of L_sigma(u) - L_0(u), with L_0 = kappa u'^(1/alpha).

    For a radial graph the level sets are circles, kappa = 1/r, so
    L_0 = u'^(1/alpha) / r.  The gradient must be positive away from the
    origin, which is excluded.
    """
    _require_above("alpha", alpha)
    du = profile.du[1:]
    if np.any(du <= 0.0):
        raise ValueError("gradient must be positive away from the origin")
    l_zero = du ** (1.0 / alpha) / profile.r[1:]
    return float(np.min(_l_sigma_off_origin(profile, alpha, sigma) - l_zero))


def blow_down_radius(alpha: float, h: float) -> float:
    """The radius h^(1/(1+alpha)) that the blow-down at scale h maps to x = 1."""
    return h ** (1.0 / (1.0 + alpha))


def blow_down(profile: RadialProfile, alpha: float, h: float) -> tuple[RadialProfile, float]:
    """Parabolic rescaling u_h(x) = u(h^(1/(1+alpha)) x) / h on [0, 1].

    The rescaled profile is evaluated at the pulled-back source nodes, so
    no interpolation error enters; an exact cone input gives sup distance
    at roundoff level.  A profile marched with blow_down_radius(alpha, h)
    among its radii has a node at x = 1.  Returns the rescaled profile and
    its sup distance to the cone x^(1+alpha)/(1+alpha).
    """
    _require_above("alpha", alpha)
    _require_above("blow-down scale h", h)
    lam = blow_down_radius(alpha, h)
    if lam > profile.r[-1] * (1.0 + 1e-9):
        raise ValueError(
            f"profile reaches r = {profile.r[-1]:.6g} but the rescaling needs {lam:.6g}")
    keep = profile.r <= lam * (1.0 + 1e-12)
    x = profile.r[keep] / lam
    rescaled = RadialProfile(
        x,
        profile.u[keep] / h,
        profile.du[keep] * (lam / h),
        profile.d2u[keep] * (lam**2 / h),
    )
    cone = x ** (1.0 + alpha) / (1.0 + alpha)
    return rescaled, float(np.max(np.abs(rescaled.u - cone)))


def growth_bound_check(profile: RadialProfile, alpha: float) -> float:
    """Smallest C with u(r) <= C (1 + r^(1+alpha)) on the grid."""
    _require_above("alpha", alpha)
    return float(np.max(profile.u / (1.0 + profile.r ** (1.0 + alpha))))


def legendre(profile: RadialProfile, n_dual: int | None = None) -> RadialProfile:
    """Discrete Legendre transform u*(p) = max_r (p r - u(r)).

    The maximizer sits where u' crosses p.  On the bracketing interval
    [r_0, r_0 + h] the cubic Hermite interpolant U of (u, u') has a
    quadratic slope, so U'(r_0 + t h) = p is solved in closed form for t,
    and u*(p) = p r^ - U(r^) at the root r^; at a nodal slope p = u'_i
    that is r_i u'_i - u_i exactly.  The dual profile lives on a uniform
    p grid spanning [0, u'(r_max)]; its first derivative is the maximizer
    r^ and its second 1/U''(r^).  The input must be strictly convex (u'
    strictly increasing).
    """
    r = profile.r
    u = profile.u
    du = profile.du
    if np.any(np.diff(du) <= 0.0):
        raise ValueError("legendre transform needs a strictly convex profile")
    if n_dual is None:
        n_dual = r.size
    p = np.linspace(0.0, du[-1], n_dual)

    # The interval whose left slope is the last one at most p.
    j = np.clip(np.searchsorted(du, p, side="right"), 1, r.size - 1)
    r0, h = r[j - 1], r[j] - r[j - 1]
    u0, d0, d1 = u[j - 1], du[j - 1], du[j]
    secant = (u[j] - u0) / h
    # U(r_0 + t h) = u_0 + h t (d0 + t (b + t a)), so U' = d0 + 2 b t + 3 a t^2.
    a = d0 + d1 - 2.0 * secant
    b = 3.0 * secant - 2.0 * d0 - d1
    # The root where U' rises, in the form that stays exact at p = d0.
    rise = np.sqrt(np.maximum(b * b - 3.0 * a * (d0 - p), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (p - d0) / (b + rise)
    t = np.clip(np.where(np.isfinite(t), t, 0.0), 0.0, 1.0)
    r_hat = r0 + h * t
    u_star = p * r_hat - (u0 + h * t * (d0 + t * (b + t * a)))
    curvature = 2.0 * (b + 3.0 * a * t) / h  # U''(r^)
    with np.errstate(divide="ignore"):
        d2_star = np.where(curvature > 0.0, 1.0 / curvature, 0.0)
    return RadialProfile(p, u_star, r_hat, d2_star)


@dataclass(frozen=True)
class DualPowerFit:
    """Least-squares fit of a dual profile window to c p^e + c0."""

    exponent: float
    coefficient: float
    offset: float


def dual_power_fit(dual: RadialProfile, p_lo: float = 50.0, p_hi: float = 100.0) -> DualPowerFit:
    """Extract the leading power law of a Legendre dual on [p_lo, p_hi].

    The dual of a translator is c p^e plus lower-order terms whose largest
    piece is a constant; a plain log-log slope on a finite window absorbs
    that constant into the exponent (a ~1.5% bias for the alpha = 2
    translator on [50, 100], regardless of grid resolution).  Fitting
    c p^e + c0 separates the two, so the returned exponent and coefficient
    track the leading asymptotics.
    """
    from scipy.optimize import curve_fit

    sel = (dual.r >= p_lo) & (dual.r <= p_hi)
    if int(np.count_nonzero(sel)) < 8:
        raise ValueError(f"dual grid has too few points in [{p_lo}, {p_hi}]")
    p = dual.r[sel]
    y = dual.u[sel]
    slope, intercept = np.polyfit(np.log(p), np.log(y), 1)

    def model(pp, coef, expo, base):
        return coef * pp**expo + base

    popt, _ = curve_fit(model, p, y, p0=[math.exp(intercept), slope, 0.0], maxfev=10000)
    return DualPowerFit(exponent=float(popt[1]), coefficient=float(popt[0]),
                        offset=float(popt[2]))


def comparison_ode(alpha: float, delta: float, t_max: float,
                   stats: OdeStats | None = None) -> OdeSolution:
    """Integrate rho'' = 10 t^(1/alpha) rho' + 10 delta, rho(0) = -delta, rho'(0) = 0.

    DOP853, stored at its accepted steps from 0 to t_max and at the first
    time with rho' = 1, if the slope gets there, located between two
    accepted steps by brentq on re-integrations; crossing_time reads it
    off the rows.  The solution scales with delta, so the absolute
    tolerance does too.  stats, if given, receives DOP853's counts.
    """
    _require_above("alpha", alpha)
    _require_above("delta", delta)
    _require_above("t_max", t_max)
    inv_alpha = 1.0 / alpha

    def rhs(t, y):
        return [y[1], 10.0 * t**inv_alpha * y[1] + 10.0 * delta]

    t, rho, drho = _dop853(rhs, t_max, [-delta, 0.0], _ATOL * delta,
                           stats or OdeStats(), level=1.0)
    return OdeSolution(t, rho, drho)


def crossing_time(t, slope, level: float) -> float | None:
    """Time of the first row whose slope reaches level to within 1e-9
    relative, or None: the crossing _dop853 located and stored as a row."""
    hits = np.flatnonzero(np.asarray(slope) >= (1.0 - 1e-9) * level)
    return float(t[hits[0]]) if hits.size else None


def comparison_closed_form(alpha: float, delta: float, ts: np.ndarray) -> np.ndarray:
    """Integrating-factor solution of the slope ODE at the given times.

    rho'(t) = 10 delta e^(E(t)) * integral_0^t e^(-E(s)) ds with
    E(t) = (10 alpha/(alpha+1)) t^((alpha+1)/alpha).  The inner integral is
    accumulated panel by panel with 5-point Gauss-Legendre, so the reference
    is accurate to roundoff on any reasonable grid.
    """
    ts = np.asarray(ts, dtype=float)
    power = (alpha + 1.0) / alpha
    coef = 10.0 * alpha / (alpha + 1.0)

    def big_e(s):
        return coef * s**power

    nodes, weights = np.polynomial.legendre.leggauss(5)
    lo = ts[:-1]
    hi = ts[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    samples = mid[:, None] + half[:, None] * nodes[None, :]
    panel = half * np.sum(weights[None, :] * np.exp(-big_e(samples)), axis=1)
    integral = np.concatenate([[0.0], np.cumsum(panel)])
    return 10.0 * delta * np.exp(big_e(ts)) * integral


def log_convexity_grid(
    R: float, alpha: float, n_points: int = 2001,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hessian eigenvalues of phi = -log(-u) for the separated radial solution.

    u(r) = (r^(1+alpha) - R^(1+alpha))/(1+alpha) is negative inside the
    disc of radius R; the radial eigenvalue is phi_rr and the tangential
    one phi_r / r.  Returns (r, phi_rr, phi_r / r) on a grid that stays a
    factor 1e-3 away from the singular endpoints.
    """
    _require_above("R", R)
    _require_above("alpha", alpha)
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    r = R * np.linspace(1e-3, 1.0 - 1e-3, n_points)
    w = (R ** (1.0 + alpha) - r ** (1.0 + alpha)) / (1.0 + alpha)  # -u > 0
    phi_r = r**alpha / w
    phi_rr = (alpha * r ** (alpha - 1.0) * w + r ** (2.0 * alpha)) / w**2
    return r, phi_rr, phi_r / r

