"""Oracles that judge gcsf's outputs without calling the code they judge.

Every reference value here is computed by the benchmark itself, from a
closed form or from the raw artifact columns; nothing is imported from
gcsf.  Each check returns a list of failure messages, empty on a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

EXTINCTION_TOL = 1e-4
RATE_REL_TOL = 0.05
HALF_WIDTH_TOL = 1e-6
SINH_TOL = 1e-8
SINH_WINDOW = 5.0
DUAL_EXPONENT_TOL = 0.01
DUAL_COEFFICIENT_TOL = 0.02
ODE_REL_TOL = 1e-8
BLOWDOWN_AGREEMENT = 1e-9
# Cubic-Hermite quadrature of u' with u'' is O(h^5) per interval, as is the
# fourth-order march that produced the increments of u.  On the alpha = 1,
# 1.5 and 2 translator profiles the worst relative gap is about 5e-8, at the
# first marched intervals, where the increments are smallest; a slope that
# is 5% off gives a gap of 5e-2.
HERMITE_REL_TOL = 1e-6


def fourier_area(cos_coeffs, sin_coeffs) -> float:
    """Area of the body with support function sum c_j cos(j t) + s_j sin((j+1) t).

    A = (1/2) integral (h^2 - h'^2) = pi a_0^2 + (pi/2) sum (1 - k^2)(a_k^2 + b_k^2).
    """
    area = math.pi * cos_coeffs[0] ** 2
    for k, a in enumerate(cos_coeffs[1:], start=1):
        area += 0.5 * math.pi * (1 - k * k) * a * a
    for k, b in enumerate(sin_coeffs, start=1):
        area += 0.5 * math.pi * (1 - k * k) * b * b
    return area


def check_extinction(extinction_time, stop_reason, area0: float) -> list[str]:
    """At alpha = 1, dA/dt = -2 pi for every convex body, so T = A_0 / (2 pi)."""
    if stop_reason != "extinct" or extinction_time is None:
        return [f"flow stopped with {stop_reason!r}, not extinct"]
    expected = area0 / (2.0 * math.pi)
    err = abs(float(extinction_time) - expected)
    if not err <= EXTINCTION_TOL:
        return [f"extinction time {extinction_time!r} is {err:.3e} from A0/2pi = {expected!r}"]
    return []


def log_slope(tau, amplitude, window) -> float:
    """Least-squares slope of log(amplitude) against tau inside the window."""
    tau = np.asarray(tau, dtype=float)
    amplitude = np.asarray(amplitude, dtype=float)
    sel = (tau >= window[0]) & (tau <= window[1])
    x = tau[sel]
    y = np.log(amplitude[sel])
    xm = x.mean()
    return float(np.sum((x - xm) * (y - y.mean())) / np.sum((x - xm) ** 2))


def check_decay_rate(alpha: float, rate: float) -> list[str]:
    """The cos(2 theta) mode of the rescaled flow decays at 1 - 3 alpha."""
    expected = 1.0 - 3.0 * alpha
    if not abs(rate - expected) <= RATE_REL_TOL * abs(expected):
        return [f"decay rate {rate!r} at alpha={alpha} is not within "
                f"{RATE_REL_TOL:.0%} of 1 - 3 alpha = {expected!r}"]
    return []


def check_half_width(half_width) -> list[str]:
    """At alpha = 1 the translator is -log cos x on the strip |x| < pi/2."""
    if half_width is None:
        return ["alpha = 1 translator did not blow up"]
    if not abs(half_width - math.pi / 2) <= HALF_WIDTH_TOL:
        return [f"half-width {half_width!r} is not pi/2 to {HALF_WIDTH_TOL}"]
    return []


def check_sinh(x, dv, half_width) -> list[str]:
    """At alpha = 1/2 the slope is sinh x and the profile is entire."""
    failures = []
    if half_width is not None:
        failures.append("alpha = 1/2 translator reported a finite half-width")
    x = np.asarray(x, dtype=float)
    dv = np.asarray(dv, dtype=float)
    window = x <= SINH_WINDOW
    err = float(np.max(np.abs(dv[window] - np.sinh(x[window]))))
    if not err <= SINH_TOL:
        failures.append(f"slope is {err:.3e} from sinh on [0, {SINH_WINDOW}]")
    return failures


def check_dual_fit(alpha: float, exponent: float, coefficient: float) -> list[str]:
    """The Legendre dual grows like (alpha/(1+alpha)) p^((1+alpha)/alpha)."""
    failures = []
    exp_true = (1.0 + alpha) / alpha
    coef_true = alpha / (1.0 + alpha)
    if not abs(exponent - exp_true) <= DUAL_EXPONENT_TOL * exp_true:
        failures.append(f"dual exponent {exponent!r} is not {exp_true!r} to 1%")
    if not abs(coefficient - coef_true) <= DUAL_COEFFICIENT_TOL * coef_true:
        failures.append(f"dual coefficient {coefficient!r} is not {coef_true!r} to 2%")
    return failures


def comparison_slope(alpha: float, delta: float, t: float) -> float:
    """rho'(t) for rho'' = 10 t^(1/alpha) rho' + 10 delta, rho'(0) = 0.

    rho'(t) = 10 delta integral_0^t exp(E(t) - E(s)) ds with
    E(t) = (10 alpha/(alpha+1)) t^((alpha+1)/alpha), by adaptive quadrature.
    """
    power = (alpha + 1.0) / alpha
    coef = 10.0 * alpha / (alpha + 1.0)
    e_t = coef * t**power
    value, _ = quad(lambda s: math.exp(e_t - coef * s**power), 0.0, t,
                    epsabs=0.0, epsrel=1e-13, limit=400)
    return 10.0 * delta * value


def check_comparison(alpha: float, delta: float, t, drho, samples: int = 40) -> list[str]:
    """Pointwise relative error of the stored rho' at evenly spaced grid rows.

    The first sampled row sits 1/samples of the way in: t^(1/alpha) is not
    smooth at 0, so the march's first few steps are only accurate to ~1e-8.
    """
    t = np.asarray(t, dtype=float)
    drho = np.asarray(drho, dtype=float)
    rows = np.unique(np.linspace(0, t.size - 1, samples + 1).astype(int)[1:])
    worst = 0.0
    for i in rows:
        ref = comparison_slope(alpha, delta, float(t[i]))
        worst = max(worst, abs(drho[i] - ref) / abs(ref))
    if not worst <= ODE_REL_TOL:
        return [f"comparison ODE slope is {worst:.3e} (relative) from its closed form"]
    return []


def blow_down_distances(r, u, alpha: float, scales) -> list[float]:
    """Sup distance of u(h^(1/(1+alpha)) x)/h to the cone on the stored nodes."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    out = []
    for h in scales:
        lam = h ** (1.0 / (1.0 + alpha))
        keep = r <= lam * (1.0 + 1e-12)
        x = r[keep] / lam
        out.append(float(np.max(np.abs(u[keep] / h - x ** (1.0 + alpha) / (1.0 + alpha)))))
    return out


def check_blowdown(own, reported) -> list[str]:
    """Distances strictly decrease over the scales and match the CSV."""
    failures = []
    if not all(a > b for a, b in zip(own, own[1:])):
        failures.append(f"blow-down distances {own} do not strictly decrease")
    if len(own) != len(reported) or not all(
            abs(a - b) <= BLOWDOWN_AGREEMENT * abs(a) for a, b in zip(own, reported)):
        failures.append(f"blow-down CSV {list(reported)} does not match {own}")
    return failures


def hermite_defect(r, u, du, d2u) -> float:
    """Largest relative gap between the increments of u and the cubic-Hermite
    quadrature of u' with slopes u'' over each interval:

        integral_{r_i}^{r_i+1} u' = h (u'_i + u'_i+1)/2 + h^2 (u''_i - u''_i+1)/12 + O(h^5).
    """
    r, u, du, d2u = (np.asarray(a, dtype=float) for a in (r, u, du, d2u))
    h = np.diff(r)
    quad_du = 0.5 * h * (du[:-1] + du[1:]) + h * h * (d2u[:-1] - d2u[1:]) / 12.0
    gap = np.abs(np.diff(u) - quad_du)
    scale = np.maximum(np.abs(np.diff(u)), np.finfo(float).tiny)
    return float(np.max(gap / scale))


def check_hermite(r, u, du, d2u) -> list[str]:
    defect = hermite_defect(r, u, du, d2u)
    if not defect <= HERMITE_REL_TOL:
        return [f"profile increments disagree with the Hermite quadrature of u' "
                f"by {defect:.3e} (relative)"]
    return []
