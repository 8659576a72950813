"""Each oracle passes a correct output and rejects a perturbed one."""

import math

import numpy as np
import pytest

import oracles
import workloads
from gcsf import flow as fl
from gcsf import solitons as so


def _support(cos_coeffs, sin_coeffs, theta):
    h = sum(c * np.cos(j * theta) for j, c in enumerate(cos_coeffs))
    return h + sum(s * np.sin((j + 1) * theta) for j, s in enumerate(sin_coeffs))


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_seeded_body_is_convex_and_its_area_is_closed_form(seed):
    cos_coeffs, sin_coeffs = workloads.draw_fourier_body(seed)
    assert workloads.draw_fourier_body(seed) == (cos_coeffs, sin_coeffs)
    bound = sum((k * k - 1) * (abs(a) + abs(b)) for k, (a, b) in
                enumerate(zip(cos_coeffs[2:], sin_coeffs[1:]), start=2))
    assert bound < cos_coeffs[0]
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    h = _support(cos_coeffs, sin_coeffs, theta)
    dh = (sum(-j * c * np.sin(j * theta) for j, c in enumerate(cos_coeffs))
          + sum((j + 1) * b * np.cos((j + 1) * theta) for j, b in enumerate(sin_coeffs)))
    h_rr = _support([-(j * j) * c for j, c in enumerate(cos_coeffs)],
                    [-((j + 1) ** 2) * s for j, s in enumerate(sin_coeffs)], theta)
    assert np.min(h + h_rr) > 0.0
    quadrature = 0.5 * np.sum(h**2 - dh**2) * theta[1]
    assert oracles.fourier_area(cos_coeffs, sin_coeffs) == pytest.approx(quadrature, rel=1e-12)


def test_seeds_draw_different_bodies():
    assert workloads.draw_fourier_body(0) != workloads.draw_fourier_body(1)


def test_extinction_oracle():
    area0 = oracles.fourier_area([1.0, 0.0, 0.01], [0.0, 0.02])
    t_true = area0 / (2.0 * math.pi)
    assert oracles.check_extinction(t_true + 5e-5, "extinct", area0) == []
    assert oracles.check_extinction(t_true + 2e-4, "extinct", area0)
    assert oracles.check_extinction(t_true, "time_limit", area0)
    assert oracles.check_extinction(None, "extinct", area0)


def test_decay_rate_oracle_and_own_fit():
    tau = np.linspace(0.0, 3.5, 60)
    amplitude = 1e-3 * np.exp(-2.0 * tau)
    assert oracles.log_slope(tau, amplitude, (1.0, 3.0)) == pytest.approx(-2.0, rel=1e-12)
    assert oracles.check_decay_rate(1.0, -2.0 * 1.04) == []
    assert oracles.check_decay_rate(1.0, -2.0 * 1.06)
    assert oracles.check_decay_rate(0.6, -0.8 * 0.94)
    assert oracles.check_decay_rate(float("nan"), -2.0)


def test_half_width_oracle():
    assert oracles.check_half_width(math.pi / 2 + 5e-7) == []
    assert oracles.check_half_width(math.pi / 2 + 2e-6)
    assert oracles.check_half_width(None)


def test_sinh_oracle():
    x = np.linspace(0.0, 20.0, 2001)
    dv = np.sinh(x)
    assert oracles.check_sinh(x, dv, None) == []
    assert oracles.check_sinh(x, dv * (1.0 + 1e-7), None)
    assert oracles.check_sinh(x, dv, 19.0)


def test_dual_fit_oracle():
    assert oracles.check_dual_fit(1.0, 2.0 * 1.005, 0.5 * 1.01) == []
    assert oracles.check_dual_fit(1.0, 2.0 * 1.015, 0.5)
    assert oracles.check_dual_fit(1.0, 2.0, 0.5 * 1.03)


def test_comparison_oracle_on_the_program_output():
    alpha, delta = 2.0, 1e-3
    sol = so.comparison_ode(alpha, delta, 1.5)
    assert oracles.check_comparison(alpha, delta, sol.t, sol.drho) == []
    assert oracles.check_comparison(alpha, delta, sol.t, sol.drho * (1.0 + 1e-6))
    shifted = sol.drho.copy()
    shifted[sol.t.size // 2:] *= 1.0 + 1e-6
    assert oracles.check_comparison(alpha, delta, sol.t, shifted)


def test_blowdown_oracle():
    alpha = 1.5
    r = np.linspace(0.0, 41.0, 20001)
    u = r ** (1 + alpha) / (1 + alpha) + np.sqrt(1.0 + r)  # decays under blow-down
    scales = workloads.BLOWDOWN_SCALES
    own = oracles.blow_down_distances(r, u, alpha, scales)
    assert oracles.check_blowdown(own, own) == []
    assert oracles.check_blowdown(own, [own[0], own[1], own[2], own[3] * 1.01])
    flat = oracles.blow_down_distances(r, r ** (1 + alpha) / (1 + alpha) + r, alpha, scales)
    assert oracles.check_blowdown(flat, flat) == []
    rising = oracles.blow_down_distances(
        r, r ** (1 + alpha) / (1 + alpha) + 1e-3 * r**3, alpha, scales)
    assert oracles.check_blowdown(rising, rising)


def test_hermite_oracle_rejects_a_wrong_slope_the_residual_misses():
    alpha, sigma = 2.0, 1.0
    profile = so.radial_translator(alpha, sigma, 5.0)
    assert oracles.check_hermite(profile.r, profile.u, profile.du, profile.d2u) == []

    # Slope 5% off everywhere, u'' taken from the ODE at that slope: the
    # operator residual, which reads only (u', u''), cannot tell.
    e1 = 0.5 - 0.5 / alpha
    du = 1.05 * profile.du
    d2u = profile.d2u.copy()
    r = profile.r[1:]
    w = du[1:]
    d2u[1:] = ((sigma + w * w) / sigma) * ((sigma + w * w) ** e1 - w / r)
    wrong = so.RadialProfile(profile.r, profile.u, du, d2u)
    assert so.l_sigma_residual(wrong, alpha, sigma) <= 1e-12
    assert oracles.check_hermite(wrong.r, wrong.u, wrong.du, wrong.d2u)


def test_flow_oracle_on_a_short_program_run():
    # A circle of radius 0.2 at alpha = 1 dies at 0.02 = A0 / (2 pi).
    cos_coeffs = [0.2]
    s0 = fl.SupportFunction(np.full(64, 0.2))
    trace = fl.run_to_extinction(s0, fl.FlowParams(alpha=1.0, m=64))
    area0 = oracles.fourier_area(cos_coeffs, [])
    assert oracles.check_extinction(trace.extinction_time, trace.stop_reason.value,
                                    area0) == []
    assert oracles.check_extinction(trace.extinction_time, trace.stop_reason.value,
                                    area0 * 1.02)
