"""Support-function calculus for convex plane curves.

A convex body is stored as its support function sampled on the uniform
angular grid theta_k = 2*pi*k/M.  All differentiation is spectral
(trigonometric interpolation), so smooth bodies are resolved to roundoff
at moderate M.  Functions here are pure; SupportFunction is immutable and
safe to share between workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MIN_GRID = 64
DEFAULT_GRID = 256


class ConvexityLostError(ValueError):
    """Raised when a support function fails the positivity test s'' + s > 0."""


def _require_above(name: str, value: float, floor: float = 0.0, at_floor: bool = False) -> None:
    """Raise ValueError unless value is a finite number above floor, or at
    it where at_floor allows; NaN and the infinities fail.  Every floor on
    a float argument of geometry, flow and solitons is checked here."""
    if not (math.isfinite(value) and (value >= floor if at_floor else value > floor)):
        raise ValueError(f"{name} must be a finite number {'at or ' if at_floor else ''}"
                         f"above {floor:g}, got {value}")


# The arrays below depend on the grid size alone and are computed once per
# size and shared by every caller, so each is read-only.

def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.cache
def _wavenumbers(m: int) -> np.ndarray:
    """Wavenumbers 0 .. m/2 of the rfft layout."""
    return _read_only(np.arange(m // 2 + 1, dtype=float))


@functools.cache
def _angles(m: int) -> np.ndarray:
    """The angular grid theta_k = 2 pi k / m, k = 0 .. m - 1."""
    return _read_only(np.arange(m) * (2.0 * np.pi / m))


@functools.cache
def _basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) on the angular grid."""
    return _read_only(np.cos(_angles(m))), _read_only(np.sin(_angles(m)))


@functools.cache
def _radius_symbol(m: int) -> np.ndarray:
    """Symbol 1 - k^2 of s'' + s in the rfft layout."""
    return _read_only(1.0 - _wavenumbers(m) ** 2)


def trig_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate samples of a periodic function by trigonometric interpolation,
    along the last axis, so each row of a 2-D array is one function.

    For odd orders the Nyquist mode is dropped: the interpolant cos(M*theta/2)
    has zero derivative at every node, so keeping it would only inject noise.
    """
    m = values.shape[-1]
    k = _wavenumbers(m)
    spectrum = np.fft.rfft(values)
    if order % 2 == 0:
        spectrum *= (1j * k) ** order
    else:
        coef = (1j * k) ** order
        coef[-1] = 0.0
        spectrum *= coef
    return np.fft.irfft(spectrum, n=m)


def curvature_radius_samples(values: np.ndarray | None = None, *,
                             spectrum: np.ndarray | None = None) -> np.ndarray:
    """Radius of curvature s'' + s on the grid, without the positivity check.

    Give either the samples of s or, on an even grid, their rfft spectrum.
    The samples cost a transform pair; the spectrum costs one inverse
    transform of (1 - k^2) * spectrum.
    """
    if (values is None) == (spectrum is None):
        raise TypeError("give exactly one of values and spectrum")
    if spectrum is None:
        return trig_derivative(values, 2) + values
    m = 2 * (spectrum.size - 1)
    return np.fft.irfft(_radius_symbol(m) * spectrum, n=m)


@dataclass(frozen=True)
class SupportFunction:
    """Support function of a convex body on the uniform angular grid.

    Construction validates the grid (even size, at least MIN_GRID samples,
    all finite) and convexity (s'' + s strictly positive).  Nonconvex data
    is rejected, never projected back to convexity.
    """

    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("support samples must be a one-dimensional array")
        m = arr.size
        if m < MIN_GRID or m % 2 != 0:
            raise ValueError(f"grid size must be even and >= {MIN_GRID}, got {m}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("support samples must be finite")
        # Finite samples near the float range can still overflow the
        # transform; the check below rejects them.
        with np.errstate(over="ignore", invalid="ignore"):
            radius = curvature_radius_samples(arr)
        r_min, r_max = radius.min(), radius.max()
        if not (-math.inf < r_min and r_max < math.inf):
            raise ValueError("support samples are too large to transform")
        if not (r_min > 0.0):
            raise ConvexityLostError(f"curvature radius must be positive, min is {r_min:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def m(self) -> int:
        return self.samples.size


def make_circle(radius: float, center=(0.0, 0.0), m: int = DEFAULT_GRID) -> SupportFunction:
    """Circle of given radius about center = (x, y):
    s(theta) = radius + x cos(theta) + y sin(theta)."""
    _require_above("circle radius", radius)
    cx, cy = center
    cos_t, sin_t = _basis(m)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples fail SupportFunction
        samples = radius + cx * cos_t + cy * sin_t
    return SupportFunction(samples)


def make_ellipse(a: float, b: float, m: int = DEFAULT_GRID) -> SupportFunction:
    """Origin-centred axis-aligned ellipse with semi-axes a, b."""
    _require_above("ellipse semi-axis a", a)
    _require_above("ellipse semi-axis b", b)
    cos_t, sin_t = _basis(m)
    with np.errstate(over="ignore"):  # infinite samples fail SupportFunction
        samples = np.sqrt((a * cos_t) ** 2 + (b * sin_t) ** 2)
    return SupportFunction(samples)


def make_fourier_body(cos_coeffs, sin_coeffs=(), m: int = DEFAULT_GRID) -> SupportFunction:
    """Body from a truncated Fourier series of its support function.

    cos_coeffs[j] multiplies cos(j*theta) starting at j = 0; sin_coeffs[j]
    multiplies sin((j+1)*theta).  Convexity of the result is still required.
    """
    theta = _angles(m)
    values = np.zeros(m)
    for j, c in enumerate(cos_coeffs):
        values += c * np.cos(j * theta)
    for j, c in enumerate(sin_coeffs):
        values += c * np.sin((j + 1) * theta)
    return SupportFunction(values)


#: A random body's harmonic k has amplitudes up to RANDOM_SCALE / k^3.
RANDOM_SCALE = 0.3


def random_convex_body(rng: np.random.Generator, m: int = DEFAULT_GRID) -> SupportFunction:
    """Draw a random convex body near the unit circle.

    Harmonic amplitudes are uniform in [-RANDOM_SCALE/k^3, RANDOM_SCALE/k^3]
    for modes k = 2..8; draws that break convexity are rejected and redrawn.
    """
    theta = _angles(m)
    while True:
        values = np.ones(m)
        for k in range(2, 9):
            bound = RANDOM_SCALE / k**3
            a = rng.uniform(-bound, bound)
            b = rng.uniform(-bound, bound)
            values += a * np.cos(k * theta) + b * np.sin(k * theta)
        try:
            return SupportFunction(values)
        except ConvexityLostError:
            pass


# The arithmetic below works on each support function along the last axis
# of an array of samples, so a trace of states is one call; the public
# functions apply it to one state.

def _areas(values: np.ndarray) -> np.ndarray:
    ds = trig_derivative(values, 1)
    return 0.5 * (2.0 * np.pi / values.shape[-1]) * np.sum(values**2 - ds**2, axis=-1)


def _lengths(values: np.ndarray) -> np.ndarray:
    return (2.0 * np.pi / values.shape[-1]) * np.sum(values, axis=-1)


def _curvature_integrals(values: np.ndarray, alpha: float) -> np.ndarray:
    """Integral of kappa^alpha dxi; the curvature radius is taken to be positive."""
    radius = curvature_radius_samples(values)
    return (2.0 * np.pi / values.shape[-1]) * np.sum(np.power(1.0 / radius, alpha) * radius,
                                                      axis=-1)


def _spectrum_amplitudes(spectra: np.ndarray, mode: int) -> np.ndarray:
    """Amplitude sqrt(a_k^2 + b_k^2) = weight * |c_k| / m of harmonic
    k = mode, from the rfft coefficients c of samples on an even grid of m
    points, along the last axis; weight is 1 at k = 0 and m/2, else 2."""
    m = 2 * (spectra.shape[-1] - 1)
    if not 0 <= mode <= m // 2:
        raise ValueError(f"mode must lie in [0, {m // 2}], got {mode}")
    weight = 1.0 if mode in (0, m // 2) else 2.0
    return weight * np.abs(spectra[..., mode]) / m


def _steiner(values: np.ndarray) -> tuple:
    """The Steiner point (x, y) and the distances from it to the supporting
    lines; x and y are scalars for one support function, columns for rows."""
    cos_t, sin_t = _basis(values.shape[-1])
    w = 2.0 / values.shape[-1]
    x = w * np.add.reduce(values * cos_t, -1)
    y = w * np.add.reduce(values * sin_t, -1)
    if values.ndim > 1:
        x, y = x[:, None], y[:, None]
    return x, y, values - x * cos_t - y * sin_t


def area(s: SupportFunction) -> float:
    """Enclosed area, 0.5 * integral of s^2 - s'^2.

    The trapezoid rule on the periodic grid is spectrally accurate, and exact
    for trigonometric polynomials of degree below the grid size.
    """
    return float(_areas(s.samples))


def length(s: SupportFunction) -> float:
    """Boundary length, the integral of s over the angle."""
    return float(_lengths(s.samples))


def steiner_point(s: SupportFunction) -> tuple[float, float]:
    """Curvature-weighted centroid (x, y); the first harmonic of s times (1/pi)."""
    x, y, _ = _steiner(s.samples)
    return float(x), float(y)


def translate(s: SupportFunction, vector) -> SupportFunction:
    """Support function of the body translated by the vector (vx, vy)."""
    vx, vy = vector
    cos_t, sin_t = _basis(s.m)
    return SupportFunction(s.samples + vx * cos_t + vy * sin_t)


def inradius(s: SupportFunction) -> float:
    """Radius of the largest disc centred at the Steiner point."""
    return float(np.min(_steiner(s.samples)[2]))


def circumradius(s: SupportFunction) -> float:
    """Radius of the smallest disc centred at the Steiner point containing the body."""
    return float(np.max(_steiner(s.samples)[2]))

