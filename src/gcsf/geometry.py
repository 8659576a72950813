"""Support-function calculus for convex plane curves.

A convex body is stored as its support function sampled on the uniform
angular grid theta_k = 2*pi*k/M.  All differentiation is spectral
(trigonometric interpolation), so smooth bodies are resolved to roundoff
at moderate M.  Functions here are pure; SupportFunction is immutable and
safe to share between workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

MIN_GRID = 64
DEFAULT_GRID = 256


class ConvexityLostError(ValueError):
    """Raised when a support function fails the positivity test s'' + s > 0."""


# Cached wavenumber arrays for the rfft layout, keyed by grid size.
_WAVENUMBERS: dict[int, np.ndarray] = {}
# Cached symbols 1 - k^2 of s'' + s in the same layout.
_RADIUS_SYMBOLS: dict[int, np.ndarray] = {}
# Cached (cos theta, sin theta) of the angular grid, keyed by grid size.
_BASES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _wavenumbers(m: int) -> np.ndarray:
    k = _WAVENUMBERS.get(m)
    if k is None:
        k = np.arange(m // 2 + 1, dtype=float)
        _WAVENUMBERS[m] = k
    return k


def _basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    basis = _BASES.get(m)
    if basis is None:
        theta = np.arange(m) * (2.0 * np.pi / m)
        basis = _BASES[m] = (np.cos(theta), np.sin(theta))
    return basis


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


def _radius_symbol(m: int) -> np.ndarray:
    symbol = _RADIUS_SYMBOLS.get(m)
    if symbol is None:
        symbol = 1.0 - _wavenumbers(m) ** 2
        _RADIUS_SYMBOLS[m] = symbol
    return symbol


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
class PlanePoint:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("plane point coordinates must be finite")


def _as_xy(point) -> tuple[float, float]:
    if isinstance(point, PlanePoint):
        return point.x, point.y
    x, y = point
    return float(x), float(y)


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
        radius = curvature_radius_samples(arr)
        if not (np.min(radius) > 0.0):
            raise ConvexityLostError(
                f"curvature radius must be positive, min is {np.min(radius):.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def m(self) -> int:
        return self.samples.size

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.m) * (2.0 * np.pi / self.m)


def make_circle(radius: float, center=PlanePoint(0.0, 0.0), m: int = DEFAULT_GRID) -> SupportFunction:
    """Circle of given radius: s(theta) = R + cx*cos(theta) + cy*sin(theta)."""
    if radius <= 0.0:
        raise ValueError(f"circle radius must be positive, got {radius}")
    cx, cy = _as_xy(center)
    theta = np.arange(m) * (2.0 * np.pi / m)
    return SupportFunction(radius + cx * np.cos(theta) + cy * np.sin(theta))


def make_ellipse(a: float, b: float, m: int = DEFAULT_GRID) -> SupportFunction:
    """Origin-centred axis-aligned ellipse with semi-axes a, b."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"ellipse semi-axes must be positive, got ({a}, {b})")
    theta = np.arange(m) * (2.0 * np.pi / m)
    with np.errstate(over="ignore"):  # infinite samples fail SupportFunction
        samples = np.sqrt((a * np.cos(theta)) ** 2 + (b * np.sin(theta)) ** 2)
    return SupportFunction(samples)


def make_fourier_body(cos_coeffs, sin_coeffs=(), m: int = DEFAULT_GRID) -> SupportFunction:
    """Body from a truncated Fourier series of its support function.

    cos_coeffs[j] multiplies cos(j*theta) starting at j = 0; sin_coeffs[j]
    multiplies sin((j+1)*theta).  Convexity of the result is still required.
    """
    theta = np.arange(m) * (2.0 * np.pi / m)
    values = np.zeros(m)
    for j, c in enumerate(cos_coeffs):
        values += c * np.cos(j * theta)
    for j, c in enumerate(sin_coeffs):
        values += c * np.sin((j + 1) * theta)
    return SupportFunction(values)


def random_convex_body(
    rng: np.random.Generator,
    m: int = DEFAULT_GRID,
    max_mode: int = 8,
    scale: float = 0.3,
) -> SupportFunction:
    """Draw a random convex body near the unit circle.

    Harmonic amplitudes are uniform in [-scale/k^3, scale/k^3] for modes
    k = 2..max_mode; draws that break convexity are rejected and redrawn.
    """
    theta = np.arange(m) * (2.0 * np.pi / m)
    while True:
        values = np.ones(m)
        for k in range(2, max_mode + 1):
            bound = scale / k**3
            a = rng.uniform(-bound, bound)
            b = rng.uniform(-bound, bound)
            values += a * np.cos(k * theta) + b * np.sin(k * theta)
        if np.min(curvature_radius_samples(values)) > 0.0:
            return SupportFunction(values)


def curvature_radius(s: SupportFunction) -> np.ndarray:
    """Radius of curvature s'' + s; positive on every valid support function."""
    radius = curvature_radius_samples(s.samples)
    if not (np.min(radius) > 0.0):
        raise ConvexityLostError(
            f"curvature radius must be positive, min is {np.min(radius):.3e}"
        )
    return radius


# The arithmetic behind area, length and the Steiner point works on each
# support function along the last axis of an array of samples, so a trace
# of states is one call; the public functions below apply it to one state.

def _areas(values: np.ndarray) -> np.ndarray:
    ds = trig_derivative(values, 1)
    return 0.5 * (2.0 * np.pi / values.shape[-1]) * np.sum(values**2 - ds**2, axis=-1)


def _lengths(values: np.ndarray) -> np.ndarray:
    return (2.0 * np.pi / values.shape[-1]) * np.sum(values, axis=-1)


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


def steiner_point(s: SupportFunction) -> PlanePoint:
    """Curvature-weighted centroid; the first harmonic of s times (1/pi)."""
    x, y, _ = _steiner(s.samples)
    return PlanePoint(float(x), float(y))


def translate(s: SupportFunction, vector) -> SupportFunction:
    """Support function of the body translated by the given vector."""
    vx, vy = _as_xy(vector)
    cos_t, sin_t = _basis(s.m)
    return SupportFunction(s.samples + vx * cos_t + vy * sin_t)


def recenter(s: SupportFunction) -> SupportFunction:
    """Translate so the Steiner point sits at the origin."""
    p = steiner_point(s)
    return translate(s, (-p.x, -p.y))


def inradius(s: SupportFunction) -> float:
    """Radius of the largest disc centred at the Steiner point."""
    return float(np.min(_steiner(s.samples)[2]))


def circumradius(s: SupportFunction) -> float:
    """Radius of the smallest disc centred at the Steiner point containing the body."""
    return float(np.max(_steiner(s.samples)[2]))


def hausdorff_to_circle(s: SupportFunction, center, radius: float) -> float:
    """Hausdorff distance to the circle of given center and radius.

    For convex bodies this is the sup norm of the difference of support
    functions, here max |s_recentred - radius|.  The center must lie
    strictly inside the body.
    """
    if radius <= 0.0:
        raise ValueError(f"circle radius must be positive, got {radius}")
    cx, cy = _as_xy(center)
    cos_t, sin_t = _basis(s.m)
    shifted = s.samples - cx * cos_t - cy * sin_t
    if np.min(shifted) <= 0.0:
        raise ValueError("center must lie strictly inside the body")
    return float(np.max(np.abs(shifted - radius)))


def mode_amplitude(s: SupportFunction, mode: int) -> float:
    """Amplitude sqrt(a_k^2 + b_k^2) of one Fourier harmonic of the samples."""
    if mode < 0 or mode > s.m // 2:
        raise ValueError(f"mode must lie in [0, {s.m // 2}], got {mode}")
    spectrum = np.fft.rfft(s.samples)
    if mode == 0 or mode == s.m // 2:
        return float(np.abs(spectrum[mode])) / s.m
    return 2.0 * float(np.abs(spectrum[mode])) / s.m


# -- serialization ----------------------------------------------------------

def support_to_json(s: SupportFunction) -> str:
    """JSON text {"m": M, "samples": [...]}; floats round-trip bit-faithfully."""
    return json.dumps({"m": s.m, "samples": [float(x) for x in s.samples]})


def support_from_json(text: str) -> SupportFunction:
    data = json.loads(text)
    samples = np.array(data["samples"], dtype=float)
    if data.get("m") != samples.size:
        raise ValueError("declared grid size does not match the sample count")
    return SupportFunction(samples)
