"""Closed-form straightness of center-to-periphery routes.

Angles are in radians, either floats or numpy arrays of directions (a
float in gives a float out).  A move from the network center is
described by its direction ``alpha`` measured from the x axis; a
radio-concentric network is described by its integer spoke count ``k``,
from which the sector angle ``theta = 2*pi/k`` is always derived (passing
a free-floating theta would allow sector angles no integer spoke count can
produce).
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

RIGHT_ANGLE = math.pi / 2.0
DOMINANCE_SAMPLES = 10001  # directions dominance_fraction samples on [0, pi/4]
MAX_CURVE_SAMPLES = 1_000_000  # most rows a curve table, or any table read, may hold
Angles = float | np.ndarray  # one direction in radians, or an array of them


def as_integer(name: str, value) -> int:
    """``value`` as an ``int``: any integral number but ``bool`` (numpy ints pass)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)  # numpy ints can overflow


def check_curve_samples(count: int) -> None:
    """Refuse ``count`` curve samples, over MAX_CURVE_SAMPLES, before any is taken."""
    if count > MAX_CURVE_SAMPLES:
        raise ValueError(f"{count} curve samples, more than {MAX_CURVE_SAMPLES=}")


def sector_angle(radii_count: int) -> float:
    """Angle between consecutive spokes, ``2*pi / k`` for integer k >= 3."""
    if (k := as_integer("radii_count", radii_count)) < 3:
        raise ValueError("radii_count must be at least 3 (sides undefined below)")
    return 2.0 * math.pi / k


def canonicalize(theta: float, alpha: Angles) -> Angles:
    """Reduce a direction to the representative range ``[0, theta/2]``.

    Straightness is periodic in the sector angle (rotating by a whole
    sector maps the network onto itself) and symmetric about each sector
    bisector, so every direction has an equivalent in the first
    half-sector.  The reduction is rotation (mod theta) followed by a
    reflection when the remainder exceeds the bisector.
    """
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError("theta must be finite and positive")
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    a = np.fmod(alpha, theta)
    a = np.where(a < 0.0, a + theta, a)
    return _like(alpha, np.where(a > 0.5 * theta, theta - a, a))


def _like(alpha: Angles, values) -> Angles:
    return values if np.ndim(alpha) else float(values)  # a float in, a float out


def straightness_rectilinear(alpha: Angles) -> Angles:
    """Center-to-periphery straightness on a perfect unit grid.

    ``1 / (cos a + sin a)`` on the canonical half-sector; the grid behaves
    like a radio-concentric network with four right-angle sectors, so any
    finite direction is accepted.  Values lie in ``[1/sqrt(2), 1]``.
    """
    a = canonicalize(RIGHT_ANGLE, alpha)
    return _like(alpha, 1.0 / (np.cos(a) + np.sin(a)))


def straightness_radial(radii_count: int, alpha: Angles) -> Angles:
    """Center-to-periphery straightness on a perfect radio-concentric network.

    Evaluates ``1 / (cos a + sin a / tan((pi-theta)/2) + sin a /
    sin((pi-theta)/2))`` with ``theta = 2*pi/radii_count`` after reducing
    ``alpha`` to the first half-sector, so arbitrary directions show the
    periodic ripple pattern.  Values lie in ``(0, 1]`` with the sector
    minimum at the bisector.
    """
    theta = sector_angle(radii_count)
    a = canonicalize(theta, alpha)
    half_apex = 0.5 * (math.pi - theta)
    sin_a = np.sin(a)
    denominator = np.cos(a) + sin_a / math.tan(half_apex) + sin_a / math.sin(half_apex)
    return _like(alpha, 1.0 / denominator)


def mesh_oracle_radial(radii_count: int, alpha: Angles) -> Angles:
    """Straightness from the explicit two-route geometry of one sector.

    The destination is where the ray at angle ``alpha`` crosses the chord
    between the unit-ring corners of the first sector.  On the network the
    point can only be reached along one of the two bounding spokes and then
    along the chord, so the shorter of those two routes is the network
    distance.  Built from plain coordinate geometry, and therefore usable
    as an independent oracle for the closed form.
    """
    theta, a = sector_angle(radii_count), np.asarray(alpha)
    if not np.all((0.0 <= a) & (a <= theta)):  # nan fails both
        raise ValueError("alpha must lie within the first sector [0, theta]")
    ax, ay = 1.0, 0.0
    bx, by = math.cos(theta), math.sin(theta)
    ux, uy = np.cos(a), np.sin(a)
    # Ray/chord intersection: scale the unit direction until it meets the
    # chord line through A and B (normal form avoids solving a 2x2 system).
    nx, ny = ay - by, bx - ax
    t = (ax * nx + ay * ny) / (ux * nx + uy * ny)
    px, py = t * ux, t * uy
    chord = np.minimum(np.hypot(px - ax, py - ay), np.hypot(px - bx, py - by))
    return _like(alpha, np.hypot(px, py) / (1.0 + chord))  # a unit spoke, then the chord


def analytic_curve(
    kind: str, radii_count: int | None, alpha_steps: int, alpha_max: float = math.pi / 4
) -> list[tuple[float, float]]:
    """Sample one straightness curve on a uniform direction grid.

    ``kind`` is ``"rectilinear"`` or ``"radial"`` (the latter requires
    ``radii_count``).  Directions run from 0 to ``alpha_max`` inclusive in
    ``alpha_steps`` samples; since the formulas reduce internally, radial
    curves show their full ripple pattern over the range.
    """
    if (alpha_steps := as_integer("alpha_steps", alpha_steps)) < 2:
        raise ValueError("alpha_steps must be at least 2")
    check_curve_samples(alpha_steps)
    # the largest sample, alpha_max * (alpha_steps - 1), must not overflow
    if not (math.isfinite(alpha_max * (alpha_steps - 1)) and alpha_max > 0.0):
        raise ValueError("alpha_max must be finite and positive")
    if kind == "rectilinear":
        evaluate = straightness_rectilinear
    elif kind == "radial":
        if radii_count is None:
            raise ValueError("radial curves need a radii_count")
        evaluate = lambda a: straightness_radial(radii_count, a)  # noqa: E731
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    alphas = alpha_max * np.arange(alpha_steps) / (alpha_steps - 1)
    return list(zip(alphas.tolist(), evaluate(alphas).tolist()))


def dominance_fraction(radii_count: int) -> float:
    """Share of directions in ``[0, pi/4]`` where the radial network wins.

    Uniform grid comparison of the two curves over ``DOMINANCE_SAMPLES``
    directions (ties count as a radial win).  Reported as a diagnostic; the
    crossover claim for small spoke counts holds for the direction-averaged
    curves rather than pointwise.
    """
    alphas = (math.pi / 4.0) * np.arange(DOMINANCE_SAMPLES) / (DOMINANCE_SAMPLES - 1)
    radial = straightness_radial(radii_count, alphas)
    wins = np.count_nonzero(radial >= straightness_rectilinear(alphas))
    return int(wins) / DOMINANCE_SAMPLES
