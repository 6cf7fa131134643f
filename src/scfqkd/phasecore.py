"""Shared phase and information-theory primitives.

Conventions used across the package:

* Angles are plain floats in radians.  Phase differences accumulate without
  bound during a session, so any quantity compared against a post-selection
  threshold must first be reduced with :func:`minor_angle`.
* The "minor angle" of x is the magnitude of x reduced to the principal
  interval, i.e. the angular distance between x and the nearest multiple of
  2*pi.  It lies in [0, pi].
* Interference is modelled on a lossless symmetric beam splitter.  Port
  intensities always sum to the input intensity; imperfect mode overlap is
  captured by a single visibility factor in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

Angle = float
"""Type alias for angles in radians."""

_TWO_PI = 2.0 * math.pi

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PortIntensities:
    """Mean photon numbers leaving the two output ports of the interferometer.

    ``left`` is the port that is bright when the phase difference vanishes;
    ``right`` is dark at zero phase difference.  Values are per-window mean
    photon numbers, not probabilities.
    """

    left: ArrayLike
    right: ArrayLike

    @property
    def total(self) -> ArrayLike:
        return self.left + self.right


def minor_angle(x: ArrayLike) -> ArrayLike:
    """Reduce an angle to its magnitude in the principal interval [0, pi].

    The result is the angular distance between ``x`` and the nearest multiple
    of 2*pi, which is what a phase post-selection threshold is compared
    against.  Accepts a scalar or an ndarray; NaN or infinite input is
    rejected.

    >>> round(minor_angle(-15 * math.pi / 8), 12) == round(math.pi / 8, 12)
    True
    """
    if isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x)):
            raise ValueError("minor_angle requires finite input")
        # fmod and the reflection 2*pi - r (Sterbenz) are exact, so the
        # result equals the scalar path bit for bit.
        r = np.fmod(np.abs(x), _TWO_PI)
        return np.where(r > math.pi, _TWO_PI - r, r)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("minor_angle requires finite input")
    return abs(math.remainder(x, _TWO_PI))


def binary_entropy(x: ArrayLike) -> ArrayLike:
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0.

    Accepts a scalar or an ndarray; raises ValueError for a value outside
    [0, 1].  Both paths evaluate the same formula with numpy's log2, so a
    scalar and an array element give the same float.
    """
    if isinstance(x, np.ndarray):
        inside = (x >= 0.0) & (x <= 1.0)
        if not inside.all():
            raise ValueError(
                f"binary_entropy argument must lie in [0, 1], got {x[~inside][0].item()!r}"
            )
        # At x = 0 or 1 the log of the smallest float, times 0, gives H = 0.
        tiny = 5e-324
        return -x * np.log2(np.fmax(x, tiny)) - (1.0 - x) * np.log2(np.fmax(1.0 - x, tiny))
    x = float(x)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def interfere(
    intensity_a: ArrayLike,
    intensity_b: ArrayLike,
    phase_diff: ArrayLike,
    visibility: ArrayLike = 1.0,
) -> PortIntensities:
    """Combine two weak coherent pulses on a symmetric beam splitter.

    ``intensity_a`` and ``intensity_b`` are the mean photon numbers arriving
    at the splitter from the two arms and ``phase_diff`` is their optical
    phase difference in radians.  The cross term is scaled by ``visibility``
    so that reduced mode overlap degrades the interference contrast without
    changing the total intensity:

        left  = (Ia + Ib + 2*sqrt(Ia*Ib)*v*cos(phase_diff)) / 2
        right = (Ia + Ib - 2*sqrt(Ia*Ib)*v*cos(phase_diff)) / 2

    Both outputs are non-negative for any visibility in [0, 1] and their sum
    equals ``intensity_a + intensity_b`` identically.  Scalar and ndarray
    arguments broadcast in the usual numpy way; ``visibility`` may be an
    ndarray too, such as one value per batch row with shape (rows, 1).
    """
    if isinstance(visibility, np.ndarray):
        inside = (visibility >= 0.0) & (visibility <= 1.0)
        if not inside.all():
            raise ValueError(f"visibility must lie in [0, 1], got {visibility[~inside][0].item()!r}")
    elif not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    a = np.asarray(intensity_a, dtype=float)
    b = np.asarray(intensity_b, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0) or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("intensities must be finite and non-negative")
    cross = np.sqrt(a * b) * visibility * np.cos(phase_diff)
    half = 0.5 * (a + b)
    left = half + cross
    right = half - cross
    if a.ndim == 0 and b.ndim == 0 and np.ndim(left) == 0:
        return PortIntensities(float(left), float(right))
    return PortIntensities(left, right)
