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
* Every range-checked number of the package, a parameter field or a
  function argument, has one rule in :data:`RANGES`, which :func:`check`
  applies.  A refusal is a ValueError reading ``<name> must <rule>, got
  <value>``, and the command line reads that name to name a flag or a
  config key.
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

RANGES = {
    "f_ec": ("be finite and at least 1", lambda v: (1.0 <= v) & (v < math.inf)),
    "dark_prob": ("lie in [0, 1)", lambda v: (0.0 <= v) & (v < 1.0)),
    "target_qber": ("lie in (0, 0.5)", lambda v: (0.0 < v) & (v < 0.5)),
    "seed": ("be a non-negative integer", lambda v: isinstance(v, (int, np.integer)) & (v >= 0)),
    "minor_angle argument": ("be finite", lambda v: abs(v) < math.inf),
    # NaN passes these two rules: an unknown total, the pools of a failed batch row.
    "n_total_pulses": ("be positive", lambda v: (v > 0.0) | (v != v)),
    **dict.fromkeys(("n_z", "n_v"), ("be non-negative", lambda v: (v >= 0.0) | (v != v))),
    **dict.fromkeys(("delta_threshold", "thresholds"),
                    ("lie in (0, pi]", lambda v: (0.0 < v) & (v <= math.pi))),
    "delta_deg": ("lie in (0, 180] degrees", lambda v: (0.0 < v) & (v <= 180.0)),
    **dict.fromkeys(("mu", "mean_total", "fiber_km_a", "fiber_km_b", "atten_db_per_km",
                     "comp_loss_db_a", "comp_loss_db_b", "drift_rad_per_window", "total_km", "distance",
                     "rms_per_span", "drift_rms_per_span", "intensity_a", "intensity_b"),
                    ("be finite and non-negative", lambda v: (0.0 <= v) & (v < math.inf))),
    **dict.fromkeys(("epsilon", "p_t", "det_eff_left", "det_eff_right", "visibility",
                     "binary_entropy argument"), ("lie in [0, 1]", lambda v: (0.0 <= v) & (v <= 1.0))),
    "n_windows": ("be finite and positive", lambda v: (0.0 < v) & (v < math.inf)),
    **dict.fromkeys(("workers", "n_trials"),
                    ("be a positive integer", lambda v: isinstance(v, (int, np.integer)) & (v >= 1))),
}
"""Range rules by name, each (its wording in a refusal, its test), of every
parameter field, extra threshold and argument the package checks.  A test
holds for a Python scalar or elementwise for an array."""


def check(**values) -> None:
    """Apply the rule of :data:`RANGES` that each keyword names to its
    value, a Python scalar (without numpy) or an ndarray (elementwise); a
    scalar the rule cannot compare, such as a string or None, breaks it.
    The first value that breaks its rule raises ValueError."""
    for name, value in values.items():
        rule, ok = RANGES[name]
        try:
            good = ok(value)
        except TypeError:
            good = False
        # A Python scalar's test gives a bool, the others a numpy bool or array.
        if good is True or good is not False and good.all():
            continue
        if isinstance(value, np.ndarray):
            value = value[~good].flat[0]
        if isinstance(value, np.generic):
            value = value.item()
        raise ValueError(f"{name} must {rule}, got {value!r}")


def broken_bounds_rule(name: str, lo, hi) -> str | None:
    """The rule a search range (lo, hi) breaks, or None: 0 < lo < hi within the :data:`RANGES` rule ``name``."""
    rule, ok = RANGES[name]
    if not 0 < lo < hi:
        return "satisfy 0 < lo < hi"
    return None if ok(lo) and ok(hi) else rule


def check_fields(self) -> None:
    """A parameter dataclass's ``__post_init__``: refuse an array field of
    a shape other than a batch field's S + (1,), then :func:`check` each."""
    for name, value in vars(self).items():
        if getattr(value, "shape", ())[-1:] not in ((), (1,)):
            raise ValueError(f"{name} must be a scalar or of shape S + (1,), got shape {value.shape}")
    check(**vars(self))


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
    check(**{"minor_angle argument": x})
    if isinstance(x, np.ndarray):
        # fmod and the reflection 2*pi - r (Sterbenz) are exact, so the
        # result equals the scalar path bit for bit.
        r = np.fmod(np.abs(x), _TWO_PI)
        return np.where(r > math.pi, _TWO_PI - r, r)
    return abs(math.remainder(float(x), _TWO_PI))


def binary_entropy(x: ArrayLike) -> ArrayLike:
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0.

    Accepts a scalar or an ndarray; raises ValueError for a value outside
    [0, 1].  Both paths evaluate the same formula with numpy's log2, so a
    scalar and an array element give the same float.
    """
    check(**{"binary_entropy argument": x})
    if isinstance(x, np.ndarray):
        # At x = 0 or 1 the log of the smallest float, times 0, gives H = 0;
        # 0.0 - makes that 0.0 at x = -0.0 too, as the scalar path returns.
        tiny = 5e-324
        return 0.0 - x * np.log2(np.fmax(x, tiny)) - (1.0 - x) * np.log2(np.fmax(1.0 - x, tiny))
    x = float(x)
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
    ndarray too, such as one value per configuration of a batch, with
    shape S + (1,) against the windows on the last axis.
    """
    a = np.asarray(intensity_a, dtype=float)
    b = np.asarray(intensity_b, dtype=float)
    check(visibility=visibility, intensity_a=a, intensity_b=b)
    cross = np.sqrt(a * b) * visibility * np.cos(phase_diff)
    half = 0.5 * (a + b)
    left = half + cross
    right = half - cross
    if a.ndim == 0 and b.ndim == 0 and np.ndim(left) == 0:
        return PortIntensities(float(left), float(right))
    return PortIntensities(left, right)
