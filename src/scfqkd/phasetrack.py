"""Phase-reference tracking: drift model, reference counts, phase estimation.

Between signal windows the two parties interleave strong reference pulses
whose relative phase is stepped through 0, pi/2, pi and 3*pi/2.  Detections
are accumulated over a statistics span (180 signal windows, i.e. 12 us at
the equivalent 15 MHz signal rate) and the four totals determine the slowly
drifting interferometer phase for every signal window inside the span.

With slot offsets dtheta_i the expected detection probability in slot i is

    p_T,i(phi) = cos((dtheta_i + phi) / 2) ** 2          (sum over i is 2)

and the observed normalised counts are p_i = 2 * n_i / sum(n).  The phase
estimate minimises sum_i (p_i - p_T,i(phi))**2.  Expanding the square shows
the phi-dependent part is -(A*cos(phi) + B*sin(phi)) with A = p_1 - p_3 and
B = p_4 - p_2 (1-based slot indices), so the exact minimiser is
atan2(B, A); no iterative search is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phasecore import Angle, check

REF_SLOT_OFFSETS = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
"""Programmed phase offsets dtheta_i of the four reference slots."""

DEFAULT_SPAN_WINDOWS = 180
"""Signal windows per statistics span (12 us of 1 us frames, 15 windows each)."""

DEFAULT_DRIFT_RMS_PER_SPAN = 0.073
"""RMS interferometer phase drift in radians accumulated over one span."""

DEFAULT_MEAN_REF_COUNTS = 45.0
"""Mean total reference detections per span, summed over the four slots."""


def drift_scale_per_window(rms_per_span: float = DEFAULT_DRIFT_RMS_PER_SPAN) -> float:
    """Per-window standard deviation of the Gaussian phase random walk.

    The drift is modelled as independent Gaussian increments per signal
    window; a span's ``DEFAULT_SPAN_WINDOWS`` increments add up to the RMS.
    """
    check(rms_per_span=rms_per_span)
    return rms_per_span / math.sqrt(DEFAULT_SPAN_WINDOWS)


def slot_probabilities(phase) -> np.ndarray:
    """Expected reference detection probabilities p_T,i for a given phase.

    Returns an array with a trailing axis of length 4; the four entries sum
    to 2 for every phase.  Broadcasting over an array of phases appends the
    slot axis last.
    """
    # cos((dtheta_i + phi) / 2)**2 = (1 + cos(dtheta_i + phi)) / 2, and the
    # offsets make cos(dtheta_i + phi) cos phi, -sin phi, -cos phi, sin phi.
    phi = np.asarray(phase, dtype=float)[..., np.newaxis]
    c, s = np.cos(phi), np.sin(phi)
    return 0.5 * (1.0 + np.concatenate((c, -s, -c, s), axis=-1))


def estimate_phase(counts) -> Angle:
    """Least-squares phase estimate from the four reference slot counts.

    ``counts`` is a sequence of four non-negative numbers with positive sum.
    The closed form atan2(p_4 - p_2, p_1 - p_3) is the exact minimiser of
    the residual sum of squares (see module docstring), evaluated by
    :func:`estimate_phase_batch` on the raw counts; the result lies in
    (-pi, pi].  Counts with n_1 = n_3 and n_2 = n_4 return 0.0.
    """
    c = np.asarray(counts, dtype=float)
    if c.shape != (4,):
        raise ValueError(f"expected exactly 4 slot counts, got shape {c.shape}")
    if not np.all(np.isfinite(c)) or np.any(c < 0.0):
        raise ValueError("slot counts must be finite and non-negative")
    if c.sum() <= 0.0:
        raise ValueError("cannot estimate a phase from all-zero reference counts")
    return float(estimate_phase_batch(c[None])[0])


def estimate_phase_batch(counts: np.ndarray) -> np.ndarray:
    """Vectorised :func:`estimate_phase` over rows of an (n, 4) count array.

    A row with n_1 = n_3 and n_2 = n_4, such as one with zero total, yields
    0.0, so the session simulator keeps its span at every threshold.
    """
    c = np.asarray(counts, dtype=float)
    return np.arctan2(c[:, 3] - c[:, 1], c[:, 0] - c[:, 2])


@dataclass(frozen=True)
class ErrorProfile:
    """Monte Carlo summary of the phase-estimation error.

    ``rms_error`` is the RMS of the signed principal-value difference between
    the estimate and the true phase at a random signal window of the span.
    ``induced_qber`` is the mean of sin(err/2)**2, the wrong-port click
    probability this error alone would impose on a perfectly interfering
    both-send window.
    """

    rms_error: float
    induced_qber: float
    n_trials: int


def estimation_error_profile(
    mean_total: float = DEFAULT_MEAN_REF_COUNTS,
    drift_rms_per_span: float = DEFAULT_DRIFT_RMS_PER_SPAN,
    n_trials: int = 10_000,
    seed: int = 0,
) -> ErrorProfile:
    """Profile the end-to-end phase-estimation error by Monte Carlo.

    Each trial simulates one span of ``DEFAULT_SPAN_WINDOWS`` windows: the
    phase starts uniform, performs its per-window random walk, reference
    counts are drawn at the span-mean phase, and the estimate is compared
    against the true phase at a uniformly chosen signal window of the span.
    """
    check(mean_total=mean_total, drift_rms_per_span=drift_rms_per_span, n_trials=n_trials)
    rng = np.random.default_rng(seed)
    scale = drift_scale_per_window(drift_rms_per_span)
    phi0 = rng.uniform(-math.pi, math.pi, size=n_trials)
    steps = scale * rng.standard_normal((n_trials, DEFAULT_SPAN_WINDOWS))
    phases = phi0[:, np.newaxis] + np.cumsum(steps, axis=1)
    span_mean = phases.mean(axis=1)
    counts = rng.poisson(0.5 * mean_total * slot_probabilities(span_mean))
    est = estimate_phase_batch(counts)
    window = rng.integers(0, DEFAULT_SPAN_WINDOWS, size=n_trials)
    truth = phases[np.arange(n_trials), window]
    diff = np.remainder(est - truth + math.pi, 2.0 * math.pi) - math.pi
    return ErrorProfile(
        rms_error=float(np.sqrt(np.mean(diff**2))),
        induced_qber=float(np.mean(np.sin(0.5 * diff) ** 2)),
        n_trials=n_trials,
    )
