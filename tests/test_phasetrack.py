import math

import mpmath as mp
import numpy as np
import pytest

from scfqkd.phasecore import minor_angle
from scfqkd.phasetrack import (
    DEFAULT_DRIFT_RMS_PER_SPAN,
    DEFAULT_MEAN_REF_COUNTS,
    REF_SLOT_OFFSETS,
    drift_scale_per_window,
    estimate_phase,
    estimate_phase_batch,
    estimation_error_profile,
    slot_probabilities,
)


def grid_minimizer(counts, step_deg=0.01):
    """Independent oracle: brute-force least squares over a phase grid.

    Scans [0, 360) degrees in steps of ``step_deg`` and returns the phase
    minimising the squared residual between normalised counts and the slot
    transmission model.  Deliberately does not share code with the
    closed-form estimator.
    """
    counts = np.asarray(counts, dtype=float)
    probs = 2.0 * counts / counts.sum()
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    model = np.cos((REF_SLOT_OFFSETS[None, :] + phis[:, None]) / 2.0) ** 2
    err = ((probs[None, :] - model) ** 2).sum(axis=1)
    return phis[int(np.argmin(err))]


def circ_diff(a, b):
    return float(np.remainder(a - b + math.pi, 2 * math.pi) - math.pi)


def test_slot_probabilities_sum_is_two():
    rng = np.random.default_rng(0)
    for phi in rng.uniform(-10, 10, size=100):
        p = slot_probabilities(phi)
        assert p.shape == (4,)
        assert p.sum() == pytest.approx(2.0, rel=1e-12)


def test_slot_probabilities_match_the_cos_squared_form():
    """Over [-20 pi, 20 pi] each slot mean lies within 1e-15 of
    cos((dtheta_i + phi) / 2)**2, evaluated exactly at the float phi, and the
    four sum to 2 within 1e-15; a batch of phases gives each phase's row."""
    phis = np.linspace(-20 * math.pi, 20 * math.pi, 801)
    got = slot_probabilities(phis)
    assert got.shape == (801, 4)
    with mp.workdps(40):
        for phi, row in zip(phis.tolist(), got):
            want = [mp.cos((k * mp.pi / 2 + mp.mpf(phi)) / 2) ** 2 for k in range(4)]
            assert max(abs(mp.mpf(float(x)) - w) for x, w in zip(row, want)) <= 1e-15
            assert abs(row.sum() - 2.0) <= 1e-15
            np.testing.assert_array_equal(slot_probabilities(phi), row)


def test_slot_probabilities_at_zero():
    np.testing.assert_allclose(slot_probabilities(0.0), [1.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_slot_probabilities_at_half_pi():
    np.testing.assert_allclose(
        slot_probabilities(math.pi / 2), [0.5, 0.0, 0.5, 1.0], atol=1e-15
    )


def test_estimate_phase_known_patterns():
    assert estimate_phase(np.array([2.0, 1.0, 0.0, 1.0])) == pytest.approx(0.0)
    assert estimate_phase(np.array([1.0, 0.0, 1.0, 2.0])) == pytest.approx(math.pi / 2)
    # proportionality: scale must not matter
    assert estimate_phase(np.array([20, 10, 0, 10])) == pytest.approx(0.0)


def test_estimate_phase_exact_on_noiseless_counts():
    for phi in np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 37):
        counts = 100.0 * slot_probabilities(phi)
        est = estimate_phase(counts)
        assert abs(circ_diff(est, phi)) < 1e-12


def test_estimate_phase_matches_grid_oracle():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(60):
        phi = rng.uniform(0, 2 * math.pi)
        counts = rng.poisson(0.5 * 45.0 * slot_probabilities(phi)).astype(float)
        if counts.sum() == 0:
            continue
        est = estimate_phase(counts)
        ref = grid_minimizer(counts)
        worst = max(worst, abs(circ_diff(est, ref)))
    assert worst < math.radians(0.02)


def test_estimate_phase_batch_matches_scalar():
    rng = np.random.default_rng(5)
    counts = rng.poisson(20.0, size=(50, 4)).astype(float)
    counts[17] = 0.0  # degenerate row maps to 0.0
    batch = estimate_phase_batch(counts)
    for i in range(50):
        if counts[i].sum() == 0:
            assert batch[i] == 0.0
        else:
            assert batch[i] == pytest.approx(estimate_phase(counts[i]))


def test_estimate_phase_validation():
    with pytest.raises(ValueError):
        estimate_phase(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        estimate_phase(np.array([1.0, -2.0, 3.0, 1.0]))
    with pytest.raises(ValueError):
        estimate_phase(np.zeros(4))
    with pytest.raises(ValueError):
        estimate_phase(np.array([1.0, np.nan, 3.0, 1.0]))


def test_fit_error_minimal_at_estimate():
    """estimate_phase minimises the residual sum of squares between the
    normalised counts and the slot model."""

    def fit_error(counts, phase):
        return np.sum((2.0 * counts / counts.sum() - slot_probabilities(phase)) ** 2)

    rng = np.random.default_rng(13)
    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        counts = rng.poisson(0.5 * 200.0 * slot_probabilities(phi)).astype(float)
        est = estimate_phase(counts)
        e0 = fit_error(counts, est)
        for off in (-0.3, -0.05, 0.05, 0.3):
            assert fit_error(counts, est + off) >= e0 - 1e-12


def test_drift_scale_per_window():
    assert drift_scale_per_window() == pytest.approx(0.073 / math.sqrt(180))
    assert drift_scale_per_window(0.0) == 0.0


def test_error_profile_vanishes_without_noise():
    prof = estimation_error_profile(
        mean_total=1e7, drift_rms_per_span=0.0, n_trials=200, seed=4
    )
    assert prof.rms_error < 1e-3
    assert prof.induced_qber < 1e-6


def test_error_profile_at_experiment_settings():
    prof = estimation_error_profile(
        mean_total=DEFAULT_MEAN_REF_COUNTS,
        drift_rms_per_span=DEFAULT_DRIFT_RMS_PER_SPAN,
        n_trials=4000,
        seed=8,
    )
    assert prof.n_trials == 4000
    assert 0.0 < prof.rms_error < 0.5
    assert prof.induced_qber < 0.035


def test_minor_angle_keeps_estimates_in_range():
    rng = np.random.default_rng(6)
    counts = rng.poisson(15.0, size=(30, 4)).astype(float)
    counts[counts.sum(axis=1) == 0] = 1.0
    est = estimate_phase_batch(counts)
    assert np.all(minor_angle(est) <= math.pi)
