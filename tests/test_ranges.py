"""The one range-rule table, :data:`scfqkd.phasecore.RANGES`, at every site
that checks a number through :func:`scfqkd.phasecore.check`: each refusal
reads ``<name> must <rule>, got <value>``."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scfqkd import defaults, keyrate, phasecore, phasetrack
from scfqkd.channelsim import ChannelModel, ProtocolParams, arm_transmittance, expected_tallies, simulate_session
from scfqkd.estimator import key_length, key_rate
from scfqkd.phasecore import binary_entropy, check, interfere, minor_angle

P, M = ProtocolParams(), ChannelModel()


def _batch(**row):
    """A 2-row expected-value batch whose second row takes ``row``."""
    rows = {name: np.array([[getattr(P, name)], [value]]) for name, value in row.items()}
    return keyrate.analyze_expected_batch(replace(P, **rows), M, 1e12)


@pytest.mark.parametrize("call, bad, message", [
    (minor_angle, math.nan, "minor_angle argument must be finite, got nan"),
    (minor_angle, "1.0", "minor_angle argument must be finite, got '1.0'"),
    (lambda x: minor_angle(np.array([0.5, x])), -math.inf, "minor_angle argument must be finite, got -inf"),
    (binary_entropy, math.nan, "binary_entropy argument must lie in [0, 1], got nan"),
    (binary_entropy, None, "binary_entropy argument must lie in [0, 1], got None"),
    (lambda x: binary_entropy(np.array([0.5, x])), 1.5, "binary_entropy argument must lie in [0, 1], got 1.5"),
    (lambda v: interfere(1.0, 0.5, 0.0, visibility=v), 1.5, "visibility must lie in [0, 1], got 1.5"),
    (lambda v: interfere(1.0, 0.5, 0.0, visibility=v), "1", "visibility must lie in [0, 1], got '1'"),
    (lambda a: interfere(a, 0.5, 0.0), -1.0, "intensity_a must be finite and non-negative, got -1.0"),
    (lambda b: interfere(1.0, np.array([0.5, b]), 0.0), math.inf,
     "intensity_b must be finite and non-negative, got inf"),
    (lambda w: simulate_session(P, M, 1000, 1, workers=w), 2.0, "workers must be a positive integer, got 2.0"),
    (lambda s: simulate_session(P, M, 1000, s), None, "seed must be a non-negative integer, got None"),
    (lambda r: simulate_session(P, M, 1000, 1, mean_ref_counts=r), "45",
     "mean_ref_counts must be finite and non-negative, got '45'"),
    (lambda t: simulate_session(P, M, 1000, 1, thresholds=[0.1, t]), 4.0,
     "thresholds must lie in (0, pi], got 4.0"),
    (lambda n: expected_tallies(P, M, n), math.nan, "n_windows must be finite and positive, got nan"),
    (lambda n: expected_tallies(P, M, n), math.inf, "n_windows must be finite and positive, got inf"),
    (lambda n: expected_tallies(P, M, n), 0.0, "n_windows must be finite and positive, got 0.0"),
    (lambda n: keyrate.analyze_expected(P, M, n), math.nan, "n_windows must be finite and positive, got nan"),
    (lambda n: keyrate.sweep_distance(P, M, [10.0], n_windows=n), math.nan,
     "n_windows must be finite and positive, got nan"),
    (phasetrack.drift_scale_per_window, math.nan, "rms_per_span must be finite and non-negative, got nan"),
    (phasetrack.drift_scale_per_window, -0.1, "rms_per_span must be finite and non-negative, got -0.1"),
    (lambda n: phasetrack.estimation_error_profile(n_trials=n), 0, "n_trials must be a positive integer, got 0"),
    (lambda m: phasetrack.estimation_error_profile(mean_total=m, n_trials=10), -1.0,
     "mean_total must be finite and non-negative, got -1.0"),
    (lambda m: phasetrack.estimation_error_profile(mean_total=m, n_trials=10), math.nan,
     "mean_total must be finite and non-negative, got nan"),
    (lambda r: phasetrack.estimation_error_profile(drift_rms_per_span=r, n_trials=10), -1.0,
     "drift_rms_per_span must be finite and non-negative, got -1.0"),
    (lambda n: key_rate(1.0, n), 0.0, "n_total_pulses must be positive, got 0.0"),
    (lambda n: key_rate(np.array([1.0, 2.0]), np.array([1e6, n])), -1.0,
     "n_total_pulses must be positive, got -1.0"),
    (lambda n: key_length(n, 0.1, 1e5, 0.02, 1.1), -1.0, "n_z must be non-negative, got -1.0"),
    (lambda n: key_length(1e6, 0.1, np.array([1e5, n]), 0.02, 1.1), -2.0, "n_v must be non-negative, got -2.0"),
    (lambda f: key_length(1e6, 0.1, 1e5, 0.02, f), 0.5, "f_ec must be finite and at least 1, got 0.5"),
    (lambda f: key_length(1e6, 0.1, 1e5, 0.02, f), math.inf, "f_ec must be finite and at least 1, got inf"),
    (lambda km: arm_transmittance(replace(M, fiber_km_a=km), "a"), -10.0,
     "fiber_km_a must be finite and non-negative, got -10.0"),
    (lambda km: keyrate.analyze_expected_batch(P, replace(M, fiber_km_b=np.array([[25.0], [km]])), 1e12),
     math.nan, "fiber_km_b must be finite and non-negative, got nan"),
    (lambda mu: _batch(mu=mu), math.nan, "mu must be finite and non-negative, got nan"),
    (lambda e: _batch(epsilon=e), -0.5, "epsilon must lie in [0, 1], got -0.5"),
    (lambda d: _batch(delta_threshold=d), 0.0, "delta_threshold must lie in (0, pi], got 0.0"),
    (lambda q: keyrate.calibrate_visibility(P, M, q), 0.5, "target_qber must lie in (0, 0.5), got 0.5"),
    (lambda q: keyrate.calibrate_visibility(P, M, q), "0.1", "target_qber must lie in (0, 0.5), got '0.1'"),
    (lambda t: keyrate.calibrate_visibility(P, M, 0.05, t), math.inf, "tol must be finite and positive, got inf"),
    (lambda d: keyrate.sweep_distance(P, M, [10.0, d]), math.nan,
     "distance must be finite and non-negative, got nan"),
    (lambda d: keyrate.sweep_distance(P, M, [d]), -1, "distance must be finite and non-negative, got -1"),
    (defaults.reference_model, math.nan, "total_km must be finite and non-negative, got nan"),
    (defaults.reference_model, math.inf, "total_km must be finite and non-negative, got inf"),
    (defaults.reference_model, None, "total_km must be finite and non-negative, got None"),
    (lambda f: ProtocolParams(f_ec=f), math.inf, "f_ec must be finite and at least 1, got inf"),
    (lambda km: ChannelModel(fiber_km_b=km), math.inf, "fiber_km_b must be finite and non-negative, got inf"),
])
def test_every_check_site_words_its_refusal_through_the_table(call, bad, message):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == message


def test_every_rule_refuses_nan_except_the_two_that_mean_unknown():
    for name, (rule, ok) in phasecore.RANGES.items():
        if name in ("n_total_pulses", "n_z", "n_v"):
            check(**{name: math.nan})
            continue
        with pytest.raises(ValueError) as exc:
            check(**{name: math.nan})
        assert str(exc.value) == f"{name} must {rule}, got nan"
        assert not ok(np.array([math.nan])).any()


def test_key_rate_of_an_unknown_total_is_nan():
    assert math.isnan(key_rate(1.0, math.nan))


def test_nan_pools_of_a_failed_batch_row_reach_key_length():
    """A row whose test set lacks a state has NaN pools; the batch marks it
    failed instead of refusing them."""
    batch = _batch(epsilon=0.0)
    assert batch.failed.tolist() == [False, True]
    assert math.isnan(batch.values["n_tilde_z"][1])
    assert math.isnan(key_length(np.array([1e6, math.nan]), 0.1, 1e5, 0.02, 1.1)[1])


@pytest.mark.parametrize("dataclass, name", [(P, "mu"), (M, "visibility")])
@pytest.mark.parametrize("shape", [(67,), (3,)])
def test_a_batch_field_not_of_shape_s_plus_1_is_refused_by_name(dataclass, name, shape):
    """A field of shape (67,) would broadcast against the 67 click windows
    of the model, each window taking another configuration's value."""
    with pytest.raises(ValueError) as exc:
        replace(dataclass, **{name: np.full(shape, 0.5)})
    assert str(exc.value) == f"{name} must be a scalar or of shape S + (1,), got shape {shape}"


@pytest.mark.parametrize("shape", [(), (1,), (3, 1), (2, 3, 1)])
def test_a_batch_field_of_shape_s_plus_1_is_accepted(shape):
    replace(P, mu=np.full(shape, 0.002))
    replace(M, visibility=np.full(shape, 0.9))
