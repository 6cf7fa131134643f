import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from scfqkd import dataio, defaults
from scfqkd.channelsim import ChannelModel, ProtocolParams, expected_tallies
from scfqkd.estimator import EstimationError, TallySet, qber_both_send, tallies_to_sets
from scfqkd.keyrate import (
    analyze_expected,
    analyze_tallies,
    calibrate_visibility,
    key_length,
    key_rate,
    model_both_send_qber,
    optimize_params,
    sweep_distance,
)

mp.mp.dps = 50


def mp_entropy(x):
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def mp_key_length(n_z, e_ph, n_v, e_v, f):
    return mp.mpf(n_z) * (1 - mp_entropy(e_ph)) - mp.mpf(f) * mp.mpf(n_v) * mp_entropy(e_v)


def test_key_length_reference_operating_point():
    n_f = key_length(2_207_341, 0.191, 2_248_625, 0.0212, 1.1)
    assert n_f == pytest.approx(289_900, rel=0.03)


def test_key_length_degenerate_cases():
    # maximal phase error wipes out the raw pool entirely
    assert key_length(1000, 0.5, 10, 0.0, 1.1) <= 0.0
    assert key_length(1000, 0.0, 500, 0.0, 1.1) == pytest.approx(1000.0)


def test_key_length_against_high_precision():
    rng = np.random.default_rng(300)
    for _ in range(100):
        n_z = rng.uniform(1e3, 1e7)
        e_ph = rng.uniform(0.0, 0.45)
        n_v = rng.uniform(1e3, 1e7)
        e_v = rng.uniform(0.0, 0.4)
        f = rng.uniform(1.0, 1.2)
        got = key_length(n_z, e_ph, n_v, e_v, f)
        want = float(mp_key_length(n_z, e_ph, n_v, e_v, f))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-6)


def test_key_length_monotone_in_error_rates():
    grid = np.linspace(0.0, 0.49, 60)
    vals = [key_length(1e6, e, 1e6, 0.02, 1.1) for e in grid]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    vals = [key_length(1e6, 0.19, 1e6, e, 1.1) for e in grid]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_key_rate_clamps_and_scales():
    assert key_rate(-5.0, 100.0) == 0.0
    assert key_rate(0.0, 100.0) == 0.0
    assert key_rate(50.0, 100.0) == pytest.approx(0.5)
    assert key_rate(289_900, 6.0396e11) == pytest.approx(4.80e-7, rel=2e-3)
    with pytest.raises(ValueError):
        key_rate(1.0, 0.0)


def test_analyze_tallies_reference_dataset():
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(),
                          n_total_pulses=raw.n_total_pulses,
                          delta_threshold=raw.delta_threshold)
    assert rep.n_v == 2_248_625
    assert rep.s_tilde_z == pytest.approx(2.77e-4, rel=0.01)
    assert rep.rate_per_pulse == pytest.approx(rep.n_f / raw.n_total_pulses)
    assert not rep.e_ph_flagged
    assert rep.n_total_pulses == 603_960_200_000


def test_analyze_tallies_requires_yield():
    sent = {"00": 1000, "01": 1000, "10": 1000, "11": 1000}
    zeros = {(s, d): 0 for s in sent for d in ("L", "R")}
    u = TallySet(sent=sent, detected=zeros)
    v = TallySet(sent=sent, detected=dict(zeros))
    with pytest.raises(EstimationError):
        analyze_tallies(u, v, defaults.reference_params())


def test_analyze_tallies_clamps_entropy_argument():
    # sparse left-heavy counts drive the raw bound negative; the report keeps
    # the raw value while the key-length evaluation clamps it
    sent = {"00": 10_000_000, "01": 500_000, "10": 500_000, "11": 10_000}
    det = {(s, d): 0 for s in sent for d in ("L", "R")}
    det[("01", "L")] = 70
    det[("01", "R")] = 70
    det[("10", "L")] = 70
    det[("10", "R")] = 70
    det[("11", "L")] = 40
    u = TallySet(sent=sent, detected=det)
    v = TallySet(sent=sent, detected=dict(det))
    rep = analyze_tallies(u, v, defaults.reference_params())
    assert rep.e_ph_upper < 0.0
    assert rep.n_f >= 0.0
    assert math.isfinite(rep.n_f_raw)


def test_analyze_expected_deterministic():
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), drift_rad_per_window=0.0)
    a = analyze_expected(params, model, 1e12)
    b = analyze_expected(params, model, 1e12)
    assert a.e_ph_upper == b.e_ph_upper
    assert a.e_v == b.e_v
    assert a.rate_per_pulse == b.rate_per_pulse


def test_model_both_send_qber_monotone_in_visibility():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    qs = [model_both_send_qber(params, replace(model, visibility=v))
          for v in (0.0, 0.5, 0.9, 1.0)]
    assert all(b < a for a, b in zip(qs, qs[1:]))
    assert qs[0] == pytest.approx(0.5, abs=0.01)


def test_calibrate_visibility_hits_target():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    target = defaults.REFERENCE_BOTH_SEND_QBER
    vis = calibrate_visibility(params, model, target)
    assert 0.85 < vis < 0.99
    achieved = model_both_send_qber(params, replace(model, visibility=vis))
    assert achieved == pytest.approx(target, abs=1e-8)


def test_calibrate_visibility_saturates():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    assert calibrate_visibility(params, model, 1e-6) == 1.0
    with pytest.raises(ValueError):
        calibrate_visibility(params, model, 0.6)


def test_sweep_distance_shape_and_monotonicity():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    pts = sweep_distance(params, model, [0.0, 50.0, 80.0], n_windows=1e12,
                         target_qber=defaults.REFERENCE_BOTH_SEND_QBER)
    assert [p.distance_km for p in pts] == [0.0, 50.0, 80.0]
    assert pts[0].rate_per_pulse > pts[1].rate_per_pulse > pts[2].rate_per_pulse
    assert pts[2].rate_per_pulse > 0.0
    assert pts[1].report.e_v == pytest.approx(0.0212, abs=0.005)


def test_sweep_distance_is_deterministic():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    a = sweep_distance(params, model, [10.0, 30.0], n_windows=1e10)
    b = sweep_distance(params, model, [10.0, 30.0], n_windows=1e10)
    assert [p.rate_per_pulse for p in a] == [p.rate_per_pulse for p in b]


def test_optimizer_dominates_reference_point():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    base = analyze_expected(params, model, 1e12).rate_per_pulse
    res = optimize_params(model, params, grid=5, refine_rounds=4)
    assert res.rate_per_pulse >= base
    assert res.evaluations > 0
    lo_mu, hi_mu = 2e-4, 2e-2
    assert lo_mu <= res.params.mu <= hi_mu


def test_optimizer_refinement_is_locally_flat():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    res = optimize_params(model, params, grid=5, refine_rounds=6)
    best = res.params
    # nudging each coordinate by 2% must not improve the rate by more than 1%
    for field, span in (("mu", 0.02), ("epsilon", 0.02)):
        for sign in (-1, 1):
            trial = replace(best, **{field: getattr(best, field) * (1 + sign * span)})
            r = analyze_expected(trial, model, 1e12).rate_per_pulse
            assert r <= res.rate_per_pulse * 1.01


def test_optimizer_best_delta_on_coarse_grid():
    """Over the recorded threshold grid the calibrated model peaks at 30 deg."""
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    vis = calibrate_visibility(params, model, defaults.REFERENCE_BOTH_SEND_QBER)
    mcal = replace(model, visibility=vis)
    rates = {}
    for deg in (2, 5, 8, 10, 12, 15, 30, 45):
        rep = analyze_expected(params, mcal, 1e12, delta_threshold=math.radians(deg))
        rates[deg] = rep.rate_per_pulse
    best = max(rates, key=rates.get)
    assert best in (30, 45)


def test_optimizer_default_search_is_unchanged():
    """Default search at the reference 50 km model: evaluation count and
    optimum pinned to the values before the quadrature nodes were cached."""
    res = optimize_params(defaults.reference_model(50.0), defaults.reference_params())
    assert res.evaluations == 553
    assert res.params.mu == pytest.approx(0.003423099290778052, rel=1e-12)
    assert res.params.epsilon == pytest.approx(0.025616629464285712, rel=1e-12)
    assert res.params.delta_threshold == pytest.approx(0.5597000800666339, rel=1e-12)


@pytest.mark.parametrize("deg", [2.0, 30.0, 90.0])
def test_model_both_send_qber_matches_expected_tallies(deg):
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), visibility=0.93)
    thr = math.radians(deg)
    u, v = tallies_to_sets(expected_tallies(params, model, 1e12, thresholds=[thr])[thr])
    assert model_both_send_qber(params, model, thr) == pytest.approx(
        qber_both_send(u, v).qber, rel=1e-13)


def test_model_both_send_qber_without_detections_fails():
    params = ProtocolParams(mu=0.0)
    with pytest.raises(ValueError):
        model_both_send_qber(params, ChannelModel(dark_prob=0.0))
    with pytest.raises(ValueError):
        model_both_send_qber(defaults.reference_params(), ChannelModel(), 0.0)
