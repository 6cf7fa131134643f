import logging
import math
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest

from scfqkd import channelsim, dataio, defaults, keyrate
from scfqkd.channelsim import ChannelModel, ProtocolParams, expected_tallies
from scfqkd.estimator import (
    EstimationError,
    KeyRateReport,
    qber_both_send,
    tallies_to_sets,
)
from scfqkd.keyrate import (
    analyze_expected,
    analyze_expected_batch,
    analyze_tallies,
    calibrate_visibility,
    key_length,
    key_rate,
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
    u = np.array([[1000, 0, 0]] * 4)
    with pytest.raises(EstimationError, match="mismatched-send yield is zero"):
        analyze_tallies(u, u, defaults.reference_params())


def test_analyze_tallies_clamps_entropy_argument():
    # sparse left-heavy counts drive the raw bound negative; the report keeps
    # the raw value while the key-length evaluation clamps it
    u = np.array([
        [10_000_000, 0, 0], [500_000, 70, 70], [500_000, 70, 70], [10_000, 40, 0]
    ])
    rep = analyze_tallies(u, u, defaults.reference_params())
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


def model_both_send_qber(params, model, delta_threshold=None):
    """Wrong-port fraction of the model's kept both-send key windows, read
    from the expected tallies' key cells of state 11."""
    thr = params.delta_threshold if delta_threshold is None else delta_threshold
    key = expected_tallies(params, model, 1e12, thresholds=[thr])[thr].detected_key
    return key[("11", 1)] / (key[("11", 0)] + key[("11", 1)])


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


def _bisection_oracle(params, model, target, tol=1e-10):
    """Calibration as plain bisection, one model call per step."""
    if not 0.0 < target < 0.5:
        raise ValueError(f"target_qber must lie in (0, 0.5), got {target!r}")
    lo, hi = 0.0, 1.0
    if model_both_send_qber(params, replace(model, visibility=hi)) >= target:
        return hi
    if model_both_send_qber(params, replace(model, visibility=lo)) <= target:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model_both_send_qber(params, replace(model, visibility=mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _asymmetric_model():
    """Channel 1 detects half as well, so visibility 0 gives a QBER near 1/3."""
    model = defaults.reference_model(50.0)
    return replace(model, det_eff_right=0.5 * model.det_eff_right)


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.3])
def test_calibrate_visibility_equals_bisection(tol):
    params = defaults.reference_params()
    wide = replace(params, delta_threshold=math.radians(90.0))
    cases = [
        (params, defaults.reference_model(d), t)
        for d in (0.0, 50.0, 100.0)
        for t in (1e-6, 0.03, defaults.REFERENCE_BOTH_SEND_QBER, 0.2, 0.45, 0.4999)
    ]
    cases += [(params, _asymmetric_model(), t) for t in (0.2, 0.33, 0.4)]
    cases += [(wide, model, t) for model in (defaults.reference_model(50.0), _asymmetric_model())
              for t in (0.1, 0.3)]
    clamps = set()
    for p, model, t in cases:
        got = calibrate_visibility(p, model, t, tol=tol)
        assert got.hex() == _bisection_oracle(p, model, t, tol=tol).hex()
        if got in (0.0, 1.0):
            clamps.add(got)
    assert clamps == {0.0, 1.0}


def test_calibrate_visibility_without_detections_fails():
    with pytest.raises(ValueError, match="model predicts no both-send detections"):
        calibrate_visibility(ProtocolParams(mu=0.0), ChannelModel(dark_prob=0.0), 0.1)
    with pytest.raises(ValueError, match=r"target_qber must lie in \(0, 0.5\)"):
        calibrate_visibility(ProtocolParams(mu=0.0), ChannelModel(dark_prob=0.0), 0.5)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_calibrate_visibility_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        calibrate_visibility(defaults.reference_params(), defaults.reference_model(50.0),
                             defaults.REFERENCE_BOTH_SEND_QBER, tol=tol)


def test_calibrate_visibility_ends_below_float_spacing(monkeypatch):
    """A tol below the spacing of floats near the answer ends where the
    bracket stops narrowing, after a bounded number of model calls."""
    calls = []
    real = channelsim.click_probabilities

    def limited(*args, **kwargs):
        calls.append(1)
        if len(calls) > 60:
            raise RuntimeError("calibration made more than 60 model calls")
        return real(*args, **kwargs)

    params, model = defaults.reference_params(), defaults.reference_model(50.0)
    target = defaults.REFERENCE_BOTH_SEND_QBER
    coarse = calibrate_visibility(params, model, target)
    monkeypatch.setattr(channelsim, "click_probabilities", limited)
    for tol in (1e-20, 5e-324):
        assert abs(calibrate_visibility(params, model, target, tol=tol) - coarse) <= 1e-10


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_calibrate_visibility_brackets_a_crossing_of_a_non_monotone_qber(monkeypatch, tol):
    """Where the QBER is not monotone, the result still lies within tol of
    a point where it falls from above the target to at or below it."""
    target, crossings = 0.1, (0.3, 0.7)

    def stub(params, model, visibility):
        v = np.asarray(visibility, dtype=float)
        # Above the target on [0, 0.3) and [0.5, 0.7), at or below elsewhere.
        return np.where((v < 0.3) | ((0.5 <= v) & (v < 0.7)), 0.4, 0.01)

    monkeypatch.setattr(keyrate, "_both_send_qber", stub)
    vis = calibrate_visibility(defaults.reference_params(), defaults.reference_model(50.0),
                               target, tol=tol)
    assert min(abs(vis - c) for c in crossings) <= tol


def test_calibrated_sweep_makes_few_model_calls(monkeypatch):
    calls = []
    click = channelsim.click_probabilities
    calibrate = keyrate.calibrate_visibility

    def counting_click(*args, **kwargs):
        calls.append("click")
        return click(*args, **kwargs)

    def marked_calibrate(*args, **kwargs):
        calls.append("start")
        vis = calibrate(*args, **kwargs)
        calls.append("end")
        return vis

    monkeypatch.setattr(channelsim, "click_probabilities", counting_click)
    monkeypatch.setattr(keyrate, "calibrate_visibility", marked_calibrate)
    sweep_distance(defaults.reference_params(), defaults.reference_model(50.0),
                   [0.0, 50.0, 80.0], target_qber=defaults.REFERENCE_BOTH_SEND_QBER)
    assert 0 < calls.index("end") - calls.index("start") - 1 <= 8
    assert calls[calls.index("end") + 1:] == ["click"]


def test_calibrate_visibility_warns_when_target_unreachable(caplog):
    params = defaults.reference_params()
    q_one = model_both_send_qber(params, replace(defaults.reference_model(50.0), visibility=1.0))
    with caplog.at_level(logging.WARNING, logger="scfqkd.keyrate"):
        assert calibrate_visibility(params, defaults.reference_model(50.0), 1e-6) == 1.0
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.name == "scfqkd.keyrate"
    assert "1e-06" in record.getMessage()
    assert f"[{q_one:.6g}, " in record.getMessage()
    assert record.getMessage().endswith("returning visibility 1")

    caplog.clear()
    model = _asymmetric_model()
    q_zero = model_both_send_qber(params, replace(model, visibility=0.0))
    with caplog.at_level(logging.WARNING, logger="scfqkd.keyrate"):
        assert calibrate_visibility(params, model, 0.4) == 0.0
    (record,) = caplog.records
    assert "0.4 " in record.getMessage()
    assert f", {q_zero:.6g}]" in record.getMessage()
    assert record.getMessage().endswith("returning visibility 0")

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="scfqkd.keyrate"):
        calibrate_visibility(params, model, 0.2)
    assert caplog.records == []


def test_negative_phase_flip_bound_logs_a_warning(caplog):
    """The bundled key set with the test set's mismatched-send detections
    thinned to a fifth gives a phase-flip bound below 0."""
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = tallies_to_sets(raw.tallies)
    thinned = np.array(u, dtype=float)
    thinned[1:3, 1:] = np.round(thinned[1:3, 1:] / 5)
    params = defaults.reference_params()
    with caplog.at_level(logging.DEBUG, logger="scfqkd.keyrate"):
        rep = analyze_tallies(thinned, v, params, raw.n_total_pulses)
    assert rep.e_ph_upper < 0.0 and not rep.e_ph_flagged
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (f"phase-flip upper bound {rep.e_ph_upper:.6g} lies below 0; "
                                   "the key length takes e_ph = 0")

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="scfqkd.keyrate"):
        assert analyze_tallies(u, v, params, raw.n_total_pulses).e_ph_upper > 0.0
    assert caplog.records == []


def test_sweep_distance_checks_distances_before_calibrating(monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before checking the distances")

    monkeypatch.setattr(keyrate, "calibrate_visibility", no_calibration)
    with pytest.raises(ValueError, match="distance must be finite and non-negative, got -1.0"):
        sweep_distance(defaults.reference_params(), defaults.reference_model(50.0),
                       [10.0, -1.0], target_qber=defaults.REFERENCE_BOTH_SEND_QBER)


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
    res = optimize_params(model, params)
    assert res.rate_per_pulse >= base
    assert res.evaluations > 0
    lo_mu, hi_mu = 2e-4, 2e-2
    assert lo_mu <= res.params.mu <= hi_mu


def test_optimizer_refinement_is_locally_flat():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    res = optimize_params(model, params)
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
        rep = analyze_expected(replace(params, delta_threshold=math.radians(deg)), mcal, 1e12)
        rates[deg] = rep.rate_per_pulse
    best = max(rates, key=rates.get)
    assert best in (30, 45)


@pytest.mark.parametrize("km, mu, epsilon, delta, rate", [
    (41.7, "0x1.0f48713ea72a6p-8", "0x1.a4e8e30911d8bp-6", "0x1.20f7e58e336c6p-1", "0x1.c799f1984b2c2p-21"),
    (50.0, "0x1.c0ac27027c07dp-9", "0x1.a3b3ee721a54dp-6", "0x1.1e910246e8d82p-1", "0x1.2f02224f7432ep-21"),
    (55.2, "0x1.8d807134b0939p-9", "0x1.a3c8ff1f4e1ddp-6", "0x1.1ca8b733f1628p-1", "0x1.d3c5dbbe87057p-22"),
], ids=["41.7km", "50km", "55.2km"])
def test_optimizer_default_search_is_unchanged(km, mu, epsilon, delta, rate):
    """Default search at the reference model: evaluation count and optimum
    pinned bit for bit, as ``float.hex`` of mu, epsilon, delta and the rate."""
    res = optimize_params(defaults.reference_model(km), defaults.reference_params())
    assert res.evaluations == 553
    assert [res.params.mu.hex(), res.params.epsilon.hex(), res.params.delta_threshold.hex(),
            res.rate_per_pulse.hex()] == [mu, epsilon, delta, rate]


@pytest.mark.parametrize("deg", [2.0, 30.0, 90.0])
def test_model_both_send_qber_matches_expected_tallies(deg):
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), visibility=0.93)
    thr = math.radians(deg)
    u, v = tallies_to_sets(expected_tallies(params, model, 1e12, thresholds=[thr])[thr])
    q = model_both_send_qber(params, model, thr)
    assert q == pytest.approx(qber_both_send(u, v).qber, rel=1e-13)
    calibrated = keyrate._both_send_qber(replace(params, delta_threshold=thr), model, [0.93])
    assert q == pytest.approx(calibrated.item(), rel=1e-13)


def test_model_both_send_qber_without_detections_fails():
    params = ProtocolParams(mu=0.0)
    model = ChannelModel(dark_prob=0.0)
    key = expected_tallies(params, model, 1e12)[params.delta_threshold].detected_key
    assert key[("11", 0)] == key[("11", 1)] == 0.0
    with pytest.raises(ValueError):
        replace(defaults.reference_params(), delta_threshold=0.0)


def _scalar_chain(params, model, n_windows):
    """The reference path: expected tallies, tally sets, scalar estimator."""
    thr = params.delta_threshold
    u, v = tallies_to_sets(expected_tallies(params, model, n_windows, thresholds=[thr])[thr])
    return analyze_tallies(u, v, params, n_total_pulses=n_windows, delta_threshold=thr)


def _assert_equal(got, want, name):
    if isinstance(want, dict):
        assert list(got) == list(want), name
        for key in want:
            _assert_equal(got[key], want[key], f"{name}[{key}]")
    elif want is None or isinstance(want, bool):
        assert got is want, name
    elif math.isnan(want):
        assert math.isnan(got), name
    else:
        assert got == want, name


@pytest.mark.parametrize("p_t", [0.0, 0.1, 1.0])
def test_batched_analysis_matches_scalar_chain_row_by_row(p_t):
    params = replace(defaults.reference_params(), p_t=p_t)
    model = replace(defaults.reference_model(50.0), visibility=0.93)
    rows = [
        (mu, eps, math.radians(deg), dist)
        for mu in (0.0, 2e-4, 3e-3, 2e-2)
        for eps in (0.0, 2e-3, 0.021, 0.2, 1.0)
        for deg in (5.0, 30.0, 90.0, 180.0)
        for dist in (0.0, 50.0, 120.0)
    ]
    mu, eps, delta, dist = np.array(rows).T[:, :, None]
    batch = analyze_expected_batch(
        replace(params, mu=mu, epsilon=eps, delta_threshold=delta),
        replace(model, fiber_km_a=0.5 * dist, fiber_km_b=0.5 * dist), 1e12,
    )
    failed = []
    for i, (m, e, d, km) in enumerate(rows):
        p = replace(params, mu=m, epsilon=e, delta_threshold=d)
        mod = replace(model, fiber_km_a=0.5 * km, fiber_km_b=0.5 * km)
        try:
            want = _scalar_chain(p, mod, 1e12)
        except EstimationError as exc:
            failed.append(i)
            with pytest.raises(EstimationError) as got:
                batch.report(i)
            assert str(got.value) == str(exc)
            continue
        got = batch.report(i)
        for f in fields(KeyRateReport):
            _assert_equal(getattr(got, f.name), getattr(want, f.name), f.name)
    assert np.flatnonzero(batch.failed).tolist() == failed
    assert 0 < len(failed) < len(rows) or p_t == 0.0


@pytest.mark.parametrize("names", [("p_t",), ("f_ec",), ("p_t", "f_ec"), ("drift_rad_per_window",),
                                   ("f_ec", "mu")])
def test_batched_fields_outside_the_clicks_vary_per_row(names):
    """``p_t``, ``f_ec`` and the drift, which no click probability reads,
    vary per row like ``mu``, also when no other field does; each row equals
    the analysis of its configuration.  In the case with ``mu`` the batch
    takes ``f_ec`` as an integer array and ``mu`` as a 0-d array, and its
    rows equal the analyses with float fields."""
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    values = {"p_t": [0.1, 0.3], "f_ec": [1.1, 1.4], "drift_rad_per_window": [0.005, 0.006]}
    if "mu" in names:
        values.update(f_ec=[1, 2], mu=0.003)

    def configuration(pick):
        return (replace(params, **{n: pick(values[n]) for n in names if hasattr(params, n)}),
                replace(model, **{n: pick(values[n]) for n in names if hasattr(model, n)}))

    batch = analyze_expected_batch(
        *configuration(lambda v: np.array(v)[:, None] if isinstance(v, list) else np.array(v)), 1e12)
    reports = [batch.report(i) for i in range(2)]
    assert reports == [analyze_expected(*configuration(lambda v: float(v[i] if isinstance(v, list) else v)), 1e12)
                       for i in range(2)]
    # The model does not read the drift, so only its rows are equal.
    assert (reports[0] == reports[1]) == (names == ("drift_rad_per_window",))


@pytest.mark.parametrize("change", [{"epsilon": 0.0}, {"mu": 0.0}, {"p_t": 0.0}])
def test_sweep_distance_raises_the_scalar_chain_error(change):
    params = replace(defaults.reference_params(), **change)
    model = defaults.reference_model(50.0)
    with pytest.raises(EstimationError) as want:
        _scalar_chain(params, replace(model, fiber_km_a=5.0, fiber_km_b=5.0), 1e12)
    with pytest.raises(EstimationError) as got:
        sweep_distance(params, model, [10.0, 20.0], n_windows=1e12)
    assert str(got.value) == str(want.value)


def test_sweep_distance_matches_single_analyses():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    for pt in sweep_distance(params, model, [0.0, 35.0, 80.0], n_windows=1e12):
        d = pt.distance_km
        want = analyze_expected(params, replace(model, fiber_km_a=0.5 * d, fiber_km_b=0.5 * d), 1e12)
        for f in fields(KeyRateReport):
            _assert_equal(getattr(pt.report, f.name), getattr(want, f.name), f.name)
    assert sweep_distance(params, model, []) == []


def test_calibrated_default_sweep_matches_single_analyses():
    """Each fibre length of a batch row takes Python's pow, as a single
    configuration does, so every report of the calibrated sweep at 0:80:5
    km equals the single analysis at its distance field for field."""
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    target = defaults.REFERENCE_BOTH_SEND_QBER
    vis = calibrate_visibility(params, model, target)
    points = sweep_distance(params, model, [float(d) for d in range(0, 85, 5)], target_qber=target)
    assert len(points) == 17
    for pt in points:
        half = 0.5 * pt.distance_km
        want = analyze_expected(params, replace(model, visibility=vis, fiber_km_a=half, fiber_km_b=half), 1e12)
        for f in fields(KeyRateReport):
            _assert_equal(getattr(pt.report, f.name), getattr(want, f.name), f.name)


@pytest.mark.parametrize(
    "name, bad",
    [("mu", -1e-3), ("mu", math.inf), ("epsilon", 1.5), ("delta_threshold", 0.0), ("delta_threshold", 4.0)],
)
def test_batched_rows_keep_protocol_range_checks(name, bad):
    params = defaults.reference_params()
    with pytest.raises(ValueError) as want:
        replace(params, **{name: bad})
    rows = np.full((3, 1), getattr(params, name))
    rows[1] = bad
    with pytest.raises(ValueError) as got:
        analyze_expected_batch(replace(params, **{name: rows}), defaults.reference_model(50.0), 1e12)
    assert str(got.value) == str(want.value)


def test_default_optimize_batches_click_evaluations(monkeypatch):
    """The clicks of a configuration do not read epsilon, so the coarse grid
    evaluates them for its 49 (mu, delta) pairs and a scan for the values
    of its coordinate, 1 when it scans epsilon."""
    configurations = []
    real = channelsim.click_probabilities

    def counting(*args, **kwargs):
        p_left, p_right = real(*args, **kwargs)
        configurations.append(math.prod(np.shape(p_left)[:-1]))
        return p_left, p_right

    monkeypatch.setattr(channelsim, "click_probabilities", counting)
    res = optimize_params(defaults.reference_model(50.0), defaults.reference_params())
    assert res.evaluations == 553
    # 1 coarse-grid call plus 3 scans per round.
    assert len(configurations) == 31
    assert configurations[:4] == [49, 7, 1, 7]
    assert sum(configurations) == 49 + 10 * (7 + 1 + 7)


@pytest.mark.parametrize("name, bounds", [
    ("mu_bounds", (0.0, 2e-2)),
    ("mu_bounds", (2e-2, 2e-3)),
    ("mu_bounds", (2e-3, math.inf)),
    ("epsilon_bounds", (0.1, 2.0)),
    ("epsilon_bounds", (math.nan, 0.1)),
    ("delta_bounds", (0.5, 0.5)),
    ("delta_bounds", (0.1, 4.0)),
])
def test_optimizer_refuses_bad_bounds_by_name(monkeypatch, name, bounds):
    """A pair that is not 0 < lo < hi within the field's range rule is
    refused by name before any model call."""
    calls = []
    monkeypatch.setattr(keyrate, "analyze_expected_batch", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"^{name} must be \(lo, hi\) with 0 < lo < hi") as got:
        optimize_params(defaults.reference_model(50.0), defaults.reference_params(), **{name: bounds})
    assert str(got.value).endswith(f"got {bounds!r}")
    assert calls == []


def test_batch_rows_are_the_cells_of_the_broadcast_shape():
    """A 2 x 3 x 2 batch over (mu, epsilon, fiber_km_a) has 12 rows, the
    cells of the broadcast shape in C order, each equal to the analysis of
    its configuration field for field."""
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), visibility=0.93)
    mus, epss, fibres = [2e-3, 0.0], [2e-3, 0.021, 0.2], [10.0, 40.0]
    batch = analyze_expected_batch(
        replace(params, mu=np.reshape(mus, (2, 1, 1, 1)), epsilon=np.reshape(epss, (1, 3, 1, 1))),
        replace(model, fiber_km_a=np.reshape(fibres, (1, 1, 2, 1))), 1e12,
    )
    assert batch.failed.shape == (12,)
    cells = [(m, e, f) for m in mus for e in epss for f in fibres]
    for i, (m, e, f) in enumerate(cells):
        configuration = replace(params, mu=m, epsilon=e), replace(model, fiber_km_a=f)
        try:
            want = analyze_expected(*configuration, 1e12)
        except EstimationError as exc:
            assert batch.failed[i]
            with pytest.raises(EstimationError) as got:
                batch.report(i)
            assert str(got.value) == str(exc)
            continue
        got = batch.report(i)
        for fd in fields(KeyRateReport):
            _assert_equal(getattr(got, fd.name), getattr(want, fd.name), fd.name)
    assert batch.failed.tolist() == [m == 0.0 for m, _, _ in cells]


def test_scan_batch_with_scalar_fields_equals_repeated_rows():
    """A coordinate scan passes the fixed coordinates as scalars; its values
    equal those of the batch with them repeated per row, bit for bit."""
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    eps = np.linspace(2e-3, 0.2, 7)[:, None]
    scalar = analyze_expected_batch(replace(params, epsilon=eps), model, 1e12)
    repeated = analyze_expected_batch(
        replace(params, epsilon=eps, mu=np.full((7, 1), params.mu),
                delta_threshold=np.full((7, 1), params.delta_threshold)), model, 1e12,
    )
    assert list(scalar.values) == list(repeated.values)
    for name, value in scalar.values.items():
        assert np.array_equal(value, repeated.values[name], equal_nan=True), name
        assert value.shape[-1] == 7, name


def test_empty_batch_has_no_rows():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    batch = analyze_expected_batch(params, replace(model, fiber_km_a=np.empty((0, 1))), 1e12)
    assert batch.failed.shape == (0,)
    assert sweep_distance(params, model, []) == []


def test_optimizer_keeps_the_first_of_equal_rates():
    """Where no point yields key, every rate is 0 and the first coarse
    point stays the incumbent."""
    res = optimize_params(defaults.reference_model(600.0), defaults.reference_params())
    assert res.rate_per_pulse == 0.0
    assert res.evaluations == 553
    assert (res.params.mu, res.params.epsilon, res.params.delta_threshold) == (
        2e-4, 2e-3, math.radians(5.0))


def test_batched_rate_outside_unit_interval_raises(monkeypatch):
    real = channelsim._expected_counts

    def inflated(*args, **kwargs):
        counts = real(*args, **kwargs)
        counts[1, 2, 3:5] *= 1e9  # row 1, state 10, test set: detections
        return counts

    monkeypatch.setattr(channelsim, "_expected_counts", inflated)
    params = defaults.reference_params()
    with pytest.raises(ValueError, match=r"counting rate out of \[0, 1\] for state 10"):
        analyze_expected_batch(replace(params, mu=np.full((3, 1), params.mu)),
                               defaults.reference_model(50.0), 1e12)
