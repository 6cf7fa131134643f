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
    TallySet,
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
    u = TallySet(np.array([[1000, 0, 0]] * 4))
    with pytest.raises(EstimationError, match="mismatched-send yield is zero"):
        analyze_tallies(u, u, defaults.reference_params())


def test_analyze_tallies_clamps_entropy_argument():
    # sparse left-heavy counts drive the raw bound negative; the report keeps
    # the raw value while the key-length evaluation clamps it
    u = TallySet(np.array([
        [10_000_000, 0, 0], [500_000, 70, 70], [500_000, 70, 70], [10_000, 40, 0]
    ]))
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
    midpoint rounds to an end of the interval, after a bounded number of
    model calls and bisection steps."""
    def limited(name, real, bound):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            if len(calls) > bound:
                raise RuntimeError(f"calibration made more than {bound} {name}")
            return real(*args, **kwargs)
        return counted

    params, model = defaults.reference_params(), defaults.reference_model(50.0)
    target = defaults.REFERENCE_BOTH_SEND_QBER
    coarse = calibrate_visibility(params, model, target)
    monkeypatch.setattr(channelsim, "click_probabilities",
                        limited("model calls", channelsim.click_probabilities, 60))
    # Halving [0, 1] reaches adjacent floats within about 1,075 steps.
    monkeypatch.setattr(keyrate, "_checked_qber", limited("steps", keyrate._checked_qber, 1100))
    for tol in (1e-20, 5e-324):
        assert abs(calibrate_visibility(params, model, target, tol=tol) - coarse) <= 1e-10


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
    mu, eps, delta, dist = zip(*rows)
    batch = analyze_expected_batch(
        params, model, 1e12, mu, eps, delta, fiber_km=[(0.5 * d, 0.5 * d) for d in dist]
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


@pytest.mark.parametrize(
    "name, bad",
    [("mu", -1e-3), ("mu", math.inf), ("epsilon", 1.5), ("delta_threshold", 0.0), ("delta_threshold", 4.0)],
)
def test_batched_rows_keep_protocol_range_checks(name, bad):
    params = defaults.reference_params()
    with pytest.raises(ValueError) as want:
        replace(params, **{name: bad})
    rows = {"mu": [params.mu] * 3, "epsilon": [params.epsilon] * 3,
            "delta_threshold": [params.delta_threshold] * 3}
    rows[name][1] = bad
    with pytest.raises(ValueError) as got:
        analyze_expected_batch(params, defaults.reference_model(50.0), 1e12, **rows)
    assert str(got.value) == str(want.value)


def test_default_optimize_batches_click_evaluations(monkeypatch):
    calls = []
    real = channelsim.click_probabilities

    def counting(*args, **kwargs):
        calls.append(np.broadcast(*args[2:5]).shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(channelsim, "click_probabilities", counting)
    res = optimize_params(defaults.reference_model(50.0), defaults.reference_params())
    assert res.evaluations == 553
    # 7 mu-planes of the coarse grid plus 3 coordinate scans per round.
    assert len(calls) == 37
    assert sum(shape[0] for shape in calls) == 553


def test_optimizer_keeps_the_first_of_equal_rates():
    """Where no point yields key, every rate is 0 and the first coarse
    point stays the incumbent."""
    res = optimize_params(defaults.reference_model(600.0), defaults.reference_params(),
                          grid=3, refine_rounds=2)
    assert res.rate_per_pulse == 0.0
    assert res.evaluations == 3**3 + 3 * 3 * 2
    assert (res.params.mu, res.params.epsilon, res.params.delta_threshold) == (
        2e-4, 2e-3, math.radians(5.0))


def test_batched_rate_outside_unit_interval_raises(monkeypatch):
    real = channelsim._expected_cells

    def inflated(*args, **kwargs):
        eff, prior, selected, cells = real(*args, **kwargs)
        cells = cells.copy()
        cells[1, :, 2, 0, 1:] *= 1e9  # row 1, state 10, test set: detections
        return eff, prior, selected, cells

    monkeypatch.setattr(channelsim, "_expected_cells", inflated)
    params = defaults.reference_params()
    with pytest.raises(ValueError, match=r"counting rate out of \[0, 1\] for state 10"):
        analyze_expected_batch(params, defaults.reference_model(50.0), 1e12,
                               [params.mu] * 3, [params.epsilon] * 3, [params.delta_threshold] * 3)
