import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from scfqkd import dataio, defaults
from scfqkd.channelsim import STATE_LABELS, SessionTallies
from scfqkd.estimator import (
    EstimationError,
    bit_flip_error_v,
    counting_rates,
    estimate,
    phase_flip_upper,
    qber_both_send,
    report,
    tallies_to_sets,
)
from scfqkd.keyrate import analyze_tallies

mp.mp.dps = 50


def mp_x_upper(s00, s11, mu):
    """Independent high-precision transcription of the right-detector bound."""
    s00, s11, mu = mp.mpf(s00), mp.mpf(s11), mp.mpf(mu)
    em = mp.e ** (-mu)
    num = (
        em * s00
        + s11 / em
        + (1 - em) ** 2 / em
        + 2 * mp.sqrt(s00 * s11)
        + 2 * (1 - em) * mp.sqrt(s00)
        + (2 * (1 - em) / em) * mp.sqrt(s11)
    )
    return num / (2 * (1 + em))


def mp_x_lower(s00, s11, mu):
    s00, s11, mu = mp.mpf(s00), mp.mpf(s11), mp.mpf(mu)
    em = mp.e ** (-mu)
    num = (
        em * s00
        + s11 / em
        - 2 * mp.sqrt(s00 * s11)
        - 2 * (1 - em) * mp.sqrt(s00)
        - (2 * (1 - em) / em) * mp.sqrt(s11)
    )
    return max(num / (2 * (1 + em)), mp.mpf(0))


def mp_phase_flip(s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, mu, s_z):
    em = mp.e ** (-mp.mpf(mu))
    upper = mp_x_upper(s00_r, s11_r, mu)
    lower = mp_x_lower(s00_l, s11_l, mu)
    return ((1 + em) * (upper - lower) + mp.mpf(s01_l) + mp.mpf(s10_l)) / (2 * mp.mpf(s_z))


def tally_set(sent, detected):
    """A subset's (state, cell) array of (announced windows, L, R) from
    counts keyed by state and by (state, side); absent cells are 0."""
    return np.array([
        [sent.get(s, 0), detected.get((s, "L"), 0), detected.get((s, "R"), 0)] for s in STATE_LABELS
    ])


def sample_tally_set():
    sent = {"00": 10_000_000, "01": 400_000, "10": 390_000, "11": 9_000}
    detected = {
        ("00", "L"): 3, ("00", "R"): 2,
        ("01", "L"): 110, ("01", "R"): 108,
        ("10", "L"): 102, ("10", "R"): 104,
        ("11", "L"): 4, ("11", "R"): 52,
    }
    return tally_set(sent, detected)


def test_swap_detectors_reverses_channel_axis():
    counts = np.zeros((4, 8), dtype=np.int64)
    counts[:, [2, 5]] = 100  # test and key windows
    counts[:, [3, 6]] = 1  # channel 0
    counts[:, [4, 7]] = 2  # channel 1
    t = SessionTallies(n_windows=0, threshold=math.nan, counts=counts)
    for swap, (left, right) in ((False, (1, 2)), (True, (2, 1))):
        for subset in tallies_to_sets(t, swap_detectors=swap):
            assert subset[:, 0].tolist() == [100] * 4
            assert subset[1, 1:].tolist() == [left, right]  # state 01: (L, R)


def test_counting_rates_basic():
    t = sample_tally_set()
    r = counting_rates(t)
    assert r["by_cell"][("01", "L")] == pytest.approx(110 / 400_000)
    assert r["by_state"]["01"] == pytest.approx(218 / 400_000)
    assert r["total"] == pytest.approx(485 / t[:, 0].sum())
    # matched-decision detections are errors
    assert r["error_rate"] == pytest.approx((3 + 2 + 4 + 52) / 485)
    assert all(math.isfinite(v) for v in [*r["by_state"].values(), *r["by_cell"].values()])


def test_counting_rates_all_rates_in_unit_interval():
    r = counting_rates(sample_tally_set())
    for v in list(r["by_state"].values()) + list(r["by_cell"].values()):
        assert 0.0 <= v <= 1.0
    assert 0.0 <= r["error_rate"] <= 1.0


def test_counting_rates_missing_cells():
    t = tally_set({"01": 1000}, {("01", "L"): 3})
    r = counting_rates(t)
    assert math.isnan(r["by_state"]["11"])
    assert math.isnan(r["by_cell"][("00", "R")])
    with pytest.raises(EstimationError) as exc:
        analyze_tallies(t, t, defaults.reference_params())
    assert str(exc.value) == (
        "no announced windows for cells: ['10', ('00', 'L'), ('00', 'R'), ('11', 'L'), "
        "('11', 'R'), ('10', 'L')]"
    )


def test_counting_rates_no_detections_flags_error_rate():
    t = tally_set({"00": 10, "01": 10, "10": 10, "11": 10},
                  {(s, d): 0 for s in ("00", "01", "10", "11") for d in ("L", "R")})
    r = counting_rates(t)
    assert r["error_rate"] is None
    assert all(v == 0.0 for v in r["by_state"].values())


def test_s_tilde_z_is_symmetric_mean():
    t = sample_tally_set()
    rates = counting_rates(t)["by_state"]
    rep = analyze_tallies(t, t, defaults.reference_params())
    assert rep.s_tilde_z == 0.5 * (rates["01"] + rates["10"])
    assert rep.s_tilde_z == pytest.approx(0.5 * (218 / 400_000 + 206 / 390_000), rel=1e-12)


def test_n_tilde_z_uses_smaller_pool():
    u = sample_tally_set()
    for pools, smaller in (((3_993_295_035, 3_987_675_420), 3_987_675_420), ((0, 5), 0), ((5, 0), 0)):
        v = tally_set(dict(zip(("01", "10"), pools)), {})
        rep = analyze_tallies(u, v, defaults.reference_params())
        assert rep.n_tilde_z == 2 * smaller * rep.s_tilde_z


def test_x_basis_bounds_match_high_precision():
    rng = np.random.default_rng(100)
    for _ in range(200):
        s00 = 10.0 ** rng.uniform(-9, -3)
        s11 = 10.0 ** rng.uniform(-6, -1)
        mu = 10.0 ** rng.uniform(-3.5, -0.5)
        bound = phase_flip_upper(s00, s00, s11, s11, 0.0, 0.0, mu, 1.0)
        up, lo = bound.x_upper_right, bound.x_lower_left
        assert up == pytest.approx(float(mp_x_upper(s00, s11, mu)), rel=1e-12)
        assert lo == pytest.approx(float(mp_x_lower(s00, s11, mu)), rel=1e-12, abs=1e-300)
        assert lo >= 0.0


def test_x_basis_lower_clamps_to_zero():
    # tiny s00/s11 make the subtracted square roots dominate
    bound = phase_flip_upper(1e-10, 1e-10, 1e-10, 1e-10, 0.0, 0.0, 0.1, 1e-4)
    assert bound.x_lower_left == 0.0
    assert bound.lower_clamped


def test_phase_flip_upper_against_high_precision():
    rng = np.random.default_rng(200)
    for _ in range(100):
        s00_l = 10.0 ** rng.uniform(-9, -5)
        s00_r = 10.0 ** rng.uniform(-9, -5)
        s11_l = 10.0 ** rng.uniform(-6, -2)
        s11_r = 10.0 ** rng.uniform(-6, -2)
        s01_l = 10.0 ** rng.uniform(-5, -3)
        s10_l = 10.0 ** rng.uniform(-5, -3)
        mu = 10.0 ** rng.uniform(-3, -1)
        s_z = 10.0 ** rng.uniform(-4, -3)
        got = phase_flip_upper(s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, mu, s_z)
        want = float(mp_phase_flip(s00_l, s00_r, s11_l, s11_r, s01_l, s10_l, mu, s_z))
        assert got.value == pytest.approx(want, rel=1e-12)


def test_phase_flip_upper_directional_monotonicity():
    """Finite differences at an operating point with realistic magnitudes."""
    base = dict(
        s00_left=7.2e-9, s00_right=6.1e-9,
        s11_left=4.97e-4, s11_right=3.3e-5,
        s01_left=1.37e-4, s10_left=1.40e-4,
        mu=0.002, s_z=2.77e-4,
    )
    e0 = phase_flip_upper(**base).value
    up = dict(base, s11_right=base["s11_right"] * 1.05)
    assert phase_flip_upper(**up).value >= e0
    down = dict(base, s11_left=base["s11_left"] * 1.05)
    assert phase_flip_upper(**down).value <= e0


def test_phase_flip_upper_vanishing_cross_rates():
    # with all left-detector rates at zero the bound collapses to the
    # right-detector upper bound alone
    mu = 1e-8
    s11_r = 4e-8
    got = phase_flip_upper(0.0, 0.0, 0.0, s11_r, 0.0, 0.0, mu, 1e-4)
    want = float(mp_phase_flip(0, 0, 0, s11_r, 0, 0, mu, 1e-4))
    assert got.value == pytest.approx(want, rel=1e-9)
    assert not got.lower_clamped


def test_phase_flip_upper_flags_half():
    got = phase_flip_upper(1e-9, 1e-9, 1e-4, 9e-4, 1e-4, 1e-4, 0.002, 1e-4)
    assert got.flagged == (got.value >= 0.5)
    assert got.flagged


def test_phase_flip_upper_validation():
    with pytest.raises(EstimationError):
        phase_flip_upper(0, 0, 0, 0, 0, 0, 0.0, 1e-4)
    with pytest.raises(EstimationError):
        phase_flip_upper(0, 0, 0, 0, 0, 0, 0.002, 0.0)
    with pytest.raises(EstimationError, match=r"exp\(-mu\) > 0, got 800.0"):
        phase_flip_upper(0, 0, 0, 0, 0, 0, 800.0, 1e-4)


def test_phase_flip_upper_refuses_an_infinite_bound():
    """At mu = 720 the bound overflows; the public bound raises the error
    of the analysis chain instead of returning an infinite, flagged value."""
    with pytest.raises(EstimationError, match="^phase-flip bound overflows to infinity$"):
        phase_flip_upper(1e-6, 1e-6, 1e-3, 1e-3, 1e-4, 1e-4, 720.0, 1e-4)


def test_underflowing_exp_mu_fails_alike_in_both_chains():
    """At mu = 800 exp(-mu) is 0: the scalar chain and a row of the array
    chain both fail with the error that names mu, and the row beside it,
    at the reference mu, is untouched."""
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    params = defaults.reference_params()
    with pytest.raises(EstimationError, match="got 800.0") as scalar:
        analyze_tallies(u, v, replace(params, mu=800.0), n_total_pulses=raw.n_total_pulses)
    mu = np.array([params.mu, 800.0])
    test, key = (np.stack([t] * 2, axis=-1) for t in (u, v))
    values = estimate(test, key, mu, params.f_ec, raw.n_total_pulses)
    assert values["failed"].tolist() == [False, True]
    rows = [{name: np.asarray(a)[..., i].tolist() for name, a in values.items()} for i in (0, 1)]
    with pytest.raises(EstimationError) as array:
        report(rows[1], 800.0, params.f_ec, params.delta_threshold, raw.n_total_pulses)
    assert str(array.value) == str(scalar.value)
    want = analyze_tallies(u, v, params, n_total_pulses=raw.n_total_pulses)
    assert report(rows[0], params.mu, params.f_ec, params.delta_threshold, raw.n_total_pulses) == want


def test_bit_flip_error_v():
    t = sample_tally_set()
    e_v, n_v = bit_flip_error_v(t)
    assert n_v == 485
    assert e_v == pytest.approx(61 / 485)
    empty = tally_set({"01": 10}, {("01", "L"): 0})
    e_v, n_v = bit_flip_error_v(empty)
    assert e_v is None
    assert n_v == 0


def test_qber_both_send_hand_case():
    u = tally_set({"11": 1000}, {("11", "L"): 90, ("11", "R"): 10})
    v = tally_set({"11": 2000}, {("11", "L"): 190, ("11", "R"): 10})
    stats = qber_both_send(u, v)
    assert stats.detections == 300
    assert stats.wrong_port == 20
    assert stats.qber == pytest.approx(20 / 300)


def test_qber_both_send_empty_flagged():
    u = tally_set({"11": 10}, {("11", "L"): 0, ("11", "R"): 0})
    v = tally_set({"11": 10}, {("11", "L"): 0, ("11", "R"): 0})
    stats = qber_both_send(u, v)
    assert stats.detections == 0
    assert stats.qber is None


def test_reference_dataset_both_send_stats():
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    stats = qber_both_send(u, v)
    assert stats.detections == 50_490
    assert stats.qber == pytest.approx((2647 + 315) / 50_490, rel=1e-12)


def test_tallies_to_sets_bundled_pools():
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    assert u[:, 0].tolist() == [20_649_175_977, 443_690_678, 443_043_194, 9_516_486]
    assert v[1, 0] == 3_993_295_035  # key windows of state 01
    # detector mapping: L is channel 0 unless swapped; state 11's (L, R)
    assert u[3, 1:].tolist() == [4728, 315]
    u2, _ = raw.tally_sets(swap_detectors=True)
    assert u2[3, 1] == 315


def test_tallies_to_sets_are_the_subsets_of_the_one_tally():
    """The test and key subsets are the two halves of ``cells``: views of
    ``counts`` unless the channel axis is reversed, which copies."""
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    t = raw.tallies
    u, v = tallies_to_sets(t)
    assert np.array_equal(u, t.cells[:, 0]) and np.array_equal(v, t.cells[:, 1])
    assert np.shares_memory(u, t.counts) and np.shares_memory(v, t.counts)
    for got, want in zip(raw.tally_sets(), (u, v)):
        assert np.array_equal(got, want)
    swapped = tallies_to_sets(t, swap_detectors=True)
    for got, want in zip(swapped, (u, v)):
        assert not np.shares_memory(got, t.counts)
        assert np.array_equal(got, want[:, [0, 2, 1]])
    for got, want in zip(raw.tally_sets(swap_detectors=True), swapped):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mangle, got", [
    (lambda a: a[:, :2], "shape (4, 2)"),
    (lambda a: a[:3], "shape (3, 3)"),
    (lambda a: a.tolist(), "list"),
], ids=["two-cells", "three-states", "nested-list"])
def test_a_mis_shaped_subset_is_refused_by_name(mangle, got):
    u, v = dataio.load_raw_tallies(defaults.bundled_tally_path()).tally_sets()
    bad = mangle(u)
    params = defaults.reference_params()
    for name, call in (
        ("u", lambda: analyze_tallies(bad, v, params)),
        ("v", lambda: analyze_tallies(u, bad, params)),
        ("t", lambda: counting_rates(bad)),
        ("t_key", lambda: bit_flip_error_v(bad)),
        ("u", lambda: qber_both_send(bad, v)),
        ("v", lambda: qber_both_send(u, bad)),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == (
            f"{name} must be a (4, 3) array of (announced windows, L, R) per state, got {got}")
