import math

import numpy as np
import pytest

from scfqkd import channelsim, dataio, defaults, phasetrack
from scfqkd.channelsim import (
    CHUNK_WINDOWS,
    ChannelModel,
    ProtocolParams,
    SessionTallies,
    expected_tallies,
    simulate_session,
)
from scfqkd.phasecore import minor_angle
from scfqkd.phasetrack import DEFAULT_SPAN_WINDOWS
from scfqkd.postselect import StateCoefficients, posterior_state

# The simulator keeps or discards whole reference spans by the strict test
# minor_angle(estimate) < threshold.  The selection tests below give the
# spans fixed estimates, one per span in span order: the keep-level bins
# that the chunk reads from its table, and the float levels that a threshold
# between edges reads from the span phase estimator.  They read the kept
# windows from the session tallies.


def _kept_per_span(monkeypatch, estimates, threshold, seed=4):
    """Windows kept per span when span k is estimated at estimates[k]."""
    estimates = np.asarray(estimates, dtype=float)
    n = len(estimates) * DEFAULT_SPAN_WINDOWS
    assert n <= CHUNK_WINDOWS  # one chunk, so one estimator call
    bins = np.searchsorted(channelsim._KEEP_EDGES, minor_angle(estimates), "right")
    monkeypatch.setattr(channelsim, "_table_bins", lambda counts: bins[: len(counts)])
    monkeypatch.setattr(phasetrack, "estimate_phase_batch",
                        lambda counts: estimates[: len(counts)])
    params = ProtocolParams(mu=0.05, epsilon=0.3, delta_threshold=threshold)
    res = simulate_session(params, ChannelModel(dark_prob=1e-4), n, seed=seed)
    return res.tallies


def _selected(tallies):
    return sum(tallies.sent_selected.values())


def test_select_boundary_behaviour(monkeypatch):
    delta = math.radians(30)
    pattern = [math.radians(29), math.radians(31), delta]  # kept, out, at threshold
    t = _kept_per_span(monkeypatch, pattern * 17, delta)
    assert t.threshold == delta
    assert _selected(t) == 17 * DEFAULT_SPAN_WINDOWS
    assert _selected(t) / t.n_windows == pytest.approx(1 / 3)
    # a span sitting exactly on the threshold is discarded
    for estimate in (math.radians(30), 2.5, math.pi):
        edge = minor_angle(estimate)
        assert _selected(_kept_per_span(monkeypatch, [estimate] * 10, edge)) == 0


def test_select_full_threshold_keeps_generic_phases(monkeypatch):
    rng = np.random.default_rng(0)
    estimates = rng.uniform(-20, 20, 64)
    t = _kept_per_span(monkeypatch, estimates, math.pi)
    assert _selected(t) == t.n_windows
    assert t.sent_selected == t.sent


def test_select_negative_phase_symmetric(monkeypatch):
    delta = math.radians(30)
    pattern = np.array([math.radians(29), math.radians(31)] * 20)
    positive = _kept_per_span(monkeypatch, pattern, delta)
    negative = _kept_per_span(monkeypatch, -pattern, delta)
    assert _selected(negative) == 20 * DEFAULT_SPAN_WINDOWS
    assert negative == positive


def test_select_threshold_validation():
    params = ProtocolParams()
    for bad in (0.0, -0.1, 3.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="thresholds"):
            simulate_session(params, ChannelModel(), 180, seed=1, thresholds=[bad])
        with pytest.raises(ValueError, match="thresholds"):
            expected_tallies(params, ChannelModel(), 1e6, thresholds=[bad])
        with pytest.raises(ValueError, match="delta_threshold"):
            ProtocolParams(delta_threshold=bad)
    # The first bad threshold is named, after good ones too.
    with pytest.raises(ValueError, match=r"^thresholds must lie in \(0, pi\], got nan$"):
        simulate_session(params, ChannelModel(), 180, seed=1, thresholds=[0.5, math.nan, 0.0])
    out = expected_tallies(params, ChannelModel(), 1e6,
                           thresholds=[math.pi, params.delta_threshold])
    assert list(out) == [params.delta_threshold, math.pi]


def test_split_test_set_partition():
    params = ProtocolParams(mu=0.1, epsilon=0.3, p_t=0.1, delta_threshold=math.pi)
    model = ChannelModel(dark_prob=1e-3)
    t = simulate_session(params, model, 400_000, seed=5).tallies
    t.check_conservation()
    for s in ("00", "01", "10", "11"):
        assert t.sent_test[s] + t.sent_key[s] == t.sent_selected[s]
    n_sel = sum(t.sent_selected.values())
    n_test = sum(t.sent_test.values())
    sd = math.sqrt(n_sel * params.p_t * (1 - params.p_t))
    assert n_test == pytest.approx(n_sel * params.p_t, abs=4 * sd)


# Per state: 100 windows sent, 10 kept, 2 in the test subset with one
# detection on each channel, 8 in the key subset with 3 on ch0 and 5 on ch1,
# so each subset's detections equal its windows.
_CONSERVED_ROW = [100, 10, 2, 1, 1, 8, 3, 5]


@pytest.mark.parametrize("cell, value, n_windows, message", [
    (None, None, 400, None),
    ((0, 4), -1, 400, "negative count in the tallies"),
    ((1, 1), 101, 400, "selected count exceeds sent count for state 01 (101 > 100)"),
    ((2, 5), 9, 400, "test/key split does not partition state 10 (2 + 9 != 10)"),
    (None, None, 401, "sent counts do not sum to the number of windows"),
    ((1, 3), 7, 400, "test detections 8 exceed the 2 test windows of state 01"),
    ((3, 7), 6, 400, "key detections 9 exceed the 8 key windows of state 11"),
])
def test_check_conservation_refuses_each_broken_rule(cell, value, n_windows, message):
    counts = np.array([_CONSERVED_ROW] * 4)
    if cell is not None:
        counts[cell] = value
    t = SessionTallies(n_windows, math.radians(30.0), counts)
    if message is None:
        t.check_conservation()
        return
    with pytest.raises(ValueError) as exc:
        t.check_conservation()
    assert str(exc.value) == message


def test_split_test_set_degenerate_fractions():
    model = ChannelModel(dark_prob=1e-3)
    n = 20 * DEFAULT_SPAN_WINDOWS
    for p_t, empty, empty_detected in ((0.0, "sent_test", "detected_test"),
                                       (1.0, "sent_key", "detected_key")):
        params = ProtocolParams(mu=0.1, epsilon=0.3, p_t=p_t, delta_threshold=math.pi)
        t = simulate_session(params, model, n, seed=5).tallies
        assert sum(t.sent_selected.values()) > 0
        assert all(v == 0 for v in getattr(t, empty).values())
        assert all(v == 0 for v in getattr(t, empty_detected).values())


def test_posterior_state_prior_only():
    # uniform selection leaves the sending priors untouched
    eps = 0.021
    n = 10 ** 9
    sent = {
        "11": eps * eps * n,
        "10": eps * (1 - eps) * n,
        "01": eps * (1 - eps) * n,
        "00": (1 - eps) ** 2 * n,
    }
    selected = {s: 0.25 * c for s, c in sent.items()}
    c = posterior_state(sent, selected)
    assert c.both == pytest.approx(eps * eps, rel=1e-9)
    assert c.alice_only == pytest.approx(eps * (1 - eps), rel=1e-9)
    assert c.bob_only == pytest.approx(eps * (1 - eps), rel=1e-9)
    assert c.vacuum == pytest.approx((1 - eps) ** 2, rel=1e-9)


def test_posterior_state_sums_to_one():
    rng = np.random.default_rng(8)
    for _ in range(50):
        sent = {s: float(rng.integers(10, 10_000)) for s in ("00", "01", "10", "11")}
        selected = {s: sent[s] * rng.uniform(0, 1) for s in sent}
        c = posterior_state(sent, selected)
        assert sum(c.as_tuple()) == pytest.approx(1.0, rel=1e-12)
        assert all(x >= 0 for x in c.as_tuple())


def test_posterior_state_validation():
    sent = {"00": 10, "01": 5, "10": 5, "11": 1}
    bad = {"00": 11, "01": 0, "10": 0, "11": 0}
    with pytest.raises(ValueError):
        posterior_state(sent, bad)
    with pytest.raises(ValueError):
        posterior_state({s: 0 for s in sent}, {s: 0 for s in sent})


@pytest.mark.parametrize("mapping", ["sent", "selected"])
@pytest.mark.parametrize("state, bad", [("10", math.nan), ("11", math.inf), ("00", -math.inf)])
def test_posterior_state_refuses_non_finite_counts(mapping, state, bad):
    sent = {"00": 10, "01": 5, "10": 5, "11": 1}
    selected = dict.fromkeys(sent, 1)
    (sent if mapping == "sent" else selected)[state] = bad
    with pytest.raises(ValueError) as exc:
        posterior_state(sent, selected)
    assert str(exc.value) == f"non-finite count for state {state}"


def test_posterior_state_reference_dataset():
    """Selection statistics of the bundled run.

    The retained fractions per twin-field state, computed from the bundled
    tally file, reproduce the recorded coefficients to their rounded
    precision.
    """
    raw = dataio.load_raw_tallies(defaults.bundled_tally_path())
    t = raw.tallies
    c = posterior_state(t.sent, t.sent_selected)
    assert c.both == pytest.approx(0.000442, abs=5e-7)
    assert c.bob_only == pytest.approx(0.020594, abs=5e-7)
    assert c.alice_only == pytest.approx(0.020564, abs=1e-6)
    assert c.vacuum == pytest.approx(0.958400, abs=5e-7)


def test_state_coefficients_dict_keys():
    c = StateCoefficients(0.1, 0.2, 0.3, 0.4)
    assert c.as_tuple() == (0.1, 0.2, 0.3, 0.4)

