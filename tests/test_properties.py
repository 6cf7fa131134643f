"""Property tests of the expected-value model, the tally file format and
the estimator over random valid inputs."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfqkd import defaults
from scfqkd.channelsim import STATE_LABELS, ProtocolParams, SessionTallies, expected_tallies
from scfqkd.dataio import ParseError, load_raw_tallies, write_raw_tallies
from scfqkd.estimator import counting_rates, tallies_to_sets
from scfqkd.keyrate import key_length, model_both_send_qber

unit = st.floats(0.0, 1.0)


@st.composite
def configurations(draw, max_delta=math.pi, min_visibility=0.0):
    params = ProtocolParams(
        mu=draw(st.floats(1e-5, 1.0)),
        epsilon=draw(unit),
        delta_threshold=draw(st.floats(1e-3, max_delta)),
        p_t=draw(unit),
    )
    model = replace(
        defaults.reference_model(draw(st.floats(0.0, 300.0))),
        visibility=draw(st.floats(min_visibility, 1.0)),
    )
    return params, model


@settings(max_examples=200, deadline=None)
@given(configurations(), st.floats(1.0, 1e13))
def test_expected_tallies_cells_are_consistent(setting, n_windows):
    params, model = setting
    t = expected_tallies(params, model, n_windows)[params.delta_threshold]
    cells = [t.effective_windows]
    for d in (t.sent, t.sent_selected, t.sent_test, t.sent_key, t.detected_test, t.detected_key):
        cells.extend(d.values())
    assert all(math.isfinite(c) and c >= 0.0 for c in cells)
    for s in STATE_LABELS:
        assert math.isclose(t.sent_test[s] + t.sent_key[s], t.sent_selected[s],
                            rel_tol=1e-12)
        assert t.sent_selected[s] <= t.sent[s]
        for ch in (0, 1):
            assert t.detected_test[(s, ch)] <= t.sent_test[s]
            assert t.detected_key[(s, ch)] <= t.sent_key[s]


# Thresholds stop at 90 degrees: near 180 degrees the kept phases carry no
# mean interference, and the reference model's channel-1 detector, slightly
# more efficient than channel 0, then puts the wrong-port fraction just
# above one half.
@settings(max_examples=200, deadline=None)
@given(configurations(max_delta=math.pi / 2, min_visibility=0.5))
def test_model_both_send_qber_is_at_most_half(setting):
    params, model = setting
    assert 0.0 <= model_both_send_qber(params, model) <= 0.5


@st.composite
def consistent_tallies(draw):
    """Integer session tallies that satisfy every conservation rule."""
    t = SessionTallies(n_windows=0, threshold=math.radians(30.0))
    for s in STATE_LABELS:
        sent = draw(st.integers(0, 10**12))
        selected = draw(st.integers(0, sent))
        test = draw(st.integers(0, selected))
        t.sent[s], t.sent_selected[s] = sent, selected
        t.sent_test[s], t.sent_key[s] = test, selected - test
        for pool, detected in ((test, t.detected_test), (selected - test, t.detected_key)):
            ch0 = draw(st.integers(0, pool))
            detected[(s, 0)], detected[(s, 1)] = ch0, draw(st.integers(0, pool - ch0))
    t.n_windows = sum(t.sent.values())
    return t


@settings(max_examples=100, deadline=None)
@given(consistent_tallies())
def test_raw_tally_file_round_trips_every_cell(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("roundtrip") / "tallies.tsv"
    write_raw_tallies(path, t, {"Delta-Degrees": 30, "Windows": t.n_windows})
    back = load_raw_tallies(path, strict=True).tallies
    for name in ("sent", "sent_selected", "sent_test", "sent_key", "detected_test", "detected_key"):
        assert getattr(back, name) == getattr(t, name), name


@settings(max_examples=200, deadline=None)
@given(consistent_tallies(), st.data(), st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
def test_non_finite_value_rejected_by_key(tmp_path_factory, t, data, bad):
    path = tmp_path_factory.mktemp("nonfinite") / "tallies.tsv"
    metadata = {"Delta-Degrees": 30, "Mu": 0.002, "Epsilon": 0.021, "Pt": 0.1, "F-EC": 1.1,
                "Windows": t.n_windows, "Seed": 1}
    write_raw_tallies(path, t, metadata)
    lines = path.read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    key = lines[i].split("\t")[0]
    lines[i] = f"{key}\t{bad}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for strict in (True, False):
        with pytest.raises(ParseError) as exc:
            load_raw_tallies(path, strict=strict)
        assert exc.value.key == key
        assert key in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_expected_tally_file_round_trips_every_cell(tmp_path_factory, setting):
    params, model = setting
    t = expected_tallies(params, model, 1e12)[params.delta_threshold]
    path = tmp_path_factory.mktemp("roundtrip") / "tallies.tsv"
    write_raw_tallies(path, t)
    back = load_raw_tallies(path, strict=True).tallies
    for name in ("sent", "sent_selected", "sent_test", "sent_key", "detected_test", "detected_key"):
        assert getattr(back, name) == getattr(t, name), name


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1e12), st.floats(0.0, 1e12), st.floats(0.0, 1.0), st.floats(1.0, 2.0),
    st.floats(0.0, 0.5), st.floats(0.0, 0.5),
)
def test_key_length_does_not_increase_with_phase_error(n_z, n_v, e_v, f_ec, a, b):
    lo, hi = min(a, b), max(a, b)
    at_lo = key_length(n_z, lo, n_v, e_v, f_ec)
    at_hi = key_length(n_z, hi, n_v, e_v, f_ec)
    # Rounding in the entropy can move a value by a few ulp of its terms.
    assert at_hi <= at_lo + 1e-12 * (n_z + f_ec * n_v)


@settings(max_examples=300, deadline=None)
@given(consistent_tallies(), st.booleans())
def test_counting_rates_stay_in_unit_interval(t, swap):
    for subset in tallies_to_sets(t, swap_detectors=swap):
        rates = counting_rates(subset)
        values = [*rates.by_state.values(), *rates.by_cell.values(), rates.total]
        if rates.error_rate is not None:
            values.append(rates.error_rate)
        assert all(math.isnan(r) or 0.0 <= r <= 1.0 for r in values)
        assert all(math.isnan(rates.by_state[s]) == (subset.sent[s] == 0) for s in STATE_LABELS)
