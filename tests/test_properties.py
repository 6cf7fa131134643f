"""Property tests of the expected-value model over random valid settings."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from scfqkd import defaults
from scfqkd.channelsim import STATE_LABELS, ProtocolParams, expected_tallies
from scfqkd.keyrate import model_both_send_qber

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
