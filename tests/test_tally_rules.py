"""The one set of tally rules, :func:`scfqkd.channelsim.broken_tally_rule`,
as a raw tally file, a session and the posterior state apply it: the same
cell break gives the same rule text on every path."""

import math

import numpy as np
import pytest

from scfqkd.channelsim import SessionTallies
from scfqkd.dataio import ConsistencyError, ParseError, load_raw_tallies, write_raw_tallies
from scfqkd.postselect import posterior_state

# Per state: 5000 windows sent, 1000 selected, 100 in the test subset with
# 40 + 30 detections, 900 in the key subset with 300 + 200.
_ROW = [5000, 1000, 100, 40, 30, 900, 300, 200]


def _tallies(cell=None, value=None, dtype=np.int64):
    counts = np.array([_ROW] * 4, dtype=dtype)
    if cell is not None:
        counts[cell] = value
    return SessionTallies(counts[:, 0].sum().item(), math.radians(30.0), counts)


@pytest.mark.parametrize("cell, value, key, message", [
    ((1, 1), 5001, "Sent-01-Δ", "selected count exceeds sent count for state 01 (5001 > 5000)"),
    ((2, 0), 999, "Sent-10-Δ", "selected count exceeds sent count for state 10 (1000 > 999)"),
    ((2, 5), 950, "Sent-SS10-Δ", "test/key split does not partition state 10 (100 + 950 != 1000)"),
    ((0, 2), 60, "Sent-SS00-Δ", "test/key split does not partition state 00 (60 + 900 != 1000)"),
    ((1, 3), 80, "Detected-TT01-ch0", "test detections 110 exceed the 100 test windows of state 01"),
    ((0, 4), 61, "Detected-TT00-ch0", "test detections 101 exceed the 100 test windows of state 00"),
    ((3, 7), 700, "Detected-SS11-ch0", "key detections 1000 exceed the 900 key windows of state 11"),
], ids=["selected-above-sent", "sent-below-selected", "key-split", "test-split",
        "test-detections", "test-detections-ch1", "key-detections"])
def test_a_file_and_a_session_refuse_a_break_with_one_rule_text(tmp_path, cell, value, key, message):
    tallies = _tallies(cell, value)
    with pytest.raises(ValueError) as exc:
        tallies.check_conservation()
    assert str(exc.value) == message
    path = tmp_path / "broken.tsv"
    write_raw_tallies(path, tallies)
    with pytest.raises(ConsistencyError) as exc:
        load_raw_tallies(path)
    assert (str(exc.value), exc.value.key) == (f"{path}: {key}: {message}", key)


def test_a_file_split_may_miss_by_its_tolerance_a_session_split_may_not(tmp_path):
    """904 key windows miss the 1000 selected by 0.4 %, inside the 0.5 % a
    recorded file may miss by; a session's split is exact."""
    tallies = _tallies((2, 5), 904)
    with pytest.raises(ValueError) as exc:
        tallies.check_conservation()
    assert str(exc.value) == "test/key split does not partition state 10 (100 + 904 != 1000)"
    path = tmp_path / "rounded.tsv"
    write_raw_tallies(path, tallies)
    assert np.array_equal(load_raw_tallies(path).tallies.counts, tallies.counts)


def test_an_absent_detection_channel_counts_as_zero(tmp_path):
    path = tmp_path / "partial.tsv"
    path.write_text("Sent-SS11-Δ\t5\nDetected-SS11-ch0\t6\n", encoding="utf-8")
    with pytest.raises(ConsistencyError) as exc:
        load_raw_tallies(path, strict=False)
    key = "Detected-SS11-ch0"
    assert (str(exc.value), exc.value.key) == (
        f"{path}: {key}: key detections 6 exceed the 5 key windows of state 11", key)


def test_a_rule_on_an_absent_cell_holds(tmp_path):
    """The partial 45 degree file of acceptance criterion 2 has detections
    and no windows, so no rule can be checked and it loads."""
    path = tmp_path / "t45.tsv"
    path.write_text(
        "Delta-Degrees\t45\n"
        "Detected-SS11-ch0\t64000\nDetected-SS11-ch1\t5800\n"
        "Detected-TT11-ch0\t4376\nDetected-TT11-ch1\t552\n",
        encoding="utf-8",
    )
    counts = load_raw_tallies(path, strict=False).tallies.counts
    assert counts[3].tolist() == [0, 0, 0, 4376, 552, 0, 64000, 5800]


def test_posterior_state_refuses_selected_above_sent_in_the_same_words():
    tallies = _tallies((0, 1), 5001.0, dtype=float)
    with pytest.raises(ValueError) as session:
        tallies.check_conservation()
    with pytest.raises(ValueError) as posterior:
        posterior_state(tallies.sent, tallies.sent_selected)
    assert str(posterior.value) == str(session.value) == (
        "selected count exceeds sent count for state 00 (5001.0 > 5000.0)")


def test_a_nan_detection_count_breaks_its_rule(tmp_path):
    """``nan > n`` is false, so the rule reads ``not det <= n``; a file
    cannot carry the NaN, as its parse refuses a non-finite value."""
    tallies = _tallies((1, 3), math.nan, dtype=float)
    with pytest.raises(ValueError) as exc:
        tallies.check_conservation()
    assert str(exc.value) == "test detections nan exceed the 100.0 test windows of state 01"
    path = tmp_path / "nan.tsv"
    write_raw_tallies(path, tallies)
    with pytest.raises(ParseError, match="is not finite") as exc:
        load_raw_tallies(path)
    assert exc.value.key == "Detected-TT01-ch0"
