import json
import math

import numpy as np
import pytest

from scfqkd import defaults
from scfqkd.channelsim import ChannelModel, ProtocolParams, simulate_session
from scfqkd.dataio import (
    CELL_KEYS,
    ConsistencyError,
    ParseError,
    RawTallies,
    emit_report,
    emit_sweep_csv,
    load_raw_tallies,
    report_to_dict,
    write_raw_tallies,
)
from scfqkd.estimator import estimate, report
from scfqkd.keyrate import analyze_tallies, sweep_distance


def test_bundled_file_loads_strict():
    raw = load_raw_tallies(defaults.bundled_tally_path())
    assert raw.n_total_pulses == 603_960_200_000
    assert raw.delta_threshold == pytest.approx(math.radians(30))
    assert raw.tallies.sent["00"] == 578_835_000_000
    assert raw.tallies.detected_key[("11", 1)] == 2647


def test_roundtrip_write_load(tmp_path):
    res = simulate_session(
        ProtocolParams(mu=0.05, epsilon=0.3),
        ChannelModel(fiber_km_a=3, fiber_km_b=3, dark_prob=1e-5),
        200_000, seed=6,
    )
    path = tmp_path / "out.tsv"
    meta = {"Delta-Degrees": 30, "Seed": 6, "Windows": 200000}
    write_raw_tallies(path, res.tallies, meta)
    raw = load_raw_tallies(path)
    assert raw.tallies.sent == res.tallies.sent
    assert raw.tallies.sent_selected == res.tallies.sent_selected
    assert raw.tallies.detected_key == res.tallies.detected_key
    assert raw.tallies.detected_test == res.tallies.detected_test
    assert raw.metadata["Seed"] == 6


def test_write_is_byte_deterministic(tmp_path):
    res = simulate_session(
        ProtocolParams(mu=0.05, epsilon=0.3), ChannelModel(dark_prob=1e-5),
        100_000, seed=2,
    )
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    write_raw_tallies(p1, res.tallies, {"Seed": 2})
    write_raw_tallies(p2, res.tallies, {"Seed": 2})
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_file_lists_all_missing_keys(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ParseError) as exc:
        load_raw_tallies(path)
    msg = str(exc.value)
    for key in CELL_KEYS:
        assert key in msg


def test_lenient_load_tolerates_partial(tmp_path):
    path = tmp_path / "partial.tsv"
    path.write_text("Delta-Degrees\t45\nDetected-SS11-ch0\t10\nDetected-SS11-ch1\t2\n")
    raw = load_raw_tallies(path, strict=False)
    assert raw.delta_threshold == pytest.approx(math.radians(45))
    assert raw.tallies.detected_key[("11", 0)] == 10


def test_ascii_delta_alias(tmp_path):
    src = load_raw_tallies(defaults.bundled_tally_path())
    text = open(defaults.bundled_tally_path(), encoding="utf-8").read()
    path = tmp_path / "ascii.tsv"
    path.write_text(text.replace("-Δ", "-Delta"))
    raw = load_raw_tallies(path)
    assert raw.tallies.sent_selected == src.tallies.sent_selected


def test_negative_value_rejected(tmp_path):
    path = tmp_path / "neg.tsv"
    path.write_text("Sent-00\t-5\n")
    with pytest.raises(ParseError) as exc:
        load_raw_tallies(path, strict=False)
    assert "Sent-00" in str(exc.value)


@pytest.mark.parametrize("key, value", [
    ("Sent-00", "nan"),
    ("Sent-00", "inf"),
    ("Detected-SS11-ch0", "-inf"),
    ("Mu", "nan"),
    ("Delta-Degrees", "nan"),
    ("Delta-Degrees", "0"),
    ("Delta-Degrees", "-30"),
    ("Delta-Degrees", "400"),
])
def test_non_finite_and_impossible_values_rejected(tmp_path, key, value):
    path = tmp_path / "bad.tsv"
    path.write_text(f"Sent-01\t7\n{key}\t{value}\n")
    with pytest.raises(ParseError) as exc:
        load_raw_tallies(path, strict=False)
    assert exc.value.key == key
    assert key in str(exc.value)


def test_delta_degrees_range_edges_accepted(tmp_path):
    for deg in ("180", "0.5"):
        path = tmp_path / f"d{deg}.tsv"
        path.write_text(f"Delta-Degrees\t{deg}\n")
        assert load_raw_tallies(path, strict=False).metadata["Delta-Degrees"] == float(deg)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("Sent-00\t5\nSent-00\t6\n")
    with pytest.raises(ParseError):
        load_raw_tallies(path, strict=False)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("Sent-00\tfive\n")
    with pytest.raises(ParseError):
        load_raw_tallies(path, strict=False)


def test_unknown_key_warns(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("Sent-00\t5\nTotally-Unknown\t1\n")
    with pytest.warns(UserWarning):
        load_raw_tallies(path, strict=False)


def test_selected_exceeding_sent_rejected(tmp_path):
    path = tmp_path / "inconsistent.tsv"
    path.write_text("Sent-00\t5\nSent-00-Δ\t6\n")
    with pytest.raises(ConsistencyError):
        load_raw_tallies(path, strict=False)


def test_detected_exceeding_pool_rejected(tmp_path):
    path = tmp_path / "inconsistent2.tsv"
    path.write_text("Sent-SS11-Δ\t5\nDetected-SS11-ch0\t4\nDetected-SS11-ch1\t4\n")
    with pytest.raises(ConsistencyError):
        load_raw_tallies(path, strict=False)


def test_split_sum_tolerance(tmp_path):
    # SS + TT must match the selected total within 0.5%
    path = tmp_path / "split.tsv"
    path.write_text(
        "Sent-01\t1000000\nSent-01-Δ\t100000\n"
        "Sent-SS01-Δ\t80000\nSent-TT01-Δ\t10000\n"
    )
    with pytest.raises(ConsistencyError):
        load_raw_tallies(path, strict=False)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# a comment\n\nSent-00\t5\n   \n# another\n")
    raw = load_raw_tallies(path, strict=False)
    assert raw.tallies.sent["00"] == 5


def test_loaded_cells_stack_into_the_array_chain(tmp_path):
    """A file loads as int64 counts when every cell is an integer and as
    float64 when any is not; either way a two-row stack of its cells runs
    through the array chain and gives :func:`analyze_tallies`' report bit
    for bit."""
    bundled = defaults.bundled_tally_path()
    text = open(bundled, encoding="utf-8").read()
    assert "Detected-SS11-ch1\t2647\n" in text
    halved = tmp_path / "halved.tsv"
    halved.write_text(text.replace("Detected-SS11-ch1\t2647\n", "Detected-SS11-ch1\t2647.5\n"))
    params = defaults.reference_params()
    for path, dtype in ((bundled, np.int64), (halved, np.float64)):
        raw = load_raw_tallies(path)
        assert raw.tallies.counts.dtype == dtype
        u, v = raw.tally_sets()
        want = analyze_tallies(u, v, params, n_total_pulses=raw.n_total_pulses)
        test, key = (np.stack([t.cells] * 2, axis=-1) for t in (u, v))
        values = estimate(test, key, params.mu, params.f_ec, raw.n_total_pulses)
        for i in (0, 1):
            row = {name: np.asarray(a)[..., i].tolist() for name, a in values.items()}
            got = report(row, params.mu, params.f_ec, params.delta_threshold, raw.n_total_pulses)
            assert got == want


def test_report_roundtrip():
    raw = load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(),
                          n_total_pulses=raw.n_total_pulses,
                          delta_threshold=raw.delta_threshold)
    text = emit_report(rep, fmt="json")
    assert emit_report(rep, fmt="json") == text  # deterministic
    back = json.loads(text)
    d = report_to_dict(rep)
    for key, val in d.items():
        if isinstance(val, float):
            assert back[key] == pytest.approx(val, rel=1e-15)
        else:
            assert back[key] == val


def test_report_json_has_no_nan():
    raw = load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(),
                          n_total_pulses=raw.n_total_pulses)
    text = emit_report(rep, fmt="json")
    assert "NaN" not in text
    json.loads(text)  # must be strictly valid


def test_report_table_mentions_headline_values():
    raw = load_raw_tallies(defaults.bundled_tally_path())
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(),
                          n_total_pulses=raw.n_total_pulses,
                          delta_threshold=raw.delta_threshold)
    table = emit_report(rep, fmt="table")
    for needle in ("key rate", "phase-flip", "2,248,625"):
        assert needle in table


def test_sweep_csv_layout():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    pts = sweep_distance(params, model, [10.0, 20.0], n_windows=1e10)
    text = emit_sweep_csv(pts)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("distance_km,rate_per_pulse")
    first = lines[1].split(",")
    assert float(first[0]) == 10.0
    assert float(first[1]) == pts[0].rate_per_pulse  # repr round-trips exactly


def test_sweep_csv_empty():
    assert emit_sweep_csv([]).strip().count("\n") == 0
