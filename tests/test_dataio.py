import json
import math
from dataclasses import replace
from pathlib import Path

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
from scfqkd.estimator import estimate, report, tallies_to_sets
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
    ("Mu", "-0.002"),
    ("Mu", "0"),
    ("Mu", "800"),
    pytest.param("Mu", "1" + "0" * 400, id="Mu-integer-too-large-for-a-float"),
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
        test, key = (np.stack([t] * 2, axis=-1) for t in (u, v))
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


def _json_dumps_report(rep) -> str:
    return json.dumps(report_to_dict(rep), indent=2, sort_keys=True, allow_nan=False)


def test_report_json_bytes_equal_json_dumps_on_generated_files(tmp_path, monkeypatch):
    """The benchmark's own kind of input: files redrawn from the bundled one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tallygen

    base = tallygen.read_cells(defaults.bundled_tally_path())
    params = defaults.reference_params()
    for path, _n_v in tallygen.write_files(base, tmp_path, 2024, 200):
        raw = load_raw_tallies(path)
        u, v = raw.tally_sets()
        rep = analyze_tallies(u, v, params, n_total_pulses=raw.n_total_pulses,
                              delta_threshold=raw.delta_threshold)
        assert emit_report(rep, fmt="json") == _json_dumps_report(rep)


def test_report_json_bytes_equal_json_dumps_on_model_and_simulated_reports():
    """Batched expected-value rows (calibrated sweep) and a simulated session."""
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    reports = [p.report for p in sweep_distance(params, model, [0.0, 20.0, 50.0, 80.0],
                                                target_qber=0.05)]
    fast = replace(params, mu=0.02)  # enough mismatched-send detections for a report
    sim = simulate_session(fast, model, 10**7, 2)
    u, v = tallies_to_sets(sim.tallies)
    reports.append(analyze_tallies(u, v, fast, n_total_pulses=10**7))
    for rep in reports:
        assert emit_report(rep, fmt="json") == _json_dumps_report(rep)


# ``emit_report(fmt="json")`` of the bundled file without its ``Delta-Degrees``
# line, analysed with ``n_total_pulses=None`` (so the window total and rate
# are null, and the threshold is the parameters'), as ``json.dumps(indent=2,
# sort_keys=True)`` wrote it.
NULL_FIELDS_REPORT_JSON = (
    '{\n'
    '  "delta_threshold": 0.5235987755982988,\n'
    '  "e_ph_flagged": false,\n'
    '  "e_ph_upper": 0.1905615553530922,\n'
    '  "e_u": 0.02120938988107108,\n'
    '  "e_v": 0.021325031963977985,\n'
    '  "f_ec": 1.1,\n'
    '  "mu": 0.002,\n'
    '  "n_f": 288267.7709396712,\n'
    '  "n_f_raw": 288267.7709396712,\n'
    '  "n_tilde_z": 2207341.4024429754,\n'
    '  "n_total_pulses": null,\n'
    '  "n_v": 2248625,\n'
    '  "rate_per_pulse": null,\n'
    '  "rates_u_by_cell": {\n'
    '    "00/L": 7.2157843085827266e-09,\n'
    '    "00/R": 6.101938408600158e-09,\n'
    '    "01/L": 0.00013678448299515546,\n'
    '    "01/R": 0.00013731638508754064,\n'
    '    "10/L": 0.00014021431959972732,\n'
    '    "10/R": 0.00013922570267494054,\n'
    '    "11/L": 0.0004968220412450563,\n'
    '    "11/R": 3.310045325553991e-05\n'
    '  },\n'
    '  "rates_u_by_state": {\n'
    '    "00": 1.3317722717182885e-08,\n'
    '    "01": 0.0002741008680826961,\n'
    '    "10": 0.0002794400222746679,\n'
    '    "11": 0.0005299224945005961\n'
    '  },\n'
    '  "s_tilde_z": 0.00027677044517868197,\n'
    '  "s_u": 1.1637643929685553e-05,\n'
    '  "x_lower_clamped": false,\n'
    '  "x_lower_left": 0.00010121371275833878,\n'
    '  "x_upper_right": 1.537036040371218e-05\n'
    '}'
)


def test_report_json_with_null_fields_is_pinned(tmp_path):
    text = Path(defaults.bundled_tally_path()).read_text(encoding="utf-8")
    target = tmp_path / "nodelta.tsv"
    target.write_text("".join(line for line in text.splitlines(keepends=True)
                              if not line.startswith("Delta-Degrees")), encoding="utf-8")
    raw = load_raw_tallies(target)
    u, v = raw.tally_sets()
    rep = analyze_tallies(u, v, defaults.reference_params(), n_total_pulses=None,
                          delta_threshold=raw.delta_threshold)
    assert emit_report(rep, fmt="json") == NULL_FIELDS_REPORT_JSON


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


@pytest.mark.parametrize("text, message, key, line", [
    ("Sent-00\t5\nUnknown-Key\tmany\n",
     ":2: value of 'Unknown-Key' is not a number: 'many'", "Unknown-Key", 2),
    ("Sent-00-Δ\t5\nSent-00-Delta\t5\n", ": duplicate key 'Sent-00-Δ'", "Sent-00-Δ", 2),
    ("Sent-01\t7\nSent-00\tinf\n", ":2: value of 'Sent-00' is not finite: 'inf'", "Sent-00", 2),
    ("Sent-00\t-1.5\n", ": negative count for 'Sent-00': -1.5", "Sent-00", 1),
    ("Sent-00\t5\nDelta-Degrees\t0\n",
     ":2: 'Delta-Degrees' must lie in (0, 180] degrees, got 0", "Delta-Degrees", 2),
    ("Sent-00\t5\nSent-00 5 6\n", ":2: expected 'name value', got 'Sent-00 5 6'", None, 2),
    ("Sent-01\t7\nSent-00\t1" + "0" * 400 + "\n",
     ":2: count for 'Sent-00' is too large for a float: '1" + "0" * 400 + "'", "Sent-00", 2),
    ("Sent-01\t7\nMu\t1" + "0" * 400 + "\n",
     ":2: value of 'Mu' is too large for a float: '1" + "0" * 400 + "'", "Mu", 2),
], ids=["unknown-not-a-number", "delta-spellings-duplicate", "inf-cell", "negative-float",
        "zero-threshold", "three-fields", "int-above-float-range", "mu-above-float-range"])
def test_parse_error_names_key_and_line(tmp_path, text, message, key, line):
    """Which check fails first, and what its error says, for lines that
    break more than one rule or sit where one rule ends and another starts."""
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_raw_tallies(path, strict=False)
    assert (str(exc.value), exc.value.key, exc.value.line) == (f"{path}{message}", key, line)


def test_huge_metadata_integer_stays_as_written(tmp_path):
    """Only counts, ``Mu`` and ``Delta-Degrees`` must fit a float; another
    metadata integer is kept exact."""
    path = tmp_path / "seed.tsv"
    seed = 10**400 + 7
    path.write_text(f"Seed\t{seed}\nSent-00\t{2**70}\n")
    raw = load_raw_tallies(path, strict=False)
    assert raw.metadata == {"Seed": seed}
    assert raw.tallies.counts.dtype == float and raw.tallies.sent["00"] == 2.0**70


def test_unknown_key_is_ignored_before_its_value_is_checked(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("Sent-00\t5\nUnknown-Key\tnan\n")
    with pytest.warns(UserWarning, match="ignoring unknown key 'Unknown-Key'"):
        raw = load_raw_tallies(path, strict=False)
    assert raw.tallies.sent["00"] == 5 and raw.metadata == {}


def test_tabs_spaces_and_indented_comments(tmp_path):
    path = tmp_path / "mixed.tsv"
    path.write_text("  # a b c\nSent-00\t5\n  Sent-01   7  \nDelta-Degrees 30.0\n")
    raw = load_raw_tallies(path, strict=False)
    assert raw.tallies.sent == {"00": 5, "01": 7, "10": 0, "11": 0}
    assert raw.metadata == {"Delta-Degrees": 30.0}
