"""Property tests of the expected-value model, the tally file format, the
JSON report layout and the estimator over random valid inputs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfqkd import dataio, defaults
from scfqkd.channelsim import STATE_LABELS, ProtocolParams, SessionTallies, expected_tallies
from scfqkd.dataio import ParseError, load_raw_tallies, write_raw_tallies
from scfqkd.estimator import EstimationError, counting_rates, estimate, report, tallies_to_sets
from scfqkd.keyrate import analyze_tallies, key_length

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
    # The wrong-port fraction of the key cells does not depend on epsilon or
    # p_t; fix them where the key set holds both-send windows.
    params = replace(params, epsilon=0.5, p_t=0.5)
    key = expected_tallies(params, model, 1e12)[params.delta_threshold].detected_key
    assert 0.0 <= key[("11", 1)] / (key[("11", 0)] + key[("11", 1)]) <= 0.5


@st.composite
def consistent_tallies(draw):
    """Integer session tallies that satisfy every conservation rule."""
    rows = []
    for _ in STATE_LABELS:
        sent = draw(st.integers(0, 10**12))
        selected = draw(st.integers(0, sent))
        test = draw(st.integers(0, selected))
        row = [sent, selected]
        for pool in (test, selected - test):
            ch0 = draw(st.integers(0, pool))
            row += [pool, ch0, draw(st.integers(0, pool - ch0))]
        rows.append(row)
    counts = np.array(rows, dtype=np.int64)
    return SessionTallies(int(counts[:, 0].sum()), math.radians(30.0), counts)


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
        values = [*rates["by_state"].values(), *rates["by_cell"].values(), rates["total"]]
        if rates["error_rate"] is not None:
            values.append(rates["error_rate"])
        assert all(math.isnan(r) or 0.0 <= r <= 1.0 for r in values)
        assert all(math.isnan(rates["by_state"][s]) == (n == 0) for s, n in zip(STATE_LABELS, subset[:, 0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(consistent_tallies(), min_size=1, max_size=6), st.booleans(),
       st.floats(0.0, 0.1), st.sampled_from([None, 0, 1e12]))
def test_batch_of_tallies_equals_each_analysis(stack, swap, mu, n_total):
    """The estimation chain over arrays of rows gives each row's single
    analysis bit for bit, and fails exactly where it raises."""
    params = ProtocolParams(mu=mu)
    sets = [tallies_to_sets(t, swap_detectors=swap) for t in stack]
    test, key = (np.stack([s[i] for s in sets], axis=-1) for i in (0, 1))
    values = estimate(test, key, mu, params.f_ec, n_total or math.nan)
    values = {name: np.asarray(a) for name, a in values.items()}
    for i, (u, v) in enumerate(sets):
        row = {name: a[..., i].tolist() for name, a in values.items()}
        try:
            want = analyze_tallies(u, v, params, n_total_pulses=n_total)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as got:
                report(row, mu, params.f_ec, params.delta_threshold, n_total)
            assert str(got.value) == str(exc)
            continue
        assert report(row, mu, params.f_ec, params.delta_threshold, n_total) == want


_COUNTS = st.one_of(st.sampled_from([0, 1, 2**40]), st.integers(0, 10**9))


@st.composite
def leaf_arrays(draw, overfull=False):
    """One subset's (4, 3) leaves as floats: integer-valued counts, where a
    zero may be -0.0, any state may lack windows or detections, and with
    ``overfull`` a state's detections may exceed its windows."""
    leaves = []
    for _ in range(4):
        windows = draw(_COUNTS)
        left = draw(st.integers(0, windows))
        right = draw(st.integers(0, windows - left))
        if overfull and draw(st.integers(0, 3)) == 0:
            right += draw(st.integers(1, 10))
        leaves.append([draw(st.sampled_from([0.0, -0.0])) if c == 0 else float(c)
                       for c in (windows, left, right)])
    return np.array(leaves)


def _bits(value) -> list:
    """A value's leaves as ``float.hex`` strings, NaN as "nan", bools as floats."""
    return ["nan" if math.isnan(x) else float.hex(x) for x in np.ravel(np.array(value, dtype=float))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(leaf_arrays(overfull=True), leaf_arrays(),
                          st.sampled_from([0.0, -0.0, 2e-3, 0.05, 1.0, 720.0, 800.0])),
                min_size=1, max_size=5),
       st.sampled_from([1.16, 2.0]), st.sampled_from([math.nan, 1e12]))
def test_batch_chain_equals_scalar_chain_bit_for_bit(rows, f_ec, n_total):
    """Every value of :func:`estimate` over a (4, 3, rows) view, as
    ``analyze_expected_batch`` passes it, has each row's scalar-chain bits,
    -0.0 and the ``failed`` flag included; a counting rate outside [0, 1]
    raises the message of the first state, then row, that has one."""
    test, key = (np.array([r[i] for r in rows]).transpose(1, 2, 0) for i in (0, 1))
    mu = np.array([r[2] for r in rows])
    scalar, errors = [], []
    for i, (u, v, m) in enumerate(rows):
        try:
            scalar.append(estimate(u.tolist(), v.tolist(), m, f_ec, n_total))
        except ValueError as exc:
            errors.append((STATE_LABELS.index(str(exc).split("state ")[1][:2]), i, str(exc)))
    if errors:
        with pytest.raises(ValueError) as got:
            estimate(test, key, mu, f_ec, n_total)
        assert str(got.value) == min(errors)[2]
        return
    batch = estimate(test, key, mu, f_ec, n_total)
    assert batch.keys() == scalar[0].keys()
    for i, want in enumerate(scalar):
        for name, value in batch.items():
            assert _bits(np.asarray(value)[..., i]) == _bits(want[name]), (i, name)


# mu runs past about 745, where exp(-mu) underflows to 0; from about 700 the
# phase-flip bound can overflow to infinity.
@settings(max_examples=200, deadline=None)
@given(consistent_tallies(), st.booleans(), st.one_of(st.floats(0.0, 1.0), st.floats(700.0, 750.0)),
       st.sampled_from([None, 1.0, 1e12]))
def test_a_report_holds_no_nan_and_its_json_parses_back(t, swap, mu, n_total):
    """An analysis of valid tallies raises EstimationError or gives a report
    without NaN in any field or nested rate, whose JSON form parses back to
    the report's fields."""
    u, v = tallies_to_sets(t, swap_detectors=swap)
    try:
        rep = analyze_tallies(u, v, ProtocolParams(mu=mu), n_total_pulses=n_total)
    except EstimationError:
        return
    d = dataio.report_to_dict(rep)
    values = [*d.values(), *d["rates_u_by_state"].values(), *d["rates_u_by_cell"].values()]
    assert not any(isinstance(x, float) and math.isnan(x) for x in values)
    assert json.loads(dataio.emit_report(rep, fmt="json")) == d


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, -1e16, 0.1]
json_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(),
    st.integers(2**63, 2**70),
    st.booleans(),
    st.none(),
)
# Keys as the report has them (field names, state and cell labels) and any text.
json_keys = st.one_of(st.text("abcdefghijklmnopqrstuvwxyz_0123456789/LR", min_size=1, max_size=16),
                      st.text(max_size=6))


def _json_dumps(d) -> str:
    return json.dumps(d, indent=2, sort_keys=True, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(json_keys, st.one_of(json_scalars,
                                            st.dictionaries(json_keys, json_scalars, max_size=8)),
                       max_size=20))
def test_report_json_renderer_equals_json_dumps(d):
    """Report-shaped dicts (scalars and one level of nested dicts, empty
    ones included) render to the bytes ``json.dumps`` writes."""
    assert dataio._json_object(d) == _json_dumps(d)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_report_json_renderer_rejects_non_finite_floats_as_json_does(bad):
    for d in ({"x": bad}, {"a": 1.0, "rates": {"00": bad}}):
        with pytest.raises(ValueError) as want:
            _json_dumps(d)
        with pytest.raises(ValueError) as got:
            dataio._json_object(d)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", ["text", [1.0], (1,), np.int64(3), np.bool_(True), object()])
def test_report_json_renderer_rejects_other_types(bad):
    """A value outside the report's types raises TypeError; where json also
    refuses it, the message is json's."""
    with pytest.raises(TypeError) as got:
        dataio._json_object({"a": 0.5, "b": {"c": bad}})
    try:
        _json_dumps({"b": {"c": bad}})
    except TypeError as want:
        assert str(got.value) == str(want)


def test_report_json_renderer_writes_empty_dicts_as_json_does():
    assert dataio._json_object({}) == "{}" == _json_dumps({})
    d = {"rates_u_by_cell": {}, "mu": 0.002}
    assert dataio._json_object(d) == _json_dumps(d)
    assert '"rates_u_by_cell": {}' in dataio._json_object(d)
