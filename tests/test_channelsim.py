import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest

from scfqkd import channelsim, dataio, defaults, keyrate, phasecore, phasetrack
from scfqkd.channelsim import (
    CHUNK_WINDOWS,
    STATE_LABELS,
    ChannelModel,
    ProtocolParams,
    arm_transmittance,
    click_probabilities,
    expected_tallies,
    simulate_session,
)
from scfqkd.phasecore import minor_angle
from scfqkd.phasetrack import (
    DEFAULT_SPAN_WINDOWS,
    estimate_phase_batch,
    estimation_error_profile,
    slot_probabilities,
)


def test_protocol_params_validation():
    ProtocolParams(mu=0.0, epsilon=0.0, p_t=0.0)  # boundary values allowed
    with pytest.raises(ValueError):
        ProtocolParams(mu=-0.1)
    with pytest.raises(ValueError, match="mu must be finite"):
        ProtocolParams(mu=math.inf)
    with pytest.raises(ValueError):
        ProtocolParams(epsilon=1.5)
    with pytest.raises(ValueError):
        ProtocolParams(delta_threshold=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(delta_threshold=3.5)
    with pytest.raises(ValueError):
        ProtocolParams(f_ec=0.9)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(fiber_km_a=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(det_eff_left=1.2)
    with pytest.raises(ValueError):
        ChannelModel(dark_prob=1.5)
    with pytest.raises(ValueError):
        ChannelModel(visibility=-0.1)


@pytest.mark.parametrize("cls, name, bad, message", [
    (ProtocolParams, "mu", -0.1, "mu must be finite and non-negative, got -0.1"),
    (ProtocolParams, "epsilon", 1.5, r"epsilon must lie in \[0, 1\], got 1.5"),
    (ProtocolParams, "delta_threshold", 0.0, r"delta_threshold must lie in \(0, pi\], got 0.0"),
    (ProtocolParams, "f_ec", 0.9, "f_ec must be finite and at least 1, got 0.9"),
    (ProtocolParams, "p_t", -0.5, r"p_t must lie in \[0, 1\], got -0.5"),
    (ChannelModel, "fiber_km_a", -1.0, "fiber_km_a must be finite and non-negative, got -1.0"),
    (ChannelModel, "fiber_km_b", -2.0, "fiber_km_b must be finite and non-negative, got -2.0"),
    (ChannelModel, "atten_db_per_km", -0.2, "atten_db_per_km must be finite and non-negative, got -0.2"),
    (ChannelModel, "comp_loss_db_a", -3.0, "comp_loss_db_a must be finite and non-negative, got -3.0"),
    (ChannelModel, "comp_loss_db_b", -4.0, "comp_loss_db_b must be finite and non-negative, got -4.0"),
    (ChannelModel, "det_eff_left", 1.2, r"det_eff_left must lie in \[0, 1\], got 1.2"),
    (ChannelModel, "det_eff_right", -0.1, r"det_eff_right must lie in \[0, 1\], got -0.1"),
    (ChannelModel, "dark_prob", 1.0, r"dark_prob must lie in \[0, 1\), got 1.0"),
    (ChannelModel, "drift_rad_per_window", -1e-3,
     "drift_rad_per_window must be finite and non-negative, got -0.001"),
    (ChannelModel, "visibility", -0.1, r"visibility must lie in \[0, 1\], got -0.1"),
])
def test_every_field_has_a_range_rule_that_names_the_value(cls, name, bad, message):
    """One range-rule table checks every field, and each message gives the
    refused value; NaN is refused too."""
    assert {f.name for f in fields(cls)} <= phasecore.RANGES.keys()
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**{name: bad})
    with pytest.raises(ValueError, match=f"^{name} must .*, got nan$"):
        cls(**{name: math.nan})


def test_arm_transmittance_known_values():
    m = ChannelModel(fiber_km_a=25.0, fiber_km_b=0.0, comp_loss_db_b=0.0)
    assert arm_transmittance(m, "a") == pytest.approx(10 ** -0.5, rel=1e-12)
    assert arm_transmittance(m, "a") == pytest.approx(0.3162, abs=5e-5)
    assert arm_transmittance(m, "b") == 1.0
    m2 = ChannelModel(fiber_km_a=25.0, comp_loss_db_a=4.78)
    assert arm_transmittance(m2, "a") == pytest.approx(10 ** (-9.78 / 10), rel=1e-12)
    assert arm_transmittance(m2, "a") == pytest.approx(0.1055, rel=5e-3)
    with pytest.raises(ValueError):
        arm_transmittance(m, "c")


def test_click_probabilities_vacuum():
    params = ProtocolParams()
    model = ChannelModel(dark_prob=0.0)
    assert click_probabilities(params, model, False, False, 0.3) == (0.0, 0.0)
    model = ChannelModel(dark_prob=1e-4)
    pl, pr = click_probabilities(params, model, False, False, 0.0)
    assert pl == pytest.approx(1e-4)
    assert pr == pytest.approx(1e-4)


def test_click_probabilities_single_sender_phase_free():
    params = ProtocolParams(mu=0.1)
    model = ChannelModel(
        fiber_km_a=5.0, fiber_km_b=9.0, dark_prob=0.0,
        det_eff_left=0.8, det_eff_right=0.8,
    )
    t = params.mu * arm_transmittance(model, "a") * 0.8
    ref = None
    for delta in (0.0, 1.0, math.pi):
        pl, pr = click_probabilities(params, model, True, False, delta)
        assert pl == pytest.approx(1.0 - math.exp(-t / 2), rel=1e-12)
        assert pl == pytest.approx(pr)
        if ref is None:
            ref = (pl, pr)
        assert (pl, pr) == ref


def test_click_probabilities_both_send_interference():
    params = ProtocolParams(mu=0.2)
    model = ChannelModel(
        fiber_km_a=0.0, fiber_km_b=0.0, dark_prob=0.0,
        det_eff_left=0.7, det_eff_right=0.7, visibility=1.0,
    )
    pl, pr = click_probabilities(params, model, True, True, 0.0)
    # bright port takes both fields, dim port is dark-count only
    assert pl == pytest.approx(1.0 - math.exp(-2 * params.mu * 0.7), rel=1e-12)
    assert pr == pytest.approx(0.0, abs=1e-15)


def test_click_probabilities_against_photon_sampling():
    """Monte Carlo oracle: Poisson photon number plus Bernoulli detection."""
    params = ProtocolParams(mu=0.25)
    model = ChannelModel(
        fiber_km_a=3.0, fiber_km_b=4.0, dark_prob=2e-4,
        det_eff_left=0.65, det_eff_right=0.55, visibility=0.9,
    )
    delta = 0.7
    pl, pr = click_probabilities(params, model, True, True, delta)
    ia = params.mu * arm_transmittance(model, "a")
    ib = params.mu * arm_transmittance(model, "b")
    cross = math.sqrt(ia * ib) * model.visibility * math.cos(delta)
    ports = {
        "left": ((ia + ib) / 2 + cross, model.det_eff_left, pl),
        "right": ((ia + ib) / 2 - cross, model.det_eff_right, pr),
    }
    rng = np.random.default_rng(914)
    n = 2_000_000
    for name, (intensity, eta, p_model) in ports.items():
        photons = rng.poisson(intensity, size=n)
        detected = rng.binomial(photons, eta) > 0
        dark = rng.random(n) < model.dark_prob
        freq = float(np.mean(detected | dark))
        sigma = math.sqrt(p_model * (1 - p_model) / n)
        assert abs(freq - p_model) < 4 * sigma, name


def test_simulate_session_conservation():
    params = ProtocolParams(mu=0.05, epsilon=0.3)
    model = ChannelModel(fiber_km_a=2.0, fiber_km_b=2.0, dark_prob=1e-5)
    n = 300_000
    res = simulate_session(params, model, n, seed=1)
    t = res.tallies
    assert sum(t.sent.values()) == n
    for s in t.sent:
        assert 0 <= t.sent_selected[s] <= t.sent[s]
        assert t.sent_test[s] + t.sent_key[s] == t.sent_selected[s]
    for (s, ch), c in t.detected_test.items():
        assert c <= t.sent_test[s]
    for (s, ch), c in t.detected_key.items():
        assert c <= t.sent_key[s]
    assert 0 <= t.effective_windows <= n


def test_simulate_session_epsilon_boundaries():
    model = ChannelModel(dark_prob=0.0)
    res = simulate_session(ProtocolParams(mu=0.002, epsilon=0.0), model, 50_000, seed=3)
    assert res.tallies.sent["00"] == 50_000
    assert res.tallies.sent["01"] == res.tallies.sent["10"] == res.tallies.sent["11"] == 0
    assert sum(res.tallies.detected_test.values()) + sum(res.tallies.detected_key.values()) == 0
    res = simulate_session(ProtocolParams(mu=0.002, epsilon=1.0), model, 50_000, seed=3)
    assert res.tallies.sent["11"] == 50_000


def test_simulate_session_no_light_no_dark_is_silent():
    params = ProtocolParams(mu=0.0, epsilon=0.5)
    model = ChannelModel(dark_prob=0.0)
    res = simulate_session(params, model, 100_000, seed=9)
    assert sum(res.tallies.detected_test.values()) + sum(res.tallies.detected_key.values()) == 0
    assert res.tallies.effective_windows == 0


def test_mismatched_send_fraction_binomial():
    eps = 0.021
    params = ProtocolParams(mu=0.002, epsilon=eps)
    model = ChannelModel()
    n = 2_000_000
    res = simulate_session(params, model, n, seed=12)
    t = res.tallies
    p = 2 * eps * (1 - eps)
    frac = (t.sent["01"] + t.sent["10"]) / n
    assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / n)


def _spy_helpers(monkeypatch):
    """Count the helper processes that sessions start from now on."""
    started, real = [], channelsim._start_helper

    def spy(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(channelsim, "_start_helper", spy)
    return started


def _empty_chunk(session, k):
    """Chunk rows for the one threshold of ``ProtocolParams()``, then the
    rows that keep every window: every window sent in state 00, none kept
    at the threshold and none effective."""
    m = min(CHUNK_WINDOWS, session[3] - k * CHUNK_WINDOWS)
    rows = np.zeros((2, 4, 8), np.int64)
    rows[:, 0, 0] = rows[1, 0, 1] = rows[1, 0, 5] = m
    return rows


def _one_chunk(params, model, m, thresholds):
    """The session argument of ``_chunk_tallies`` for one chunk of ``m``
    windows at seed 9, starting at phase 0.3 with drift total -0.2, the
    count table and the 00/01/10 windows' label probabilities: (state,
    subset) prior times (no effective click, on ch0, on ch1)."""
    eps, p_t = params.epsilon, params.p_t
    prior = np.outer([1 - eps, eps, eps], [p_t, 1 - p_t]) / (1 + eps)
    q0, q1 = channelsim._effective_probs(params, model, math.pi)[:3].T
    click = np.stack((1 - q0 - q1, q0, q1), axis=1)
    label_p = (prior[:, :, None] * click[:, None, :]).ravel()
    return params, model, 9, m, [0.3], [-0.2], np.asarray(thresholds), channelsim._count_table(), label_p


def test_worker_count_does_not_change_tallies(monkeypatch):
    """Sessions long enough that 2 and 3 workers start helpers, with an
    uneven last chunk, give the tallies of one worker at every threshold,
    on the keep-level grid (30 degrees) and off it, effective windows
    included."""
    params = ProtocolParams(mu=0.05, epsilon=0.25)
    model = ChannelModel(fiber_km_a=4.0, fiber_km_b=4.0, dark_prob=1e-5)
    n = CHUNK_WINDOWS * 3 * channelsim.MIN_CHUNKS_PER_PROCESS + 12345
    thresholds = [math.radians(12.5), math.radians(30.25)]
    base = simulate_session(params, model, n, seed=77, workers=1, thresholds=thresholds).by_threshold
    assert len(base) == 3
    for t in base.values():
        assert type(t.effective_windows) is int and t.effective_windows > 0
    started = _spy_helpers(monkeypatch)
    for workers in (2, 3):
        started.clear()
        other = simulate_session(params, model, n, seed=77, workers=workers, thresholds=thresholds)
        assert len(started) == workers - 1
        assert list(other.by_threshold) == list(base)
        for thr, t in other.by_threshold.items():
            assert t == base[thr] and type(t.effective_windows) is int


def test_phase_tracking_error_is_small():
    """With generous reference counts the per-window estimate tracks truth."""
    prof = estimation_error_profile(mean_total=5000.0, n_trials=2000, seed=15)
    assert prof.rms_error < 0.1


def test_worker_pool_released_on_error(monkeypatch, tmp_path):
    """A chunk fails in a helper or in this process: that error reaches the
    caller, no process is left running, and the others stop claiming chunks."""
    n_chunks, here = 16, os.getpid()
    started = _spy_helpers(monkeypatch)
    for in_helper in (True, False):
        log = tmp_path / str(in_helper)
        log.mkdir()

        def chunk(session, k):
            (log / f"{k}-{os.getpid()}").touch()
            if (os.getpid() != here) == in_helper:
                raise RuntimeError(f"chunk failed in {os.getpid()}")
            time.sleep(0.05)
            return _empty_chunk(session, k)

        monkeypatch.setattr(channelsim, "_chunk_tallies", chunk)
        with pytest.raises(RuntimeError, match="chunk failed in") as info:
            simulate_session(ProtocolParams(), ChannelModel(), n_chunks * CHUNK_WINDOWS, seed=1, workers=2)
        assert multiprocessing.active_children() == []
        assert (str(here) not in str(info.value)) == in_helper
        ran = [path.name for path in log.iterdir()]
        assert len(ran) <= n_chunks // 2, sorted(ran)
    assert len(started) == 2


def test_helper_exit_without_result_raises(monkeypatch):
    """A helper that dies without sending its sum is an error, not a hang."""
    here = os.getpid()

    def chunk(session, k):
        if os.getpid() != here:
            os._exit(3)
        time.sleep(0.01)
        return _empty_chunk(session, k)

    def hung(*_):
        pytest.fail("the session still waits for the dead helper")

    monkeypatch.setattr(channelsim, "_chunk_tallies", chunk)
    n = 2 * channelsim.MIN_CHUNKS_PER_PROCESS * CHUNK_WINDOWS
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            simulate_session(ProtocolParams(), ChannelModel(), n, seed=1, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_chunks, workers, helpers", [(5, 2, 0), (8, 3, 1), (12, 8, 2)])
def test_helpers_start_only_above_the_cap(monkeypatch, n_chunks, workers, helpers):
    """Each process gets at least MIN_CHUNKS_PER_PROCESS chunks, so a short
    session starts fewer helpers than workers - 1, or none."""
    assert channelsim.MIN_CHUNKS_PER_PROCESS == 4
    started = _spy_helpers(monkeypatch)
    claimed = []

    def chunk(session, k):
        claimed.append(k)
        return _empty_chunk(session, k)

    monkeypatch.setattr(channelsim, "_chunk_tallies", chunk)
    simulate_session(ProtocolParams(), ChannelModel(), n_chunks * CHUNK_WINDOWS, seed=1, workers=workers)
    assert len(started) == helpers
    assert multiprocessing.active_children() == []
    if not helpers:
        assert claimed == list(range(n_chunks))


def test_two_workers_start_one_helper(monkeypatch):
    """workers counts this process, so a 2-worker session starts one helper."""
    started = _spy_helpers(monkeypatch)
    n = 2 * channelsim.MIN_CHUNKS_PER_PROCESS * CHUNK_WINDOWS
    simulate_session(ProtocolParams(), ChannelModel(), n, seed=5, workers=2)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kwargs, message", [
    ({"n_windows": 1000.7}, "n_windows must be a whole number of at least 1, got 1000.7"),
    ({"n_windows": math.nan}, "n_windows must be a whole number of at least 1, got nan"),
    ({"n_windows": math.inf}, "n_windows must be a whole number of at least 1, got inf"),
    ({"n_windows": 0}, "n_windows must be a whole number of at least 1, got 0"),
    ({"n_windows": None}, "n_windows must be a whole number of at least 1, got None"),
    ({"workers": 2.0}, "workers must be a positive integer, got 2.0"),
    ({"workers": 0}, "workers must be a positive integer, got 0"),
    ({"seed": -3}, "seed must be a non-negative integer, got -3"),
    ({"seed": 1.0}, "seed must be a non-negative integer, got 1.0"),
    ({"seed": None}, "seed must be a non-negative integer, got None"),
])
def test_simulate_session_rejects_bad_counts_by_name(kwargs, message):
    args = {"n_windows": 1000, "workers": 1, "seed": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_session(ProtocolParams(), ChannelModel(), **args)


def test_simulate_session_takes_whole_float_windows():
    params, model = ProtocolParams(mu=0.1, epsilon=0.3), ChannelModel(dark_prob=1e-4)
    res = simulate_session(params, model, 2e4, seed=3)
    assert type(res.tallies.n_windows) is int
    assert res.tallies == simulate_session(params, model, 20_000, seed=3).tallies


def test_single_chunk_session_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk session started a helper")

    params = ProtocolParams(mu=0.1, epsilon=0.3)
    model = ChannelModel(dark_prob=1e-4, visibility=0.9)
    thresholds = [math.radians(10)]
    one = simulate_session(params, model, 50_000, seed=6, thresholds=thresholds)
    monkeypatch.setattr(channelsim, "_start_helper", no_pool)
    two = simulate_session(params, model, 50_000, seed=6, workers=2, thresholds=thresholds)
    for name, res in (("one", one), ("two", two)):
        for thr, t in res.by_threshold.items():
            dataio.write_raw_tallies(tmp_path / f"{name}_{thr}.tsv", t, {"Windows": 50_000})
    for thr in one.by_threshold:
        assert (tmp_path / f"one_{thr}.tsv").read_bytes() == (tmp_path / f"two_{thr}.tsv").read_bytes()


def test_threshold_tallies_do_not_depend_on_other_thresholds():
    params = ProtocolParams(mu=0.1, epsilon=0.3)
    # A drift of 1 rad per window makes the spans' mean phases independent
    # and uniform.
    model = ChannelModel(fiber_km_a=5.0, fiber_km_b=5.0, dark_prob=1e-4, visibility=0.9,
                         drift_rad_per_window=1.0)
    n = 5 * CHUNK_WINDOWS
    extra = [math.radians(5), math.radians(45), math.radians(90)]
    alone = simulate_session(params, model, n, seed=21, thresholds=[extra[1]])
    together = simulate_session(params, model, n, seed=21, thresholds=extra)
    assert alone.by_threshold[extra[1]] == together.by_threshold[extra[1]]
    assert alone.tallies == together.tallies
    # Two thresholds off the keep-level grid, inside one bin (28 to 29
    # degrees) whose spans they split: each reads a prefix of the bin's split.
    # Lattice levels cut the bin into three parts that each hold a span's
    # level with probability above 1.3e-3 at a uniform phase and 45 mean
    # reference counts, such as the rays of (D1, D2) = (13, 7), (22, 12) and
    # (20, 11), so with 20,480 spans a part stays empty with probability
    # below 1e-11.
    pair = [0.495, 0.501]
    rays = minor_angle(np.arctan2([7.0, 12.0, 11.0], [13.0, 22.0, 20.0]))
    assert math.radians(28) < rays[0] < pair[0] < rays[1] < pair[1] < rays[2] < math.radians(29)
    together = simulate_session(params, model, n, seed=21, thresholds=extra + pair)
    for thr in pair:
        alone = simulate_session(params, model, n, seed=21, thresholds=[thr])
        assert alone.by_threshold[thr] == together.by_threshold[thr]
    kept = [together.by_threshold[t].counts[:, 1].sum() for t in pair]
    edges = simulate_session(params, model, n, seed=21, thresholds=np.radians([28, 29]))
    assert edges.by_threshold[math.radians(28)].counts[:, 1].sum() < kept[0]
    assert kept[0] < kept[1] < edges.by_threshold[math.radians(29)].counts[:, 1].sum()


def test_keep_level_edges_are_whole_degrees():
    edges = channelsim._KEEP_EDGES.tolist()
    assert [e.hex() for e in edges] == [math.radians(k).hex() for k in range(1, 181)]
    assert edges[-1] == math.pi


def test_bin_prefix_draws_windows_without_replacement():
    """A prefix of k of a bin's N windows has the hypergeometric mean k/N of
    every (state, subset, click) label; prefixes of one order are nested,
    and the whole order gives the bin's label counts back."""
    labels = np.array([[[32, 3, 5], [6, 1, 0]], [[0, 0, 0], [2, 4, 6]], [[16, 0, 9], [0, 2, 0]]])
    n = labels.sum()

    draws = 4000
    got = np.array([
        [channelsim._bin_prefix(np.random.default_rng([36, i]), labels, k) for k in (20, 55)]
        for i in range(draws)
    ])
    assert np.all(got[:, 0] <= got[:, 1])
    for j, k in enumerate((20, 55)):
        assert np.all(got[:, j].sum(axis=(1, 2, 3)) == k)
        want = labels * k / n
        var = k * (labels / n) * (1 - labels / n) * (n - k) / (n - 1)
        live = var > 0
        assert np.all(got[:, j].std(axis=0)[~live] == 0)
        z = (got[:, j].mean(axis=0) - want)[live] / np.sqrt(var[live] / draws)
        assert np.abs(z).max() < 5
    rng = np.random.default_rng(37)
    assert np.array_equal(channelsim._bin_prefix(rng, labels, n), labels)
    assert not channelsim._bin_prefix(rng, labels, 0).any()


def _inject_estimates(monkeypatch, estimates):
    """Give the spans of a chunk the phase estimates ``estimates(n_spans)``:
    their bins through :func:`channelsim._table_bins`, and the float levels
    that a threshold between edges reads through
    ``phasetrack.estimate_phase_batch``."""
    def bins(counts):
        return np.searchsorted(channelsim._KEEP_EDGES, minor_angle(estimates(len(counts))), "right")

    monkeypatch.setattr(channelsim, "_table_bins", bins)
    monkeypatch.setattr(phasetrack, "estimate_phase_batch", lambda counts: estimates(len(counts)))


@pytest.mark.parametrize("level", [math.radians(10), 0.5])
def test_span_at_a_threshold_is_discarded(monkeypatch, level):
    """Every span's keep level equals a threshold, on the grid or off it:
    none is kept there, and all are kept at the next float above it."""
    _inject_estimates(monkeypatch, lambda n: np.full(n, level))
    params = ProtocolParams(mu=0.5, epsilon=0.3)
    model = ChannelModel(dark_prob=1e-3, visibility=0.9)
    thresholds = np.array([level, np.nextafter(level, 4.0), math.pi])
    m = 5 * DEFAULT_SPAN_WINDOWS + 77
    at, above, widest, every = channelsim._chunk_tallies(_one_chunk(params, model, m, thresholds), 0)
    assert not at[:, 1:].any() and np.array_equal(at[:, 0], every[:, 0])
    assert np.array_equal(above, every) and np.array_equal(widest, every)
    assert every[:, [3, 4, 6, 7]].sum() > 0


def test_ragged_final_span_with_every_window_both_send():
    params = ProtocolParams(mu=0.05, epsilon=1.0)
    model = ChannelModel(fiber_km_a=2.0, fiber_km_b=2.0, dark_prob=1e-4, visibility=0.9)
    n = 2 * CHUNK_WINDOWS + 12345  # the last span holds 105 windows
    res = simulate_session(params, model, n, seed=8, thresholds=[math.pi])
    assert res.tallies.sent == {"00": 0, "01": 0, "10": 0, "11": n}
    widest = res.by_threshold[math.pi]
    assert 0.9 * n < widest.sent_selected["11"] <= n
    detected = sum(widest.detected_test.values()) + sum(widest.detected_key.values())
    assert 0 < detected <= res.tallies.effective_windows
    assert simulate_session(params, model, n, seed=8, workers=2).tallies == res.tallies


def _oracle_cells(params, model, n, rng):
    """Per-window reference sampler: every window draws its own drift step,
    send decisions, clicks and test flag, as the session simulator did
    before it sampled per span.  Returns the cells of :func:`_sampler_cells`."""
    phases = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(
        model.drift_rad_per_window * rng.standard_normal(n))
    alice = rng.random(n) < params.epsilon
    bob = rng.random(n) < params.epsilon
    starts = np.arange(0, n, DEFAULT_SPAN_WINDOWS)
    span_mean = np.add.reduceat(phases, starts) / np.minimum(DEFAULT_SPAN_WINDOWS, n - starts)
    counts = rng.poisson(0.5 * phasetrack.DEFAULT_MEAN_REF_COUNTS * slot_probabilities(span_mean))
    kept_span = minor_angle(estimate_phase_batch(counts)) < params.delta_threshold
    kept = np.repeat(kept_span, DEFAULT_SPAN_WINDOWS)[:n]
    p_left, p_right = click_probabilities(params, model, alice, bob, phases)
    left = rng.random(n) < p_left
    right = rng.random(n) < p_right
    is_test = rng.random(n) < params.p_t
    state = 2 * alice.astype(int) + bob
    effective = left != right
    cells = []
    for subset in (is_test, ~is_test):
        pool = kept & subset
        cells.append(np.bincount(state[pool], minlength=4))
        clicked = pool & effective
        cells.append(np.bincount(2 * state[clicked] + right[clicked], minlength=8))
    return np.concatenate(cells + [[effective.sum()]])


def _sampler_cells(t):
    """Test windows per state, test detections per (state, channel), the
    same two for the key set, and the effective windows: 25 cells."""
    cells = []
    for sent, det in ((t.sent_test, t.detected_test), (t.sent_key, t.detected_key)):
        cells += [sent[s] for s in STATE_LABELS]
        cells += [det[(s, ch)] for s in STATE_LABELS for ch in (0, 1)]
    return np.array(cells + [t.effective_windows])


def _z_mean_var(x, var):
    """|z| of the sample mean of x against 0, and of its variance against
    ``var`` (x Gaussian)."""
    n = x.size
    return abs(x.mean()) / math.sqrt(var / n), abs(x.var() / var - 1.0) / math.sqrt(2.0 / n)


def _every_window(length):
    """Chunk indices and spans of every window of a chunk: all both-send."""
    return np.arange(length.sum()), np.repeat(np.arange(len(length)), length)


def test_spread_picks_distinct_sorted_uniform():
    rng = np.random.default_rng(3)
    # Ragged pools: 1,000 spans of 105 windows, then full ones and empty ones.
    pool = np.concatenate((np.full(1000, 105), np.tile([DEFAULT_SPAN_WINDOWS, 0], 19_000)))
    start = np.cumsum(pool) - pool
    k = 40_000
    picks, span = channelsim._spread(rng, pool, k)
    assert picks.size == k and np.all(np.diff(picks) > 0)
    assert 0 <= picks[0] and picks[-1] < pool.sum()
    pos = picks - start[span]
    assert np.all((0 <= pos) & (pos < pool[span]))
    ragged = np.mean(span < 1000)
    p = 105_000 / pool.sum()
    assert abs(ragged - p) < 5 * math.sqrt(p * (1 - p) / k)
    full = pos[pool[span] == DEFAULT_SPAN_WINDOWS]
    expect = full.size / DEFAULT_SPAN_WINDOWS
    chi2 = float(np.sum((np.bincount(full, minlength=DEFAULT_SPAN_WINDOWS) - expect) ** 2) / expect)
    dof = DEFAULT_SPAN_WINDOWS - 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof)

    # Two of five windows, in spans of 2, 0 and 3: every one of the ten
    # pairs is equally likely.
    draws = 20_000
    drawn = np.array([channelsim._spread(rng, np.array([2, 0, 3]), 2) for _ in range(draws)])
    pairs, spans = drawn[:, 0], drawn[:, 1]
    lo, hi = pairs.T
    assert np.all(0 <= lo) and np.all(lo < hi) and np.all(hi < 5)
    assert np.array_equal(spans, np.where(pairs < 2, 0, 2))
    counts = np.bincount(lo * 5 + hi, minlength=25).reshape(5, 5)[np.triu_indices(5, 1)]
    expect = draws / 10
    assert counts.sum() == draws
    assert np.sum((counts - expect) ** 2 / expect) < 9 + 5 * math.sqrt(18)

    # No picks, and every window of a ragged pool with empty spans.
    pool = np.array([0, 3, 0, 0, 5, 1, 0])
    picks, span = channelsim._spread(rng, pool, 0)
    assert picks.size == 0 and span.size == 0
    picks, span = channelsim._spread(rng, pool, 9)
    assert np.array_equal(picks, np.arange(9))
    assert np.array_equal(span, np.repeat(np.arange(7), pool))


def test_bridge_positions_and_span_mean_law():
    rng = np.random.default_rng(4)
    spans = 20_000
    length = np.where(np.arange(spans) < 1000, 105, DEFAULT_SPAN_WINDOWS)
    start = np.cumsum(length) - length
    both, span = channelsim._spread(rng, length, 30_000)
    # On the noiseless climb W_t = t the walk sits at each given window's
    # time, and every span mean, quiet or busy, is the mean of its window
    # times.
    climb, offset = channelsim._bridge(rng, float(length.sum()), length, both, span, 0.0)
    assert np.allclose(offset, both + 1, rtol=1e-12, atol=0)
    assert np.allclose(climb, start + (length + 1) / 2, rtol=1e-12, atol=0)

    # A quiet span is one segment: alone in a chunk with total T, its mean
    # is N(T (L+1) / (2L), sigma**2 (L+1)(L-1) / (12L)).
    scale = 0.02
    none = np.zeros(0, dtype=int)
    for n in (105, DEFAULT_SPAN_WINDOWS):
        one = np.array([n])
        mean = np.array([channelsim._bridge(rng, 3.0, one, none, none, scale)[0][0] for _ in range(4000)])
        res = mean - 3.0 * (n + 1) / (2 * n)
        assert max(_z_mean_var(res, scale**2 * (n + 1) * (n - 1) / (12 * n))) < 5, n

    # A chunk without both-send windows draws two normals per span, one at
    # its end and one for its mean, and nothing else.
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    _, offset = channelsim._bridge(rng, 3.0, length, none, none, scale)
    assert offset.size == 0
    twin.standard_normal(2 * spans)
    assert rng.bit_generator.state == twin.bit_generator.state

    # Every window both-send (epsilon = 1), full spans, a ragged one and a
    # one-window one: W at the chunk end is the total, and the span mean is
    # the mean of the pinned walk.
    length = np.array([DEFAULT_SPAN_WINDOWS, DEFAULT_SPAN_WINDOWS, 105, 1])
    total = rng.standard_normal()
    both, span = _every_window(length)
    mean, offset = channelsim._bridge(rng, total, length, both, span, 0.05)
    assert abs(offset[-1] - total) < 1e-12
    assert np.allclose(mean, np.bincount(span, offset) / length, rtol=0, atol=1e-12)


def test_bridge_pinned_value_and_span_mean_law():
    """In a chunk of one L-window span with drift total T, the walk at window
    tau has mean T tau / L and variance sigma**2 tau (L - tau) / L, and
    covariance sigma**2 / L**2 sum_j min(tau, j)(L - max(tau, j)) with the
    span mean, whose own law given T is
    N(T (L+1) / (2L), sigma**2 (L+1)(L-1) / (12L))."""
    length, scale, draws = 9, 0.3, 8000
    rng = np.random.default_rng(31)
    total = scale * math.sqrt(length) * rng.standard_normal(draws)
    tau = rng.integers(1, length + 1, draws)
    span = np.zeros(1, dtype=int)
    draw = [channelsim._bridge(rng, s, np.array([length]), np.array([t - 1]), span, scale)
            for s, t in zip(total, tau)]
    mean, offset = (np.array([d[i][0] for d in draw]) for i in (0, 1))
    m_res = mean - total * (length + 1) / (2 * length)
    m_var = scale**2 * (length + 1) * (length - 1) / (12 * length)
    assert max(_z_mean_var(m_res, m_var)) < 5
    j = np.arange(1, length + 1)
    for t in range(1, length + 1):
        at = tau == t
        res = offset[at] - total[at] * t / length
        var = scale**2 * t * (length - t) / length
        if t == length:
            assert np.allclose(res, 0.0, atol=1e-12)
            continue
        assert max(_z_mean_var(res, var)) < 5, t
        cov = scale**2 * np.sum(np.minimum(t, j) * (length - np.maximum(t, j))) / length**2
        prod = res * m_res[at]
        se = math.sqrt((var * m_var + cov**2) / at.sum())
        assert abs(prod.mean() - cov) < 5 * se, t


def test_bridge_second_pinned_value_given_first():
    """The walk of a chunk given its total T is a Markov bridge, so each
    both-send window's W_b, given the one before it, W_a (W_0 = 0 at the
    chunk's start), has mean W_a + (T - W_a)(b - a) / (m - a) and variance
    sigma**2 (b - a)(m - b) / (m - a), independently of the windows before,
    across spans holding one or more."""
    rng = np.random.default_rng(32)
    spans, length, scale = 20_000, 12, 0.2
    lengths = np.full(spans, length)
    m = spans * length
    total = scale * math.sqrt(m) * rng.standard_normal()
    both, span = channelsim._spread(rng, lengths, 30_000)
    _, w = channelsim._bridge(rng, total, lengths, both, span, scale)
    t = both + 1.0
    a, w_a = np.concatenate(([0.0], t[:-1])), np.concatenate(([0.0], w[:-1]))
    end = t == m
    assert np.allclose(w[end], total, rtol=0, atol=1e-12)
    b, w_b, a, w_a, span = t[~end], w[~end], a[~end], w_a[~end], span[~end]
    cond_mean = w_a + (total - w_a) * (b - a) / (m - a)
    z = (w_b - cond_mean) / np.sqrt((b - a) * (m - b) / (m - a))
    assert max(_z_mean_var(z, scale**2)) < 5
    # Given W_a the innovation carries no further dependence on it, nor on
    # the innovation before it.
    for x in (w_a[1:], z[:-1]):
        assert abs(np.corrcoef(z[1:], x)[0, 1]) < 5 / math.sqrt(z.size)
    second = np.flatnonzero(np.diff(span) == 0) + 1
    assert second.size > 1000
    assert max(_z_mean_var(z[second], scale**2)) < 5


def test_pinned_sums_add_up_and_have_the_free_law():
    """The drift sums of a chunk's spans, pinned only through the chunk
    total T ~ N(0, sigma**2 m), add up to T, and each has variance
    sigma**2 L, the ragged last span too, with no covariance between
    spans: the law of independent free sums."""
    rng = np.random.default_rng(36)
    scale, length = 0.05, np.array([30, 30, 30, 13])
    m = length.sum()
    ends = np.cumsum(length) - 1
    draws = 10_000
    totals = scale * math.sqrt(m) * rng.standard_normal(draws)
    # With every window both-send the walk is seen at each span's end.
    both, span = _every_window(length)
    walk = np.array([channelsim._bridge(rng, s, length, both, span, scale)[1][ends] for s in totals])
    sums = np.diff(walk, axis=1, prepend=0.0)
    assert np.allclose(walk[:, -1], totals, rtol=0, atol=1e-12)
    var = scale**2 * length
    for i in range(len(length)):
        assert max(_z_mean_var(sums[:, i], var[i])) < 5, i
        for j in range(i):
            cov = np.mean(sums[:, i] * sums[:, j])
            assert abs(cov) / math.sqrt(var[i] * var[j] / draws) < 5, (i, j)


def test_chunk_start_phases_advance_by_chunk_totals(monkeypatch):
    """The parent draws the initial phase and one total per chunk from the
    session stream and builds no chunk stream; each chunk starts where the
    one before it started plus that chunk's total."""
    events, tasks = [], []
    real_rng, real_chunk = channelsim._chunk_rng, channelsim._chunk_tallies

    def rng_spy(seed, index):
        events.append(("rng", index))
        return real_rng(seed, index)

    def chunk_spy(session, k):
        events.append(("chunk", k))
        tasks.append((session, k))
        return real_chunk(session, k)

    monkeypatch.setattr(channelsim, "_chunk_rng", rng_spy)
    monkeypatch.setattr(channelsim, "_chunk_tallies", chunk_spy)
    model = ChannelModel(drift_rad_per_window=0.01)
    n = 2 * CHUNK_WINDOWS + 5000
    simulate_session(ProtocolParams(mu=0.1, epsilon=0.3), model, n, seed=4)
    assert events[:3] == [("rng", 0), ("chunk", 0), ("rng", 1)]
    assert [e for e in events if e[0] == "rng"] == [("rng", k) for k in range(4)]
    start = [s[4][k] for s, k in tasks]
    total = [s[5][k] for s, k in tasks]
    session = real_rng(4, 0)
    assert start[0] == session.uniform(0.0, 2.0 * math.pi)
    sizes = np.array([CHUNK_WINDOWS, CHUNK_WINDOWS, 5000])
    assert np.array_equal(total, 0.01 * np.sqrt(sizes) * session.standard_normal(3))
    for k in range(2):
        assert start[k + 1] == start[k] + total[k]


def test_span_sampler_matches_per_window_oracle():
    """Two-sample z-test per cell between the span-level simulator and the
    per-window oracle over many short sessions, at high click rates and
    visibility below 1.  In the second configuration the phase drifts by
    about 1.3 rad per span, so the both-send windows' spread around the span
    mean shows in the cells: a sampler that puts them at the span mean is
    off by about 15 standard errors.  The third keeps its windows at a
    threshold between keep-level edges."""
    configs = [
        (ProtocolParams(mu=0.2, epsilon=0.4, p_t=0.3),
         ChannelModel(fiber_km_a=2, fiber_km_b=3, dark_prob=2e-3, visibility=0.9,
                      det_eff_left=0.7, det_eff_right=0.6),
         100 * DEFAULT_SPAN_WINDOWS),
        (ProtocolParams(mu=0.3, epsilon=0.5, p_t=0.4, delta_threshold=math.radians(45)),
         ChannelModel(fiber_km_a=1, fiber_km_b=1, dark_prob=2e-3, visibility=0.8,
                      drift_rad_per_window=0.1),
         100 * DEFAULT_SPAN_WINDOWS + 77),
        # A threshold off the keep-level grid splits the bin it falls in.
        (ProtocolParams(mu=0.2, epsilon=0.4, p_t=0.3, delta_threshold=0.5),
         ChannelModel(fiber_km_a=2, fiber_km_b=3, dark_prob=2e-3, visibility=0.9),
         100 * DEFAULT_SPAN_WINDOWS),
    ]
    sessions = 400
    worst = 0.0
    for k, (params, model, n) in enumerate(configs):
        rng = np.random.default_rng(100 + k)
        oracle = np.array([_oracle_cells(params, model, n, rng) for _ in range(sessions)])
        spans = np.array([
            _sampler_cells(simulate_session(params, model, n, seed=1000 * k + i).tallies)
            for i in range(sessions)
        ])
        se = np.sqrt((oracle.var(axis=0, ddof=1) + spans.var(axis=0, ddof=1)) / sessions)
        assert np.all(se > 0)
        z = (spans.mean(axis=0) - oracle.mean(axis=0)) / se
        worst = max(worst, float(np.abs(z).max()))
    assert worst < 4.5


def test_expected_tallies_priors_and_structure():
    params = ProtocolParams(mu=0.002, epsilon=0.021, p_t=0.1)
    model = ChannelModel()
    n = 1e9
    e = expected_tallies(params, model, n)[params.delta_threshold]
    eps = params.epsilon
    assert e.sent["00"] == pytest.approx(n * (1 - eps) ** 2, rel=1e-12)
    assert e.sent["01"] == pytest.approx(n * eps * (1 - eps), rel=1e-12)
    assert e.sent["10"] == pytest.approx(n * eps * (1 - eps), rel=1e-12)
    assert e.sent["11"] == pytest.approx(n * eps ** 2, rel=1e-12)
    keep = params.delta_threshold / math.pi
    for s in ("00", "01", "10", "11"):
        assert e.sent_selected[s] == pytest.approx(e.sent[s] * keep, rel=1e-12)
        assert e.sent_test[s] == pytest.approx(e.sent_selected[s] * params.p_t, rel=1e-12)
        assert e.sent_key[s] + e.sent_test[s] == pytest.approx(e.sent_selected[s], rel=1e-12)
    # Every window is kept at pi, so its detections are all the effective windows.
    whole = expected_tallies(params, model, n, thresholds=[math.pi])[math.pi]
    detected = sum(whole.detected_test.values()) + sum(whole.detected_key.values())
    assert e.effective_windows > 0
    assert e.effective_windows == pytest.approx(detected, rel=1e-12)


def test_expected_tallies_dark_free_vacuum_is_zero():
    params = ProtocolParams(mu=0.0, epsilon=0.021)
    model = ChannelModel(dark_prob=0.0)
    e = expected_tallies(params, model, 1e9)[params.delta_threshold]
    assert all(v == 0.0 for v in e.detected_key.values())
    assert all(v == 0.0 for v in e.detected_test.values())
    assert e.effective_windows == 0.0


def test_expected_tallies_multiple_thresholds():
    params = ProtocolParams()
    thr = [math.radians(10), math.radians(30), math.radians(60)]
    for given in (thr, np.array(thr)):
        out = expected_tallies(params, ChannelModel(), 1e8, thresholds=given)
        assert set(out) == set(thr)
        sel = [out[t].sent_selected["01"] for t in thr]
        assert sel[0] < sel[1] < sel[2]
    res = simulate_session(params, ChannelModel(), 20_000, seed=2, thresholds=np.array(thr))
    assert set(res.by_threshold) == set(thr)


def _conditional_z(det_mc, det_ex, pool_mc, pool_ex):
    """z score of an observed cell against Binomial(pool_mc, det_ex/pool_ex)."""
    p = det_ex / pool_ex
    mean = pool_mc * p
    if mean < 10:
        return None
    return (det_mc - mean) / math.sqrt(mean * (1 - p))


def test_simulation_matches_model_zero_visibility():
    """Full-chain comparison at visibility 0.

    With no interference term every click probability is independent of the
    channel phase, so the uniform-phase expected-value model applies cell by
    cell regardless of how slowly the phase random walk mixes.  Detected cells
    are compared conditionally on the realised per-state pools.
    """
    draws = [
        (ProtocolParams(mu=0.15, epsilon=0.35),
         ChannelModel(fiber_km_a=3, fiber_km_b=4, dark_prob=1e-5, visibility=0.0),
         1_000_000),
        (ProtocolParams(mu=0.08, epsilon=0.25, delta_threshold=math.radians(60)),
         ChannelModel(fiber_km_a=8, fiber_km_b=8, dark_prob=1e-4, visibility=0.0,
                      det_eff_left=0.7, det_eff_right=0.65),
         1_000_000),
        (ProtocolParams(mu=0.3, epsilon=0.5, p_t=0.3),
         ChannelModel(fiber_km_a=1, fiber_km_b=2, dark_prob=1e-6, visibility=0.0),
         600_000),
    ]
    for params, model, n in draws:
        res = simulate_session(params, model, n, seed=5)
        e = expected_tallies(params, model, n)[params.delta_threshold]
        t = res.tallies
        zs = []
        for s in ("00", "01", "10", "11"):
            p = e.sent[s] / n
            zs.append((t.sent[s] - e.sent[s]) / math.sqrt(n * p * (1 - p)))
        zs.append((t.effective_windows - e.effective_windows)
                  / math.sqrt(e.effective_windows))
        for det_mc, det_ex, pool_mc, pool_ex in (
            (t.detected_key, e.detected_key, t.sent_key, e.sent_key),
            (t.detected_test, e.detected_test, t.sent_test, e.sent_test),
        ):
            for s in ("00", "01", "10", "11"):
                for ch in (0, 1):
                    z = _conditional_z(det_mc[(s, ch)], det_ex[(s, ch)],
                                       pool_mc[s], pool_ex[s])
                    if z is not None:
                        zs.append(z)
        assert max(abs(z) for z in zs) < 4.0


def test_simulation_matches_model_phase_free_cells():
    """With interference on, compare only phase-independent quantities."""
    draws = [
        (ProtocolParams(mu=0.12, epsilon=0.3),
         ChannelModel(fiber_km_a=4, fiber_km_b=6, dark_prob=1e-5, visibility=0.95),
         1_000_000),
        (ProtocolParams(mu=0.2, epsilon=0.4, delta_threshold=math.radians(45)),
         ChannelModel(fiber_km_a=2, fiber_km_b=2, dark_prob=1e-6, visibility=0.85,
                      det_eff_left=0.8, det_eff_right=0.75),
         800_000),
    ]
    for params, model, n in draws:
        res = simulate_session(params, model, n, seed=5)
        e = expected_tallies(params, model, n)[params.delta_threshold]
        t = res.tallies
        zs = []
        for s in ("00", "01", "10", "11"):
            p = e.sent[s] / n
            zs.append((t.sent[s] - e.sent[s]) / math.sqrt(n * p * (1 - p)))
            sel = t.sent_selected[s]
            if sel * params.p_t >= 10:
                zs.append((t.sent_test[s] - sel * params.p_t)
                          / math.sqrt(sel * params.p_t * (1 - params.p_t)))
        for det_mc, det_ex, pool_mc, pool_ex in (
            (t.detected_key, e.detected_key, t.sent_key, e.sent_key),
            (t.detected_test, e.detected_test, t.sent_test, e.sent_test),
        ):
            for s in ("00", "01", "10"):  # states without interference
                for ch in (0, 1):
                    z = _conditional_z(det_mc[(s, ch)], det_ex[(s, ch)],
                                       pool_mc[s], pool_ex[s])
                    if z is not None:
                        zs.append(z)
        assert max(abs(z) for z in zs) < 4.0


def test_selection_fraction_over_session_ensemble():
    """The keep fraction equals delta/pi only across independent sessions.

    A single session's phase walk mixes slowly, so its keep fraction is a
    heavily correlated random variable.  Averaging one-span sessions over
    many seeds recovers the ensemble value.
    """
    params = ProtocolParams(mu=0.002, epsilon=0.021)
    model = ChannelModel()
    total = 0.0
    n_sessions = 400
    for seed in range(n_sessions):
        t = simulate_session(params, model, 180, seed).tallies
        total += sum(t.sent_selected.values()) / sum(t.sent.values())
    mean = total / n_sessions
    assert abs(mean - 1.0 / 6.0) < 0.05


def _mp_both_send_effective(params, model, threshold):
    """Both-send effective-click probabilities (ch0, ch1) averaged over a
    phase uniform on [0, threshold], by mpmath quadrature at 40 digits."""
    with mp.workdps(40):
        mu_a = mp.mpf(params.mu) * arm_transmittance(model, "a")
        mu_b = mp.mpf(params.mu) * arm_transmittance(model, "b")
        d = mp.mpf(model.dark_prob)

        def clicks(phi):
            cross = mp.sqrt(mu_a * mu_b) * model.visibility * mp.cos(phi)
            left = (mu_a + mu_b) / 2 + cross
            right = (mu_a + mu_b) / 2 - cross
            return (1 - (1 - d) * mp.exp(-left * model.det_eff_left),
                    1 - (1 - d) * mp.exp(-right * model.det_eff_right))

        def ch(k):
            def f(phi):
                p = clicks(phi)
                return p[k] * (1 - p[1 - k])
            return mp.quad(f, [0, threshold]) / threshold

        return ch(0), ch(1)


@pytest.mark.parametrize("visibility", [1.0, 0.9])
def test_expected_tallies_both_send_against_mpmath(visibility):
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), visibility=visibility)
    thresholds = [math.radians(d) for d in (2, 30, 90, 180)]
    out = expected_tallies(params, model, 1e12, thresholds=thresholds)
    for thr in thresholds:
        t = out[thr]
        for ch, p in enumerate(_mp_both_send_effective(params, model, thr)):
            assert t.detected_test[("11", ch)] == pytest.approx(
                float(p) * t.sent_test["11"], rel=1e-12)
            assert t.detected_key[("11", ch)] == pytest.approx(
                float(p) * t.sent_key["11"], rel=1e-12)


def test_expected_tallies_threshold_does_not_depend_on_others():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    a, b, c = math.radians(7.5), math.radians(45.0), math.radians(120.0)
    alone = expected_tallies(params, model, 1e12, thresholds=[a])
    together = expected_tallies(params, model, 1e12, thresholds=[c, a, b])
    assert alone[a] == together[a]
    assert alone[params.delta_threshold] == together[params.delta_threshold]


def test_effective_probs_rows_do_not_depend_on_each_other():
    params = defaults.reference_params()
    model = replace(defaults.reference_model(50.0), visibility=0.9)
    mu = [2e-4, 3e-3, 0.05]
    thresholds = [[math.radians(d)] for d in (2.0, 30.0, 180.0)]
    fibre = [(10.0, 15.0), (25.0, 25.0), (0.0, 60.0)]
    fibre_a, fibre_b = np.array(fibre).T[:, :, None]
    together = channelsim._effective_probs(
        replace(params, mu=np.array(mu)[:, None]),
        replace(model, fiber_km_a=fibre_a, fiber_km_b=fibre_b), thresholds,
    )
    for i in range(3):
        alone = channelsim._effective_probs(
            replace(params, mu=np.array([[mu[i]]])),
            replace(model, fiber_km_a=fibre_a[i:i + 1], fiber_km_b=fibre_b[i:i + 1]), thresholds[i],
        )
        assert np.array_equal(together[i:i + 1], alone)
    single = channelsim._effective_probs(replace(params, mu=mu[1]), model, thresholds[1])
    assert np.array_equal(
        single,
        channelsim._effective_probs(replace(params, mu=np.array([[mu[1]]])), model, thresholds[1])[0],
    )


def test_effective_probs_per_row_visibility_equals_single_rows():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    vis = [0.0, 0.25, 0.9, 0.9990234375, 1.0]
    mu = [2e-4, 3e-3, 0.05, 0.002, 0.01]
    thresholds = np.array([math.radians(2.0), math.radians(30.0), math.pi])[:, None]
    together = channelsim._effective_probs(
        replace(params, mu=np.array(mu)[:, None]), replace(model, visibility=np.array(vis)[:, None]),
        thresholds[:, None],
    )
    for i, v in enumerate(vis):
        alone = channelsim._effective_probs(
            replace(params, mu=mu[i]), replace(model, visibility=v), thresholds
        )
        assert np.array_equal(together[:, i], alone)


def test_expected_tallies_refuses_a_batch():
    """expected_tallies takes one configuration; a batch of two rows is
    refused rather than answered with its first row."""
    params = replace(defaults.reference_params(), mu=np.array([[0.002], [0.003]]))
    with pytest.raises(ValueError):
        expected_tallies(params, defaults.reference_model(50.0), 1e12)


@pytest.mark.parametrize("entry", [
    lambda p, m: simulate_session(p, m, 1000, seed=1),
    lambda p, m: expected_tallies(p, m, 1e12),
    lambda p, m: keyrate.analyze_expected(p, m, 1e12),
], ids=["simulate_session", "expected_tallies", "analyze_expected"])
def test_one_configuration_entry_points_name_the_first_array_field(entry):
    params, model = defaults.reference_params(), defaults.reference_model(50.0)
    rows = np.array([[0.02], [0.03]])
    for p, m, name in ((replace(params, epsilon=rows, p_t=rows), replace(model, visibility=rows[::-1]), "epsilon"),
                       (params, replace(model, dark_prob=rows, visibility=rows), "dark_prob")):
        with pytest.raises(ValueError) as got:
            entry(p, m)
        assert str(got.value) == f"{name} must be a scalar for one configuration, got shape (2, 1)"


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
def test_effective_probs_rejects_bad_row_visibility(bad):
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    vis = np.array([[0.5], [bad], [1.0]])
    with pytest.raises(ValueError, match=rf"visibility must lie in \[0, 1\], got {bad!r}"):
        channelsim._effective_probs(params, replace(model, visibility=vis), [math.radians(30.0)])


@pytest.mark.parametrize("p_t", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("m", [5 * DEFAULT_SPAN_WINDOWS + 77, CHUNK_WINDOWS])
def test_chunk_totals_equal_sums_over_span_counts(monkeypatch, p_t, m):
    """The sent and effective columns of a chunk's all-windows rows equal
    the sums over its per-span counts, read here through a threshold that
    keeps every span."""
    _inject_estimates(monkeypatch, np.zeros)
    params = ProtocolParams(mu=0.5, epsilon=0.3, p_t=p_t)
    model = ChannelModel(fiber_km_a=1.0, fiber_km_b=2.0, dark_prob=1e-3, visibility=0.9)
    rows = channelsim._chunk_tallies(_one_chunk(params, model, m, np.array([math.pi])), 0)
    assert rows.dtype == np.int64 and rows.shape == (2, 4, 8)
    widest, every = rows
    assert every[:, 0].tolist() == (widest[:, 2] + widest[:, 5]).tolist()
    assert every[:, 0].sum() == m
    effective = every[:, [3, 4, 6, 7]]
    assert np.array_equal(effective, widest[:, [3, 4, 6, 7]]) and effective.sum() > 0
    test_windows, key_windows = widest[:, [2, 5]].sum(axis=0)
    assert (test_windows == 0) == (p_t == 0.0)
    assert (key_windows == 0) == (p_t == 1.0)


def _count_leggauss(monkeypatch):
    """Clear the node cache and count calls of numpy's leggauss from now on."""
    calls = []
    real = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return real(n)

    channelsim._quadrature.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    return calls


def test_quadrature_nodes_computed_once(monkeypatch):
    calls = _count_leggauss(monkeypatch)
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    for deg in (2, 30, 90):
        expected_tallies(params, model, 1e12, thresholds=[math.radians(deg)])
    keyrate.optimize_params(model, params)
    keyrate.calibrate_visibility(params, model, defaults.REFERENCE_BOTH_SEND_QBER)
    assert calls == [64]


def test_simulation_never_builds_quadrature(monkeypatch):
    calls = _count_leggauss(monkeypatch)
    simulate_session(ProtocolParams(mu=0.1, epsilon=0.3), ChannelModel(), 20_000, seed=4,
                     thresholds=[math.radians(10)])
    assert calls == []


def test_model_never_builds_keep_table():
    channelsim._keep_table.cache_clear()
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    expected_tallies(params, model, 1e12, thresholds=[math.radians(12.5)])
    keyrate.calibrate_visibility(params, model, defaults.REFERENCE_BOTH_SEND_QBER)
    assert channelsim._keep_table.cache_info().currsize == 0
    simulate_session(params, model, 20_000, seed=4)
    assert channelsim._keep_table.cache_info().currsize == 1


def test_import_and_analyses_never_build_the_count_table():
    """A fresh interpreter that imports scfqkd, runs the expected-value
    analysis and analyses the bundled file has built no table of
    reference counts; its first session builds one."""
    code = (
        "import scfqkd\n"
        "from scfqkd import channelsim, dataio, defaults, keyrate\n"
        "sizes = [channelsim._count_table.cache_info().currsize]\n"
        "params = defaults.reference_params()\n"
        "keyrate.analyze_expected(params, defaults.reference_model(50.0), 1e12)\n"
        "raw = dataio.load_raw_tallies(defaults.bundled_tally_path(), strict=True)\n"
        "keyrate.analyze_tallies(*raw.tally_sets(), params, n_total_pulses=raw.n_total_pulses,\n"
        "                        delta_threshold=raw.delta_threshold)\n"
        "sizes.append(channelsim._count_table.cache_info().currsize)\n"
        "channelsim.simulate_session(params, defaults.reference_model(50.0), 20_000, 4)\n"
        "sizes.append(channelsim._count_table.cache_info().currsize)\n"
        "print(sizes)\n"
    )
    src = os.path.dirname(os.path.dirname(channelsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[0] == "[0, 0, 1]"


def test_helpers_inherit_the_count_table(monkeypatch, tmp_path):
    """A 2-worker session of 8 chunks looks its table up once, in this
    process, and its helper reads it from the session it inherits."""
    channelsim._count_table.cache_clear()
    log, real = tmp_path / "lookups", channelsim._count_table

    def logged():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(channelsim, "_count_table", logged)
    started = _spy_helpers(monkeypatch)
    n = 2 * channelsim.MIN_CHUNKS_PER_PROCESS * CHUNK_WINDOWS
    simulate_session(ProtocolParams(mu=0.05, epsilon=0.25), ChannelModel(), n, seed=4, workers=2)
    assert started == [1]
    assert log.read_text().split() == [str(os.getpid())]
    assert real.cache_info().misses == 1


def _poisson_cdf(lam: float, n: int) -> np.ndarray:
    """P(X <= k), k = 0..n-1, for X Poisson of mean ``lam``, summed by
    mpmath at 100 bits and rounded to double."""
    with mp.workprec(100):
        lam = mp.mpf(lam)
        term = total = mp.exp(-lam)
        out = [float(total)]
        for k in range(1, n):
            term = term * lam / k
            total += term
            out.append(float(total))
    return np.array(out)


def _inverted(lam: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """The smallest k with u < F(k; lam) per draw, through the mpmath CDF of
    each distinct mean."""
    out = np.empty(u.size, np.int64)
    for value in np.unique(lam):
        at = lam == value
        out[at] = np.searchsorted(_poisson_cdf(value, n), u[at], "right")
    return out


def test_reference_counts_are_the_exact_poisson_inversion():
    """The sampler's counts equal the inversion of the Poisson CDF that
    mpmath computes, draw by draw, with the uniforms it reads replayed from
    its stream: 100,000 draws, at means between the table's rows, at 0 and
    at the top of its grid.  The draws whose two rows give different counts
    take the sum between rows; there are over 1,000 of them."""
    table = channelsim._count_table()
    step = table[0]
    phase = np.tile(np.linspace(0.0, 2.0 * math.pi, 250, endpoint=False), 100)
    rng = np.random.default_rng(45)
    got = channelsim._reference_counts(rng, phase, table).ravel()
    replay = np.random.default_rng(45)
    u = replay.random(got.size)
    assert rng.random() == replay.random()
    lam = (channelsim._SLOT_MEAN * slot_probabilities(phase)).ravel()
    assert lam.min() == 0.0 and lam.max() == channelsim._SLOT_MEAN
    assert np.array_equal(got, _inverted(lam, u, 100))
    row = np.floor(lam / step)
    between = np.count_nonzero(_inverted(row * step, u, 100) != _inverted((row + 1) * step, u, 100))
    assert got.size == 100_000 and between >= 1000


def test_count_table_is_within_2_to_the_minus_46_of_the_poisson_cdf():
    """Every 8th row of the count table and its top rows hold the Poisson
    CDF that mpmath computes within 2**-46, 64 times the float spacing at
    1.  Uniforms at 0, at 1 - 2**-53 and in the top cell of the guide, at
    phases across the grid, run the walk along a row for several passes
    and the sum between rows up to the largest count.  Each draw is then
    the inversion of a CDF within that bound of the Poisson's, and none
    exceeds the keep-level table's radius."""
    bound = 64 * np.finfo(float).eps
    step, terms, cdf, guide = channelsim._count_table()
    cols = channelsim._MAX_COUNT + 1
    for j in [*range(0, channelsim._COUNT_ROWS + 2, 8), channelsim._COUNT_ROWS, channelsim._COUNT_ROWS + 1]:
        assert np.abs(cdf[j, terms:terms + cols] - _poisson_cdf(j * step, cols)).max() <= bound

    class Stub:
        def random(self, n):
            return np.resize(uniforms, n)

    # Five uniforms, so that each slot reads each of them in turn.
    uniforms = np.array([0.0, 1.0 - 2.0**-53, 255 / 256, 1.0 - 2.0**-20, 1.0 - 2.0**-40])
    phase = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    got = channelsim._reference_counts(Stub(), phase, (step, terms, cdf, guide)).ravel()
    u = np.resize(uniforms, got.size)
    lam = (channelsim._SLOT_MEAN * slot_probabilities(phase)).ravel()
    assert got.max() == channelsim._MAX_COUNT == channelsim._keep_table().shape[0] // 2
    for value in np.unique(lam):
        at = lam == value
        exact = np.concatenate(([0.0], _poisson_cdf(value, cols), [1.0]))
        k = got[at]
        assert np.all(exact[k] - bound <= u[at])
        assert np.all((u[at] < exact[k + 1] + bound) | (k == cols - 1))


def test_balanced_reference_counts_are_kept_at_every_threshold():
    """Counts with n1 = n3 and n2 = n4 estimate the phase 0.0, and the
    keep-level table puts (D1, D2) = (0, 0) in bin 0, below every threshold."""
    assert phasetrack.estimate_phase([3, 7, 3, 7]) == 0.0
    r = channelsim._MAX_COUNT
    assert channelsim._keep_table()[r, r] == 0
    assert channelsim._table_bins(np.array([[3, 7, 3, 7], [0, 0, 0, 0]])).tolist() == [0, 0]


@pytest.mark.parametrize("phase", [0.0, 1.0, 0.5 * math.pi], ids=["phase-0", "phase-1", "phase-pi/2"])
def test_reference_counts_follow_the_poisson_pmf(phase):
    """Chi-square of 20,000 spans' counts per slot, at a phase that puts
    the slot means at 0, 11.25 and 22.5, the top of the grid, or between
    the table's rows, against the Poisson pmf, with the tail pooled where
    fewer than 5 counts are expected; a slot of mean 0 counts 0."""
    spans = 20_000
    counts = channelsim._reference_counts(np.random.default_rng(7), np.full(spans, phase),
                                          channelsim._count_table())
    for lam, slot in zip(channelsim._SLOT_MEAN * slot_probabilities(phase), counts.T):
        if lam == 0.0:
            assert not slot.any()
            continue
        k = np.arange(int(lam + 12 * math.sqrt(lam) + 12))
        pmf = np.exp(k * math.log(lam) - lam - np.array([math.lgamma(i + 1.0) for i in k]))
        pmf[-1] += 1.0 - pmf.sum()
        observed = np.bincount(np.minimum(slot, k[-1]), minlength=k.size)
        keep = spans * pmf >= 5
        lo, hi = np.flatnonzero(keep)[[0, -1]]
        expect = spans * np.concatenate(([pmf[:lo + 1].sum()], pmf[lo + 1:hi], [pmf[hi:].sum()]))
        seen = np.concatenate(([observed[:lo + 1].sum()], observed[lo + 1:hi], [observed[hi:].sum()]))
        chi2 = float(np.sum((seen - expect) ** 2 / expect))
        dof = expect.size - 1
        assert chi2 < dof + 5 * math.sqrt(2 * dof)


def _estimator_bins(counts):
    """Keep-level bins of spans through the estimator, the minor angle and
    the edge search."""
    return np.searchsorted(channelsim._KEEP_EDGES, minor_angle(phasetrack.estimate_phase_batch(counts)), "right")


def test_keep_table_holds_the_estimator_bin_of_every_pair():
    """Each of the 151**2 cells is the bin that the estimator, the minor
    angle and the edge search give a span with that (D1, D2), and the
    chunk's lookup reads it from any counts with those differences."""
    r = channelsim._MAX_COUNT
    table = channelsim._keep_table()
    assert table.size == 22_801 and table.shape == (2 * r + 1, 2 * r + 1)
    d1, d2 = (d.ravel() for d in np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij"))
    counts = np.stack((np.maximum(d1, 0), np.maximum(-d2, 0), np.maximum(-d1, 0), np.maximum(d2, 0)), axis=1)
    want = _estimator_bins(counts)
    assert np.array_equal(table.ravel(), want)
    assert np.array_equal(channelsim._table_bins(counts + 7), want)


def _estimator_calls(monkeypatch):
    """The span count of each ``phasetrack.estimate_phase_batch`` call from now on."""
    calls = []
    real = phasetrack.estimate_phase_batch

    def spy(counts):
        calls.append(len(counts))
        return real(counts)

    monkeypatch.setattr(phasetrack, "estimate_phase_batch", spy)
    return calls


@pytest.mark.parametrize("degrees, table_calls", [
    ((30.0,), []),
    ((2.0, 45.0, 180.0), []),
    ((12.5, 30.25), [4096, 6]),
])
def test_estimator_fallback_gives_the_table_tallies(monkeypatch, degrees, table_calls):
    """A session whose chunks read the keep-level table has the tallies of
    one whose spans' bins all come from the estimator; with the table, the
    estimator runs only for a threshold between edges, once per chunk."""
    params = ProtocolParams(mu=0.05, epsilon=0.25)
    model = ChannelModel(dark_prob=1e-5, visibility=0.95)
    thresholds = [math.radians(d) for d in degrees]
    n = CHUNK_WINDOWS + 5 * DEFAULT_SPAN_WINDOWS + 77
    calls = _estimator_calls(monkeypatch)
    table = simulate_session(params, model, n, seed=13, thresholds=thresholds)
    assert calls == table_calls
    monkeypatch.setattr(channelsim, "_table_bins", _estimator_bins)
    fallback = simulate_session(params, model, n, seed=13, thresholds=thresholds)
    assert fallback.by_threshold == table.by_threshold


@pytest.mark.parametrize("seed, digest", [
    (3, "26798367818dc26284ba6b0049865fc31a70dec2e8e230431eee2a6dcc580e6f"),
    (11, "4840cbf28a8ba4f7c435659b8d9be3ee5f2fcfc87256aa5c039035c58dacfe95"),
])
def test_session_files_keep_their_pinned_digest(tmp_path, seed, digest):
    """Tally files of an 8-chunk session at the reference point, on the
    keep-level grid and off it, with 1 and 2 workers, hash to the values
    that the sampler which inverts one uniform per reference count through
    the count table wrote (numpy 2.4).  A sampler change that moves them
    changes every seed's tallies."""
    n = 7 * CHUNK_WINDOWS + 12_345
    thresholds = [math.radians(d) for d in (2.0, 12.5, 30.25, 45.0)] + [math.pi]
    for workers in (1, 2):
        res = simulate_session(defaults.reference_params(), defaults.reference_model(50.0), n, seed,
                               workers=workers, thresholds=thresholds)
        h = hashlib.sha256()
        for t in res.by_threshold.values():
            dataio.write_raw_tallies(tmp_path / "t.tsv", t, {"Windows": t.n_windows, "Seed": seed})
            h.update((tmp_path / "t.tsv").read_bytes())
        h.update(repr(res.tallies.effective_windows).encode())
        assert type(res.tallies.effective_windows) is int
        assert h.hexdigest() == digest

