import math
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from scfqkd import channelsim, dataio, defaults, keyrate, phasetrack
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


def test_arm_transmittance_known_values():
    m = ChannelModel(fiber_km_a=25.0, fiber_km_b=0.0, comp_loss_db_b=0.0)
    assert arm_transmittance(m, "A") == pytest.approx(10 ** -0.5, rel=1e-12)
    assert arm_transmittance(m, "A") == pytest.approx(0.3162, abs=5e-5)
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


def _empty_chunk(args):
    """A chunk result for the one threshold of ``ProtocolParams()``: every
    window sent in state 00, none kept and none effective."""
    return np.array([args[4], 0, 0, 0]), 0, np.zeros((1, 4, 2, 3), np.int64)


def test_worker_count_does_not_change_tallies(monkeypatch):
    """Sessions long enough that 2 and 3 workers start helpers, with an
    uneven last chunk, give the tallies of one worker."""
    params = ProtocolParams(mu=0.05, epsilon=0.25)
    model = ChannelModel(fiber_km_a=4.0, fiber_km_b=4.0, dark_prob=1e-5)
    n = CHUNK_WINDOWS * 3 * channelsim.MIN_CHUNKS_PER_PROCESS + 12345
    base = simulate_session(params, model, n, seed=77, workers=1).tallies
    started = _spy_helpers(monkeypatch)
    for workers in (2, 3):
        started.clear()
        other = simulate_session(params, model, n, seed=77, workers=workers).tallies
        assert len(started) == workers - 1
        assert other == base


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

        def chunk(args):
            (log / f"{args[3]}-{os.getpid()}").touch()
            if (os.getpid() != here) == in_helper:
                raise RuntimeError(f"chunk failed in {os.getpid()}")
            time.sleep(0.05)
            return _empty_chunk(args)

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

    def chunk(args):
        if os.getpid() != here:
            os._exit(3)
        time.sleep(0.01)
        return _empty_chunk(args)

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


@pytest.mark.parametrize("n_chunks, workers, helpers", [(5, 2, 0), (8, 3, 1), (9, 8, 2)])
def test_helpers_start_only_above_the_cap(monkeypatch, n_chunks, workers, helpers):
    """Each process gets at least MIN_CHUNKS_PER_PROCESS chunks, so a short
    session starts fewer helpers than workers - 1, or none."""
    assert channelsim.MIN_CHUNKS_PER_PROCESS == 3
    started = _spy_helpers(monkeypatch)
    claimed = []

    def chunk(args):
        claimed.append(args[3])
        return _empty_chunk(args)

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
])
def test_simulate_session_rejects_bad_counts_by_name(kwargs, message):
    args = {"n_windows": 1000, "workers": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_session(ProtocolParams(), ChannelModel(), seed=1, **args)


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
    model = ChannelModel(fiber_km_a=5.0, fiber_km_b=5.0, dark_prob=1e-4, visibility=0.9)
    n = 200_000
    extra = [math.radians(5), math.radians(45), math.radians(90)]
    alone = simulate_session(params, model, n, seed=21, thresholds=[extra[1]])
    together = simulate_session(params, model, n, seed=21, thresholds=extra)
    assert alone.by_threshold[extra[1]] == together.by_threshold[extra[1]]
    assert alone.tallies == together.tallies
    # Two thresholds off the keep-level grid, inside one bin (28 to 29
    # degrees) whose spans they split: each reads a prefix of the bin's split.
    pair = [0.492, 0.494]
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
    every (cell, click) label; prefixes of one order are nested, and the
    whole order gives the bin's cells back."""
    cells = np.array([[[40, 3, 5], [7, 1, 0]], [[0, 0, 0], [12, 4, 6]], [[25, 0, 9], [2, 2, 0]]])
    n = cells[..., 0].sum()

    def labels(c):
        """(no click, on ch0, on ch1) per cell."""
        return np.concatenate((c[..., :1] - c[..., 1:2] - c[..., 2:], c[..., 1:]), axis=-1)

    draws = 4000
    got = np.array([
        [labels(channelsim._bin_prefix(np.random.default_rng([36, i]), cells, k)) for k in (20, 55)]
        for i in range(draws)
    ])
    assert np.all(got[:, 0] <= got[:, 1])
    for j, k in enumerate((20, 55)):
        assert np.all(got[:, j].sum(axis=(1, 2, 3)) == k)
        want = labels(cells) * k / n
        var = k * (labels(cells) / n) * (1 - labels(cells) / n) * (n - k) / (n - 1)
        live = var > 0
        assert np.all(got[:, j].std(axis=0)[~live] == 0)
        z = (got[:, j].mean(axis=0) - want)[live] / np.sqrt(var[live] / draws)
        assert np.abs(z).max() < 5
    rng = np.random.default_rng(37)
    assert np.array_equal(channelsim._bin_prefix(rng, cells, n), cells)
    assert not channelsim._bin_prefix(rng, cells, 0).any()


@pytest.mark.parametrize("level", [math.radians(10), 0.5])
def test_span_at_a_threshold_is_discarded(monkeypatch, level):
    """Every span's keep level equals a threshold, on the grid or off it:
    none is kept there, and all are kept at the next float above it."""
    monkeypatch.setattr(phasetrack, "estimate_phase_batch",
                        lambda counts: np.full(len(counts), level))
    params = ProtocolParams(mu=0.5, epsilon=0.3)
    model = ChannelModel(dark_prob=1e-3, visibility=0.9)
    phase_free = channelsim._effective_probs(params, model)[0]
    thresholds = np.array([level, np.nextafter(level, 4.0), math.pi])
    m = 5 * DEFAULT_SPAN_WINDOWS + 77
    _, _, (at, above, widest) = channelsim._chunk_tallies(
        (params, model, 9, 0, m, 0.3, -0.2, thresholds, 45.0, phase_free)
    )
    assert not at.any()
    assert np.array_equal(above, widest) and widest[..., 1:].sum() > 0


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


def _oracle_cells(params, model, n, rng, mean_ref_counts):
    """Per-window reference sampler: every window draws its own drift step,
    send decisions, clicks and test flag, as the session simulator did
    before it sampled per span.  Returns the cells of :func:`_sampler_cells`."""
    phases = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(
        model.drift_rad_per_window * rng.standard_normal(n))
    alice = rng.random(n) < params.epsilon
    bob = rng.random(n) < params.epsilon
    starts = np.arange(0, n, DEFAULT_SPAN_WINDOWS)
    span_mean = np.add.reduceat(phases, starts) / np.minimum(DEFAULT_SPAN_WINDOWS, n - starts)
    counts = rng.poisson(0.5 * mean_ref_counts * slot_probabilities(span_mean))
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

    def chunk_spy(args):
        events.append(("chunk", args[3]))
        tasks.append(args)
        return real_chunk(args)

    monkeypatch.setattr(channelsim, "_chunk_rng", rng_spy)
    monkeypatch.setattr(channelsim, "_chunk_tallies", chunk_spy)
    model = ChannelModel(drift_rad_per_window=0.01)
    n = 2 * CHUNK_WINDOWS + 5000
    simulate_session(ProtocolParams(mu=0.1, epsilon=0.3), model, n, seed=4)
    assert events[:3] == [("rng", 0), ("chunk", 0), ("rng", 1)]
    assert [e for e in events if e[0] == "rng"] == [("rng", k) for k in range(4)]
    start = [args[5] for args in tasks]
    total = [args[6] for args in tasks]
    session = real_rng(4, 0)
    assert start[0] == session.uniform(0.0, 2.0 * math.pi)
    sizes = np.array([CHUNK_WINDOWS, CHUNK_WINDOWS, 5000])
    assert np.array_equal(total, 0.01 * np.sqrt(sizes) * session.standard_normal(3))
    for k in range(2):
        assert start[k + 1] == start[k] + total[k]


def test_phase_free_clicks_trinomial_law():
    """Per (span, cell) the effective clicks (ch0, ch1) of n windows follow
    the trinomial law with probabilities (q0, q1): means n q0 and n q1,
    binomial variances, covariance -n q0 q1 and the probabilities of no
    click; spans are uncorrelated.  One call draws many copies of the same
    spans, which are independent in law."""
    rng = np.random.default_rng(34)
    base = np.array([[0, 3, 40, 7], [1, 12, 0, 30], [5, 150, 9, 2], [25, 1, 60, 11]])
    q0 = np.array([0.3, 0.02, 0.5, 0.004])
    q1 = np.array([0.2, 0.01, 0.4, 0.003])
    draws = 20_000
    ch0, ch1 = (
        c.reshape(draws, *base.shape)
        for c in channelsim._phase_free_clicks(rng, np.tile(base, (draws, 1)), q0, q1)
    )
    assert np.all((0 <= ch0) & (0 <= ch1) & (ch0 + ch1 <= base))

    def z_ok(x, want, se, live):
        return np.all(np.abs(x - want)[live] < 5 * se[live])

    for c, q in ((ch0, q0), (ch1, q1)):
        mean, var = base * q, base * q * (1 - q)
        live = var > 0
        assert z_ok(c.mean(axis=0), mean, np.sqrt(var / draws), live)
        assert np.all(c.std(axis=0)[~live] == 0)
        fourth = var * (1 + 3 * (base - 2) * q * (1 - q))  # the binomial's fourth central moment
        assert z_ok(c.var(axis=0), var, np.sqrt((fourth - var**2) / draws), live)
        p0 = (1 - q) ** base
        assert np.all(np.abs((c == 0).mean(axis=0) - p0) <= 5 * np.sqrt(p0 * (1 - p0) / draws) + 1e-12)
    prod = (ch0 - ch0.mean(axis=0)) * (ch1 - ch1.mean(axis=0))
    live = base > 0
    assert z_ok(prod.mean(axis=0), -base * q0 * q1, prod.std(axis=0) / math.sqrt(draws), live)
    none = (1 - q0 - q1) ** base
    got = ((ch0 == 0) & (ch1 == 0)).mean(axis=0)
    assert np.all(np.abs(got - none) <= 5 * np.sqrt(none * (1 - none) / draws) + 1e-12)
    for c in (ch0, ch1):
        for cell in range(base.shape[1]):
            a, b = c[:, 1, cell], c[:, 3, cell]
            if a.std() > 0 and b.std() > 0:
                assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(draws)


def test_phase_free_clicks_edge_probabilities():
    rng = np.random.default_rng(35)
    pool = np.array([[0, 4, 7, 1], [9, 0, 2, 6], [3, 5, 0, 8]])
    q0 = np.array([1.0, 0.0, 0.2, 0.0])
    q1 = np.array([0.0, 1.0, 0.8, 0.0])
    ch0, ch1 = channelsim._phase_free_clicks(rng, pool, q0, q1)
    assert np.array_equal(ch0[:, 0], pool[:, 0]) and np.all(ch1[:, 0] == 0)
    assert np.all(ch0[:, 1] == 0) and np.array_equal(ch1[:, 1], pool[:, 1])
    # q0 + q1 = 1: every window clicks on exactly one channel.
    assert np.array_equal(ch0[:, 2] + ch1[:, 2], pool[:, 2])
    assert np.all(ch0[:, 3] == 0) and np.all(ch1[:, 3] == 0)
    empty = np.zeros_like(pool)
    ch0, ch1 = channelsim._phase_free_clicks(rng, empty, np.full(4, 0.3), np.full(4, 0.2))
    assert np.array_equal(ch0, empty) and np.array_equal(ch1, empty)


def test_span_sampler_matches_per_window_oracle():
    """Two-sample z-test per cell between the span-level simulator and the
    per-window oracle over many short sessions, at high click rates and
    visibility below 1.  In the second configuration the phase drifts by
    about 1.3 rad per span and the reference estimate is precise, so the
    both-send windows' spread around the span mean shows in the cells; the
    third keeps its windows at a threshold between keep-level edges."""
    configs = [
        (ProtocolParams(mu=0.2, epsilon=0.4, p_t=0.3),
         ChannelModel(fiber_km_a=2, fiber_km_b=3, dark_prob=2e-3, visibility=0.9,
                      det_eff_left=0.7, det_eff_right=0.6),
         100 * DEFAULT_SPAN_WINDOWS, 45.0),
        (ProtocolParams(mu=0.3, epsilon=0.5, p_t=0.4, delta_threshold=math.radians(45)),
         ChannelModel(fiber_km_a=1, fiber_km_b=1, dark_prob=2e-3, visibility=0.8,
                      drift_rad_per_window=0.1),
         100 * DEFAULT_SPAN_WINDOWS + 77, 1000.0),
        # A threshold off the keep-level grid splits the bin it falls in.
        (ProtocolParams(mu=0.2, epsilon=0.4, p_t=0.3, delta_threshold=0.5),
         ChannelModel(fiber_km_a=2, fiber_km_b=3, dark_prob=2e-3, visibility=0.9),
         100 * DEFAULT_SPAN_WINDOWS, 45.0),
    ]
    sessions = 400
    worst = 0.0
    for k, (params, model, n, ref) in enumerate(configs):
        rng = np.random.default_rng(100 + k)
        oracle = np.array([_oracle_cells(params, model, n, rng, ref) for _ in range(sessions)])
        spans = np.array([
            _sampler_cells(simulate_session(params, model, n, seed=1000 * k + i,
                                            mean_ref_counts=ref).tallies)
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
         ChannelModel(fiber_km_a=1, fiber_km_b=2, dark_prob=1e-6, visibility=0.0,
                      gate_fraction=0.8),
         600_000),
    ]
    for params, model, n in draws:
        res = simulate_session(params, model, n, seed=5, mean_ref_counts=200.0)
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
        res = simulate_session(params, model, n, seed=5, mean_ref_counts=200.0)
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
        mu_a = mp.mpf(params.mu) * model.gate_fraction * arm_transmittance(model, "a")
        mu_b = mp.mpf(params.mu) * model.gate_fraction * arm_transmittance(model, "b")
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
    together = channelsim._effective_probs(
        params, model, thresholds, channelsim._arm_intensities(model, mu, fibre)
    )
    for i in range(3):
        alone = channelsim._effective_probs(
            params, model, thresholds[i], channelsim._arm_intensities(model, mu[i:i + 1], fibre[i:i + 1])
        )
        assert np.array_equal(together[i:i + 1], alone)
    single = channelsim._effective_probs(replace(params, mu=mu[1]), model, thresholds[1])
    assert np.array_equal(
        single,
        channelsim._effective_probs(params, model, thresholds[1], channelsim._arm_intensities(model, mu[1:2])),
    )


def test_effective_probs_per_row_visibility_equals_single_rows():
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    vis = [0.0, 0.25, 0.9, 0.9990234375, 1.0]
    mu = [2e-4, 3e-3, 0.05, 0.002, 0.01]
    thresholds = [math.radians(2.0), math.radians(30.0), math.pi]
    together = channelsim._effective_probs(
        params, model, thresholds, channelsim._arm_intensities(model, mu),
        np.array(vis)[:, None],
    )
    for i, v in enumerate(vis):
        alone = channelsim._effective_probs(
            replace(params, mu=mu[i]), replace(model, visibility=v), thresholds
        )
        assert np.array_equal(together[i:i + 1], alone)


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
def test_effective_probs_rejects_bad_row_visibility(bad):
    params = defaults.reference_params()
    model = defaults.reference_model(50.0)
    vis = np.array([[0.5], [bad], [1.0]])
    with pytest.raises(ValueError, match=rf"visibility must lie in \[0, 1\], got {bad!r}"):
        channelsim._effective_probs(
            params, model, [math.radians(30.0)], channelsim._arm_intensities(model, [0.002] * 3), vis
        )


@pytest.mark.parametrize("p_t", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("m", [5 * DEFAULT_SPAN_WINDOWS + 77, CHUNK_WINDOWS])
def test_chunk_totals_equal_sums_over_span_counts(monkeypatch, p_t, m):
    """A chunk's sent windows per state and its effective windows equal the
    sums over its per-span counts, read here through a threshold that keeps
    every span."""
    monkeypatch.setattr(phasetrack, "estimate_phase_batch", lambda counts: np.zeros(len(counts)))
    params = ProtocolParams(mu=0.5, epsilon=0.3, p_t=p_t)
    model = ChannelModel(fiber_km_a=1.0, fiber_km_b=2.0, dark_prob=1e-3, visibility=0.9)
    phase_free = channelsim._effective_probs(params, model)[0]
    sent, effective, per_thr = channelsim._chunk_tallies(
        (params, model, 9, 0, m, 0.3, -0.2, np.array([math.pi]), 45.0, phase_free)
    )
    (cells,) = per_thr
    assert sent.tolist() == cells[..., 0].sum(axis=1).tolist()
    assert sent.sum() == m
    assert type(effective) is int
    assert effective == cells[..., 1:].sum() > 0
    test_windows, key_windows = cells[..., 0].sum(axis=0)
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
    keyrate.optimize_params(model, params, grid=3, refine_rounds=2)
    keyrate.calibrate_visibility(params, model, defaults.REFERENCE_BOTH_SEND_QBER)
    assert calls == [64]


def test_simulation_never_builds_quadrature(monkeypatch):
    calls = _count_leggauss(monkeypatch)
    simulate_session(ProtocolParams(mu=0.1, epsilon=0.3), ChannelModel(), 20_000, seed=4,
                     thresholds=[math.radians(10)])
    assert calls == []
