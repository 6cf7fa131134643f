"""Session simulator for the sending-or-not-sending coherent-state protocol.

Each signal window both parties independently choose to inject a coherent
pulse of mean photon number ``mu`` (probability ``epsilon``) or vacuum.  The
pulses travel through lossy fibre arms, interfere on a symmetric beam
splitter, and two threshold detectors watch the output ports.  A window is
*effective* when exactly one detector clicks.  The interferometer phase
performs a slow random walk which is tracked from interleaved reference
pulses (see :mod:`scfqkd.phasetrack`); windows whose estimated phase
magnitude falls below the post-selection threshold are kept.

Bit convention: the party labelled A maps "send" to bit 1, the party
labelled B maps "send" to bit 0, so the mismatched-decision windows carry
perfectly correlated bits.  State labels are two digits, A first, each digit
1 when that party sent ("01" means only B sent).

Every count lives in one tally layout, :class:`SessionTallies`: per joint
state the windows sent and selected, then a (subset, cell) table with
subset (test, key) and cell (windows, effective on ch0, effective on
ch1).  The Monte Carlo chunks and the batched expected-value model produce
that (state, subset, cell) table directly, the raw files of
:mod:`scfqkd.dataio` name its entries, and the estimator reads one subset
of it as a :class:`~scfqkd.estimator.TallySet`.

The Monte Carlo works per reference span rather than per window, which is
exact for this model: only both-send ("11") windows, a fraction epsilon**2
of all windows, click with a phase-dependent probability; post-selection
looks only at the span-mean phase; and the 00/01/10 windows click
independently of the phase, so they are counted per keep-level bin (see
below) rather than per span.  The session is cut into chunks of whole
spans.  The session stream (:func:`_chunk_rng` index 0) draws the initial
phase, uniform on [0, 2 pi), then each chunk's drift total
T ~ N(0, sigma**2 m) for a chunk of m windows; a chunk starts at the
initial phase plus the totals before it.
Every chunk owns an independent, deterministically seeded stream and draws
in this frozen order:

1. the chunk's both-send windows: one Binomial(m, epsilon**2) total, spread
   over the chunk's windows uniformly without replacement (:func:`_spread`);
2. the walk only where it is observed (see :func:`_bridge`): one normal per
   pinned point in chunk order (per span its both-send windows, then its
   end) for a free Gaussian walk that is pinned to T once (a discrete
   Brownian bridge), and one normal per span for the span mean given those
   points;
3. the four reference slot counts per span (Poisson at the span-mean
   phase), from which the span's phase is estimated;
4. per both-send window a test-set uniform, then left and right click
   uniforms against the click probabilities at its phase;
5. per keep-level bin, one multinomial of its spans' other windows over
   (00, 01, 10) x (test, key);
6. the chunk's effective clicks of those windows (see
   :func:`_phase_free_clicks`): one binomial total per (state, subset)
   cell, then per nonzero cell its effective windows over the bins by
   :func:`_spread` and one channel uniform each.

A span's keep level is the minor angle of its estimated phase, and a span
is kept at threshold delta when its level is below delta.  The levels fall
into fixed bins with edges at 1, 2, ..., 180 degrees; a sum of multinomials
with one probability vector is multinomial, so step 5 is exact.  A
threshold on an edge keeps whole bins, one row of a cumulative sum over
bins.  A threshold between edges also keeps the spans of its own bin whose
level lies below it: their 00/01/10 windows are a prefix of one uniformly
random order of the bin's windows, labelled by (state, subset, click) and
handed to the bin's spans in level order, which is the exact law given the
bin's counts.  That order comes from a stream keyed by (seed, chunk, bin),
and every threshold in the bin reads it, so a threshold's tallies do not
depend on which others are requested.  Chunk streams are keyed by (seed,
chunk), and a session adds up its chunks' int64 counts, whose sum does not
depend on the order, so the chunks can run in any number of worker
processes with bit-identical results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import phasetrack
from .phasecore import interfere, minor_angle

STATE_LABELS = ("00", "01", "10", "11")
"""Joint send states, A's digit first, 1 = sent a pulse."""

CHUNK_SPANS = 4096
"""Reference spans per simulation chunk."""


_ROW_RANGES = {
    "mu": ("be finite and non-negative", lambda v: (0.0 <= v) & (v < math.inf)),
    "epsilon": ("lie in [0, 1]", lambda v: (0.0 <= v) & (v <= 1.0)),
    "delta_threshold": ("lie in (0, pi]", lambda v: (0.0 < v) & (v <= math.pi)),
}
"""Range rules of the protocol parameters that batched analyses vary per
row, and of the extra post-selection thresholds of a session."""
_ROW_RANGES["thresholds"] = _ROW_RANGES["delta_threshold"]


def _check_rows(**values: np.ndarray) -> None:
    """Apply the range rules and their messages to arrays of values, one
    per row or per threshold; the first offending value is reported."""
    for name, v in values.items():
        rule, ok = _ROW_RANGES[name]
        good = ok(v)
        if not good.all():
            raise ValueError(f"{name} must {rule}, got {v[~good][0].item()!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level configuration shared by simulation and analysis.

    ``mu`` is the signal mean photon number at the source, ``epsilon`` the
    per-window send probability of each party, ``delta_threshold`` the
    post-selection bound on the minor angle of the estimated phase (radians),
    ``f_ec`` the error-correction inefficiency and ``p_t`` the fraction of
    kept windows sacrificed as the test set.
    """

    mu: float = 0.002
    epsilon: float = 0.021
    delta_threshold: float = math.radians(30.0)
    f_ec: float = 1.1
    p_t: float = 0.1

    def __post_init__(self) -> None:
        for name in ("mu", "epsilon", "delta_threshold"):
            rule, ok = _ROW_RANGES[name]
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must {rule}, got {value!r}")
        if not self.f_ec >= 1.0:
            raise ValueError(f"f_ec must be at least 1, got {self.f_ec!r}")
        if not 0.0 <= self.p_t <= 1.0:
            raise ValueError(f"p_t must lie in [0, 1], got {self.p_t!r}")


@dataclass(frozen=True)
class ChannelModel:
    """Physical model of the two arms, the interference and the detectors.

    Fibre attenuation and lumped component losses are in dB; detector
    efficiencies fold in everything after the beam splitter.  ``dark_prob``
    is the per-window dark-click probability of each detector.
    ``drift_rad_per_window`` is the standard deviation of the Gaussian phase
    increment per signal window.  ``gate_fraction`` scales the effective
    signal intensity for detector gating narrower than the pulse.
    """

    fiber_km_a: float = 25.0
    fiber_km_b: float = 25.0
    atten_db_per_km: float = 0.2
    comp_loss_db_a: float = 0.0
    comp_loss_db_b: float = 0.0
    det_eff_left: float = 1.0
    det_eff_right: float = 1.0
    dark_prob: float = 1e-8
    drift_rad_per_window: float = phasetrack.drift_scale_per_window()
    visibility: float = 1.0
    gate_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("fiber_km_a", "fiber_km_b", "atten_db_per_km", "comp_loss_db_a", "comp_loss_db_b"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("det_eff_left", "det_eff_right"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError(f"dark_prob must lie in [0, 1), got {self.dark_prob!r}")
        if not self.drift_rad_per_window >= 0.0:
            raise ValueError("drift_rad_per_window must be non-negative")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility!r}")
        if not 0.0 < self.gate_fraction <= 1.0:
            raise ValueError(f"gate_fraction must lie in (0, 1], got {self.gate_fraction!r}")


_STATE_CHANNELS = tuple((s, ch) for s in STATE_LABELS for ch in (0, 1))


def _view(keys, values: np.ndarray) -> Mapping:
    """Read-only mapping of ``keys`` to the flattened ``values``."""
    return MappingProxyType(dict(zip(keys, values.ravel().tolist())))


@dataclass(eq=False)
class SessionTallies:
    """Aggregate counts of a session in the package's one tally layout.

    ``counts`` has one row per joint state, in ``STATE_LABELS`` order, and
    eight columns: the windows sent, the windows kept at the threshold
    (selected), then the kept windows' (subset, cell) table with subset
    (test, key) and cell (windows, effective on ch0, effective on ch1).
    :attr:`cells` is that table as a (state, subset, cell) view.  Values
    are ints for Monte Carlo runs, floats for expected-value calculations,
    and for a raw tally file ints when every cell is an integer, else floats.

    ``sent``, ``sent_selected``, ``sent_test``, ``sent_key``,
    ``detected_test`` and ``detected_key`` are read-only mappings of the
    raw-file cells, keyed by state or by (state, physical channel).
    """

    n_windows: float
    threshold: float
    counts: np.ndarray
    effective_windows: float = 0

    cells = property(lambda self: self.counts[:, 2:].reshape(4, 2, 3))
    sent = property(lambda self: _view(STATE_LABELS, self.counts[:, 0]))
    sent_selected = property(lambda self: _view(STATE_LABELS, self.counts[:, 1]))
    sent_test = property(lambda self: _view(STATE_LABELS, self.counts[:, 2]))
    sent_key = property(lambda self: _view(STATE_LABELS, self.counts[:, 5]))
    detected_test = property(lambda self: _view(_STATE_CHANNELS, self.counts[:, 3:5]))
    detected_key = property(lambda self: _view(_STATE_CHANNELS, self.counts[:, 6:8]))

    def __eq__(self, other):
        if not isinstance(other, SessionTallies):
            return NotImplemented
        return (self.n_windows, self.threshold, self.effective_windows) == (
            other.n_windows, other.threshold, other.effective_windows
        ) and np.array_equal(self.counts, other.counts)

    def check_conservation(self) -> None:
        """Raise ValueError if the tally structure is internally inconsistent."""
        sent, selected, test, _, _, key, _, _ = self.counts.T.tolist()
        if sum(sent) != self.n_windows:
            raise ValueError("sent counts do not sum to the number of windows")
        for s, n_sent, n_sel, n_test, n_key in zip(STATE_LABELS, sent, selected, test, key):
            if n_sel > n_sent:
                raise ValueError(f"selected count exceeds sent count for state {s}")
            if n_test + n_key != n_sel:
                raise ValueError(f"test/key split does not partition state {s}")
        if (self.counts < 0).any():
            raise ValueError("negative count in the tallies")


@dataclass
class SimulationResult:
    """Outcome of :func:`simulate_session`.

    ``tallies`` is cut at the configured threshold; ``by_threshold`` holds
    one tally set per requested threshold (always including the primary one)
    so a single run can be re-analysed at several post-selection widths.
    The session's inputs are not echoed here; ``tallies.n_windows`` holds
    its window count.
    """

    tallies: SessionTallies
    by_threshold: dict


def arm_transmittance(model: ChannelModel, arm: str, fiber_km: float | None = None) -> float:
    """Power transmittance of one arm from source to beam splitter.

    ``arm`` is "a" or "b" (case-insensitive).  Combines fibre attenuation
    with the lumped component loss of that arm; detector efficiency is not
    included.  ``fiber_km`` replaces the model's fibre length of the arm.
    """
    key = arm.lower() if isinstance(arm, str) else arm
    if key == "a":
        length, comp = model.fiber_km_a, model.comp_loss_db_a
    elif key == "b":
        length, comp = model.fiber_km_b, model.comp_loss_db_b
    else:
        raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")
    loss_db = (length if fiber_km is None else fiber_km) * model.atten_db_per_km + comp
    return 10.0 ** (-loss_db / 10.0)


def _arm_intensities(model: ChannelModel, mu, fiber_km=None) -> np.ndarray:
    """Signal intensities of arms a and b at the beam splitter, shape (rows, 2).

    ``mu`` holds one source intensity per row; ``fiber_km`` optionally
    gives each row's (arm a, arm b) fibre lengths in place of the model's.
    """
    if fiber_km is None:
        trans = [arm_transmittance(model, "a"), arm_transmittance(model, "b")]
    else:
        trans = [[arm_transmittance(model, arm, f) for arm, f in zip("ab", row)] for row in fiber_km]
    return np.asarray(mu, dtype=float)[:, None] * model.gate_fraction * np.reshape(trans, (-1, 2))


def click_probabilities(
    params: ProtocolParams,
    model: ChannelModel,
    alice_sent,
    bob_sent,
    phase_diff,
    intensity=None,
    visibility=None,
):
    """Per-window click probabilities of the two detectors.

    A sending party contributes ``mu * gate_fraction * arm_transmittance``
    at the beam splitter, a silent one contributes vacuum.  Threshold
    detection of the coherent output with efficiency eta and dark
    probability d clicks with probability 1 - (1 - d) * exp(-I * eta); the
    two detectors sample independently.  Returns ``(p_left, p_right)``
    where left watches the port that is bright at zero phase difference.
    Accepts scalars or broadcastable arrays.  ``intensity`` optionally
    replaces the sending intensities of arms a and b by a pair of arrays
    that broadcast against the other arguments, such as one per batch row,
    and ``visibility`` likewise replaces the model's visibility, for
    example by a per-row array of shape (rows, 1).
    """
    mu_a, mu_b = _arm_intensities(model, [params.mu])[0] if intensity is None else intensity
    ports = interfere(
        np.where(alice_sent, mu_a, 0.0),
        np.where(bob_sent, mu_b, 0.0),
        phase_diff,
        model.visibility if visibility is None else visibility,
    )
    d = model.dark_prob
    p_left = d - (1.0 - d) * np.expm1(-np.asarray(ports.left) * model.det_eff_left)
    p_right = d - (1.0 - d) * np.expm1(-np.asarray(ports.right) * model.det_eff_right)
    if np.ndim(p_left) == 0:
        return float(p_left), float(p_right)
    return p_left, p_right


# ---------------------------------------------------------------------------
# Deterministic chunked Monte Carlo
# ---------------------------------------------------------------------------

_SPAN = phasetrack.DEFAULT_SPAN_WINDOWS
CHUNK_WINDOWS = CHUNK_SPANS * _SPAN
_KEEP_EDGES = np.radians(np.arange(1, 181))
"""Edges of the keep-level bins, 1 to 180 degrees, each equal bit for bit to
``math.radians`` of its degree."""


def _threshold_list(params: ProtocolParams, thresholds: Sequence[float] | None) -> list:
    """The primary threshold followed by each distinct extra one (radians)."""
    extra = np.asarray([] if thresholds is None else thresholds, dtype=float)
    _check_rows(thresholds=extra)
    return list(dict.fromkeys([params.delta_threshold, *extra.tolist()]))


def _chunk_rng(seed: int, chunk_index: int, *key: int) -> np.random.Generator:
    """Independent random stream for one chunk; index 0 is the session stream.
    A ``key`` names a further stream of the chunk, such as a bin's split."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, chunk_index], spawn_key=key))
    )


def _spread(rng: np.random.Generator, pool: np.ndarray, k: int):
    """Pick ``k`` of the windows of a ``pool`` counted per span (or per
    bin) uniformly without replacement.  Returns their sorted indices in the
    concatenated pool and the span (or bin) of each."""
    ends = np.cumsum(pool)
    picks = np.sort(rng.choice(ends[-1], k, replace=False, shuffle=False))
    return picks, np.searchsorted(ends, picks, "right")


def _bridge(
    rng: np.random.Generator,
    total: float,
    length: np.ndarray,
    both: np.ndarray,
    span: np.ndarray,
    scale: float,
):
    """Walk of a chunk, pinned at its drift total, drawn only where it is
    observed.

    The chunk's spans have ``length`` windows; ``both`` holds the sorted
    chunk indices (from 0) of its both-send windows and ``span`` the span of
    each.  The walk W has W_0 = 0 at the chunk's start, W_t the offset of
    its t-th window and W_m = ``total`` at its end.  Its pinned points are,
    per span in order, the span's both-send windows and then the span's
    end.  Draws, in this order, a free Gaussian walk U at the pinned points,
    so that W_t = U_t - (t / m)(U_m - total) has the law of the walk given
    its total (the discrete Brownian bridge), and one normal per span for
    the span mean given those points.  Between pinned points (a, W_a) and
    (b, W_b), the first starting from (0, 0), n = b - a steps, the walk is
    again a bridge, and its sum over windows a+1..b is Gaussian with mean
    n W_a + (W_b - W_a)(n + 1) / 2 and variance scale**2 n (n**2 - 1) / 12;
    a span's sum adds up its segments.  Returns the span-mean offsets and
    the both-send windows' offsets.
    """
    # Where each span's end, its first pinned point and each both-send
    # window sit among the pinned points.
    n_both = np.bincount(span, minlength=len(length))
    end_at = np.cumsum(n_both + 1) - 1
    first_at = end_at - n_both
    both_at = span + np.arange(span.size)
    end = np.cumsum(length)
    t = np.empty(end_at[-1] + 1)
    t[end_at] = end
    t[both_at] = both + 1
    gap = np.diff(t, prepend=0.0)
    free = np.cumsum(scale * np.sqrt(gap) * rng.standard_normal(t.size))
    walk = free - t / end[-1] * (free[-1] - total)
    prev = np.concatenate(([0.0], walk[:-1]))
    span_sum = np.add.reduceat(gap * prev + (walk - prev) * (gap + 1) / 2, first_at)
    span_var = np.add.reduceat(gap * (gap * gap - 1) / 12, first_at)
    mean = (span_sum + scale * np.sqrt(span_var) * rng.standard_normal(len(length))) / length
    return mean, walk[both_at]


def _phase_free_clicks(rng: np.random.Generator, pool: np.ndarray, q0: np.ndarray, q1: np.ndarray):
    """Effective clicks on channel 0 and on channel 1, stacked, among
    ``pool`` windows per (bin, cell), with per-cell probabilities ``q0``
    and ``q1``: one Binomial(windows, q0 + q1) total per cell, spread over
    the cell's windows by :func:`_spread`, then per effective window a
    uniform u that puts it on channel 1 when u (q0 + q1) >= q0.  This is
    the trinomial law of each window, independently."""
    q = q0 + q1
    totals = rng.binomial(pool.sum(axis=0), np.minimum(q, 1.0))
    clicks = np.zeros((2, *pool.shape), dtype=pool.dtype)
    for c in np.flatnonzero(totals):
        _, span = _spread(rng, pool[:, c], totals[c])
        one = rng.random(span.size) * q[c] >= q0[c]
        clicks[:, :, c] = np.bincount(2 * span + one, minlength=2 * len(pool)).reshape(-1, 2).T
    return clicks


def _bin_prefix(rng: np.random.Generator, cells: np.ndarray, k: int) -> np.ndarray:
    """Cells of the first ``k`` windows of a uniformly random order of the
    windows that ``cells``, shaped (..., (windows, on ch0, on ch1)), counts."""
    flat = cells.reshape(-1, 3)
    labels = np.column_stack((flat[:, 0] - flat[:, 1] - flat[:, 2], flat[:, 1:])).ravel()
    order = rng.permutation(np.repeat(np.arange(labels.size), labels))
    got = np.bincount(order[:k], minlength=labels.size).reshape(-1, 3)
    return np.column_stack((got.sum(axis=1), got[:, 1:])).reshape(cells.shape)


def _chunk_tallies(args):
    """Simulate one chunk, in the module docstring's draw order, with its
    counts gathered per keep-level bin.

    Returns the chunk's sent windows per state, its effective windows, and
    per threshold the kept spans' counts shaped (state, subset, cell) with
    subset (test, key) and cell (windows, effective on ch0, on ch1).
    """
    (params, model, seed, chunk_index, m, phi_offset, chunk_total, thresholds, mean_ref_counts,
     phase_free) = args
    rng = _chunk_rng(seed, chunk_index + 1)
    # Only the session's last span can be short.
    length = np.minimum(_SPAN, m - np.arange(0, m, _SPAN))
    n_spans = len(length)
    scale = model.drift_rad_per_window
    eps = params.epsilon

    both, both_span = _spread(rng, length, rng.binomial(m, eps * eps))
    mean, both_offset = _bridge(rng, chunk_total, length, both, both_span, scale)

    lam = 0.5 * mean_ref_counts * phasetrack.slot_probabilities(phi_offset + mean)
    level = minor_angle(phasetrack.estimate_phase_batch(rng.poisson(lam)))
    span_bin = np.searchsorted(_KEEP_EDGES, level, "right")
    n_bins = _KEEP_EDGES.size + 1

    counts = np.empty((n_bins, 4, 2, 3), dtype=np.int64)
    is_key = rng.random(both.size) >= params.p_t
    p_left, p_right = click_probabilities(params, model, True, True, phi_offset + both_offset)
    left = rng.random(both.size) < p_left
    right = rng.random(both.size) < p_right
    eff = left != right
    # One entry per both-send window and one per effective click: its span
    # and its (subset, cell) index.
    entry_span = np.concatenate((both_span, both_span[eff]))
    entry_cell = np.concatenate((3 * is_key, 3 * is_key[eff] + 1 + right[eff]))
    counts[:, 3] = np.bincount(
        span_bin[entry_span] * 6 + entry_cell, minlength=n_bins * 6
    ).reshape(n_bins, 2, 3)

    other = length - np.bincount(both_span, minlength=n_spans)
    p = np.outer(np.array([1.0 - eps, eps, eps]) / (1.0 + eps), [params.p_t, 1.0 - params.p_t])
    pool = rng.multinomial(np.bincount(span_bin, other, n_bins).astype(np.int64), p.ravel())
    q0, q1 = np.repeat(phase_free, 2, axis=0).T
    clicks = _phase_free_clicks(rng, pool, q0, q1)
    counts[:, :3] = np.stack((pool, *clicks), axis=2).reshape(n_bins, 3, 2, 3)

    # Row j holds the counts of the bins below bin j.
    below = np.concatenate((np.zeros((1, 4, 2, 3), np.int64), counts.cumsum(axis=0)))
    at = np.searchsorted(_KEEP_EDGES, thresholds, "right")
    per_thr = below[at]
    for t, (thr, b) in enumerate(zip(thresholds.tolist(), at.tolist())):
        if b and _KEEP_EDGES[b - 1] == thr:
            continue
        # Off the grid: the spans of bin b below thr, the first in level order.
        kept = (span_bin == b) & (level < thr)
        if kept.any():
            split = _chunk_rng(seed, chunk_index + 1, b)
            per_thr[t, :3] += _bin_prefix(split, counts[b, :3], other[kept].sum())
            entry = kept[entry_span]
            per_thr[t, 3] += np.bincount(entry_cell[entry], minlength=6).reshape(2, 3)
    return below[-1, ..., 0].sum(axis=1), int(eff.sum() + clicks.sum()), per_thr


def _chunk_args(session: tuple, k: int) -> tuple:
    """The argument of :func:`_chunk_tallies` for chunk ``k`` of a
    ``session`` of (params, model, seed, n_windows, every chunk's start
    phase, every chunk's drift total, thresholds, mean reference counts,
    phase-free click probabilities)."""
    params, model, seed, n_windows, starts, totals, *shared = session
    m = min(CHUNK_WINDOWS, n_windows - k * CHUNK_WINDOWS)
    return (params, model, seed, k, m, starts[k], totals[k], *shared)


MIN_CHUNKS_PER_PROCESS = 3
"""Chunks per process below which a session starts fewer helpers: on a
2-core host, 2 workers took 1.02-1.04 times the wall time of 1 at 5 chunks
and 0.86-0.88 times at 6."""


def _sum_chunks(session: tuple, chunks):
    """The results of :func:`_chunk_tallies` over the chunk indices
    ``chunks``, added up part by part; None for no chunk."""
    total = None
    for k in chunks:
        part = _chunk_tallies(_chunk_args(session, k))
        total = part if total is None else [a + b for a, b in zip(total, part)]
    return total


def _claims(counter, n_chunks: int):
    """Chunk indices claimed one at a time from the shared ``counter``
    until it reaches ``n_chunks``."""
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= n_chunks:
            return
        yield k


def _helper(session: tuple, n_chunks: int, counter, conn) -> None:
    """Body of a helper process: send the sum of the chunks it claims, or
    the exception a chunk raised, after which no process claims another."""
    try:
        conn.send(_sum_chunks(session, _claims(counter, n_chunks)))
    except Exception as exc:
        with counter.get_lock():
            counter.value = n_chunks
        conn.send(exc)


def _start_helper(ctx, session: tuple, n_chunks: int, counter):
    """Start one helper process; return it and the end of the pipe it sends on."""
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_helper, args=(session, n_chunks, counter, sender), daemon=True)
    proc.start()
    sender.close()
    return proc, receiver


def _run_chunks(session: tuple, n_chunks: int, workers: int):
    """The chunk results of a session, added up by at most ``workers``
    processes, this one included.  Each process has at least
    ``MIN_CHUNKS_PER_PROCESS`` chunks, so a short session runs here alone.
    Otherwise ``workers - 1`` helpers start, and every process takes the
    next chunk index from one shared counter, so none holds a chunk it has
    not started, and sends its sum once.  A chunk error in a helper moves
    the counter to the end, so the others stop after their current chunk,
    and is raised here, as is the exit of a helper that sent nothing.  After
    any error the helpers are terminated; they are always joined.
    """
    workers = max(1, min(workers, n_chunks // MIN_CHUNKS_PER_PROCESS))
    if workers == 1:
        return _sum_chunks(session, range(n_chunks))
    import multiprocessing

    ctx = multiprocessing.get_context()
    counter = ctx.Value("q", 0)
    helpers = []
    try:
        for _ in range(workers - 1):
            helpers.append(_start_helper(ctx, session, n_chunks, counter))
        parts = [_sum_chunks(session, _claims(counter, n_chunks))]
        for proc, receiver in helpers:
            try:
                part = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a Monte Carlo helper exited with code {proc.exitcode} "
                                   "without sending its chunks") from None
            if isinstance(part, BaseException):
                raise part
            parts.append(part)
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, receiver in helpers:
            proc.join()
            receiver.close()
    return [sum(part) for part in zip(*(p for p in parts if p is not None))]


def window_count(value, name: str = "n_windows") -> int:
    """``value`` as a number of windows: a whole number of at least 1, such
    as ``1e8``; anything else raises a ValueError that names ``name``."""
    try:
        count = float(value)
    except (TypeError, ValueError):
        count = math.nan
    if not (math.isfinite(count) and count >= 1 and count.is_integer()):
        raise ValueError(f"{name} must be a whole number of at least 1, got {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else int(count)


def simulate_session(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: int,
    seed: int,
    workers: int = 1,
    thresholds: Sequence[float] | None = None,
    mean_ref_counts: float = phasetrack.DEFAULT_MEAN_REF_COUNTS,
) -> SimulationResult:
    """Run a full Monte Carlo session and aggregate raw-file-shaped tallies.

    ``thresholds`` optionally lists additional post-selection widths
    (radians) to tally alongside ``params.delta_threshold``; each
    threshold's tallies are the same whatever others are requested.  The
    result is bit-identical for any ``workers`` value: the session is cut
    into chunks with independent seeded streams, whose int64 tallies add up
    in any order.  Every chunk's drift total and start phase, the initial
    phase plus the totals of the chunks before it, come from the session
    stream before any chunk runs; each chunk then pins its walk to its
    total once, at its both-send windows and span ends.

    ``n_windows`` is a whole number of at least 1, such as ``1e8``.
    ``workers`` caps the processes that compute chunks, this one included;
    each takes the next chunk from a shared counter.  At most one process
    runs per ``MIN_CHUNKS_PER_PROCESS`` (3) chunks, because starting a helper
    costs about as much as a chunk's work, so a session of fewer than 6
    chunks (a chunk is 737,280 windows) runs in this process alone.  On a
    2-core host, ``workers=2`` took 43 ms for 10**7 windows against 59 ms
    with ``workers=1``, and 0.31-0.33 s for 10**8 windows against
    0.53-0.63 s.
    """
    n_windows = window_count(n_windows)
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    thr_list = _threshold_list(params, thresholds)
    thr_arr = np.array(thr_list)

    n_chunks = -(-n_windows // CHUNK_WINDOWS)
    sizes = np.minimum(CHUNK_WINDOWS, n_windows - CHUNK_WINDOWS * np.arange(n_chunks))
    stream = _chunk_rng(seed, 0)
    phi0 = stream.uniform(0.0, 2.0 * math.pi)
    totals = model.drift_rad_per_window * np.sqrt(sizes) * stream.standard_normal(n_chunks)
    starts = np.cumsum(np.concatenate(([phi0], totals[:-1])))
    session = (params, model, seed, n_windows, starts, totals, thr_arr, mean_ref_counts,
               _effective_probs(params, model)[0])
    sent_total, eff_total, acc = _run_chunks(session, n_chunks, workers)

    by_threshold = {}
    for thr, cells in zip(thr_list, acc):
        selected = cells[:, :, 0].sum(axis=1)
        t = SessionTallies(
            n_windows, thr, np.column_stack((sent_total, selected, cells.reshape(4, 6))), eff_total
        )
        t.check_conservation()
        by_threshold[thr] = t
    return SimulationResult(tallies=by_threshold[params.delta_threshold], by_threshold=by_threshold)

# ---------------------------------------------------------------------------
# Expected-value model
# ---------------------------------------------------------------------------

_QUAD_NODES = 64


@functools.cache
def _quadrature():
    """Gauss-Legendre nodes on [-1, 1] and weights summing to 1, built on first use."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return x, w / w.sum()


def _effective_probs(
    params: ProtocolParams, model: ChannelModel, thresholds=(), intensity=None, visibility=None
) -> np.ndarray:
    """Effective-click probabilities (ch0, ch1) per row and case.

    A row is one configuration: ``intensity`` holds each row's signal
    intensities of arms a and b at the beam splitter, shape (rows, 2), and
    defaults to the single row of ``params`` and ``model``; ``visibility``
    optionally gives each row's visibility, shape (rows, 1), in place of the
    model's.  ``thresholds`` has shape (k,), shared by all rows, or (rows,
    k).  The result has shape (rows, 3 + k, 2): first states 00, 01 and 10,
    whose clicks do not depend on the phase, then per threshold t the
    both-send probabilities averaged over a phase difference uniform on
    [0, t].  A single click evaluation covers every row and case; without
    thresholds the quadrature is not built.
    """
    inten = _arm_intensities(model, [params.mu]) if intensity is None else intensity
    rows = len(inten)
    thr = np.broadcast_to(np.asarray(thresholds, dtype=float), (rows, np.shape(thresholds)[-1]))
    x, weight = _quadrature() if thr.size else (np.empty(0), np.empty(0))
    both = np.ones(thr.shape[1] * x.size, dtype=bool)
    alice = np.concatenate(([False, False, True], both))
    bob = np.concatenate(([False, True, False], both))
    t = thr[..., None]
    phase = np.concatenate(
        (np.zeros((rows, 3)), (0.5 * t * x + 0.5 * t).reshape(rows, both.size)), axis=1
    )
    p_left, p_right = click_probabilities(
        params, model, alice, bob, phase, intensity=(inten[:, :1], inten[:, 1:]), visibility=visibility
    )

    shape = (rows, thr.shape[1], x.size)

    def effective(p, q):
        # The p detector clicks and the q one does not; nodes reduce to
        # their weighted mean per threshold.
        nodes = weight * p[:, 3:].reshape(shape) * (1.0 - q[:, 3:].reshape(shape))
        return np.concatenate((p[:, :3] * (1.0 - q[:, :3]), nodes.sum(axis=2)), axis=1)

    return np.stack((effective(p_left, p_right), effective(p_right, p_left)), axis=2)


def _expected_cells(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: float,
    mu,
    epsilon,
    thresholds,
    fiber_km=None,
):
    """Expected-value cells of a batch of configurations, one row each.

    ``mu`` and ``epsilon`` hold one value per row, ``thresholds`` has shape
    (rows, k), and ``fiber_km`` optionally gives each row's (arm a, arm b)
    fibre lengths; everything else comes from ``params`` and ``model``.
    Returns the probabilities of :func:`_effective_probs`, the joint-state
    priors, shape (rows, 4), the expected kept windows per threshold and
    state, shape (rows, k, 4), and the cells, shape (rows, k, state,
    subset, cell) with subset (test, key) and cell (windows, effective on
    ch0, effective on ch1): the simulator's tally layout.
    """
    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    eps = np.asarray(epsilon, dtype=float)[:, None]
    thr = np.asarray(thresholds, dtype=float)
    eff = _effective_probs(params, model, thr, _arm_intensities(model, mu, fiber_km))
    prior = np.hstack(((1.0 - eps) ** 2, (1.0 - eps) * eps, eps * (1.0 - eps), eps * eps))
    selected = (n_windows * prior)[:, None, :] * (thr / math.pi)[..., None]
    pool = np.stack((selected * params.p_t, selected * (1.0 - params.p_t)), axis=3)
    p_eff = np.concatenate(
        (np.broadcast_to(eff[:, None, :3], (*thr.shape, 3, 2)), eff[:, 3:, None]), axis=2
    )
    cells = np.concatenate((pool[..., None], pool[..., None] * p_eff[:, :, :, None, :]), axis=4)
    return eff, prior, selected, cells


def expected_tallies(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: float,
    thresholds: Sequence[float] | None = None,
) -> dict:
    """Expected-value tallies of a session, keyed by threshold.

    Treats the estimated phase as uniformly distributed (its marginal under
    the random-walk model with uniform start), so a threshold delta keeps
    the fraction delta/pi of windows, and approximates the kept both-send
    windows' phase difference as uniform on [-delta, delta].  Estimation
    noise is not folded in; the visibility parameter absorbs it when the
    model is calibrated against measured data.  Single-send and vacuum
    windows have phase-independent click statistics, so for them the
    expectation is exact.

    The both-send averages use 64-node Gauss-Legendre quadrature whose
    nodes are computed once per process, on first use; one call evaluates
    the click probabilities once, for every state and threshold together.
    It is the single-row case of the batched model behind
    :func:`scfqkd.keyrate.analyze_expected_batch`.

    Returns ``{threshold: SessionTallies}`` with float-valued cells,
    covering ``params.delta_threshold`` and any extra ``thresholds``.
    """
    thr_list = _threshold_list(params, thresholds)
    eff, prior, selected, cells = (
        a[0]
        for a in _expected_cells(
            params, model, n_windows, [params.mu], [params.epsilon], [thr_list + [math.pi]]
        )
    )
    p, e = prior.tolist(), eff.tolist()
    effective = n_windows * (
        sum(p_s * (p0 + p1) for p_s, (p0, p1) in zip(p, e[:3])) + p[3] * (e[-1][0] + e[-1][1])
    )
    sent = n_windows * prior
    return {
        thr: SessionTallies(
            float(n_windows), thr, np.column_stack((sent, sel, c.reshape(4, 6))), effective
        )
        for thr, sel, c in zip(thr_list, selected, cells)
    }
