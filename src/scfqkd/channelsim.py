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
independently of the phase, so their counts per span are binomial.  The
session is cut into chunks of whole spans.  Every chunk owns an
independent, deterministically seeded random stream and draws in this
frozen order:

1. each span's drift sum S ~ N(0, sigma**2 L) for a span of L windows;
2. the number of both-send windows per span, Binomial(L, epsilon**2);
3. for spans without both-send windows, the span-mean offset from the
   span's starting phase, N(S (L+1) / (2L), sigma**2 (L+1)(L-1) / (12L)),
   which is its law given S;
4. for the other spans, the walk only where it is observed (see
   :func:`_bridge`): the both-send windows' distinct uniform positions
   (one integer per span holding one, then a row of uniforms per span
   holding more), a free Gaussian walk at those positions and then at the
   span's end, which turns into the walk given S (a discrete Brownian
   bridge), and one normal per span for the span mean given those points;
5. the four reference slot counts per span (Poisson at the span-mean
   phase), from which the span's phase is estimated;
6. per both-send window a test-set uniform, then left and right click
   uniforms against the click probabilities at its phase;
7. per span, chained binomials for the other windows: 01 and 10 counts,
   then the test split per state; then the chunk's effective clicks on
   channel 0, one binomial total per (state, subset) cell followed by a
   draw without replacement that spreads each nonzero total over its
   cell's windows, and likewise channel 1 among the windows without a
   channel-0 click (see :func:`_sparse_binomial`).

A span is kept at threshold delta when the minor angle of its estimated
phase is below delta.  Because the drift sums come first, a cheap
sequential prefix pass recovers each chunk's starting phase, and the
chunks can then be simulated in any number of worker processes with
bit-identical results.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import phasetrack
from .phasecore import interfere, minor_angle

STATE_LABELS = ("00", "01", "10", "11")
"""Joint send states, A's digit first, 1 = sent a pulse."""

CHUNK_SPANS = 1024
"""Reference spans per simulation chunk."""


_ROW_RANGES = {
    "mu": ("be non-negative", lambda v: v >= 0.0),
    "epsilon": ("lie in [0, 1]", lambda v: (0.0 <= v) & (v <= 1.0)),
    "delta_threshold": ("lie in (0, pi]", lambda v: (0.0 < v) & (v <= math.pi)),
}
"""Range rules of the protocol parameters that batched analyses vary per row."""


def _check_rows(**values: np.ndarray) -> None:
    """Apply :class:`ProtocolParams`' range checks and messages to arrays of
    per-row values; the first offending value is reported."""
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
    ``f_ec`` the error-correction inefficiency, ``p_t`` the fraction of kept
    windows sacrificed as the test set, and ``mu_ref`` the reference-pulse
    mean photon number (recorded for bookkeeping; reference statistics are
    parameterised directly by detected counts per span).  ``gamma_a`` and
    ``gamma_b`` are the parties' static source phases; only their difference
    matters and it is absorbed into the uniformly random initial phase.
    """

    mu: float = 0.002
    epsilon: float = 0.021
    delta_threshold: float = math.radians(30.0)
    f_ec: float = 1.1
    p_t: float = 0.1
    mu_ref: float = 0.062
    gamma_a: float = 0.0
    gamma_b: float = 0.0

    def __post_init__(self) -> None:
        for name, (rule, ok) in _ROW_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must {rule}, got {value!r}")
        if not self.f_ec >= 1.0:
            raise ValueError(f"f_ec must be at least 1, got {self.f_ec!r}")
        if not 0.0 <= self.p_t <= 1.0:
            raise ValueError(f"p_t must lie in [0, 1], got {self.p_t!r}")
        if not self.mu_ref >= 0.0:
            raise ValueError(f"mu_ref must be non-negative, got {self.mu_ref!r}")
        for name in ("gamma_a", "gamma_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


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
    are ints for Monte Carlo runs, floats for expected-value calculations
    and the numbers as written for a raw tally file.

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
    """

    params: ProtocolParams
    model: ChannelModel
    n_windows: int
    seed: int
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


def _threshold_list(params: ProtocolParams, thresholds: Sequence[float] | None) -> list:
    """The primary threshold followed by each distinct extra one (radians)."""
    thr_list = [params.delta_threshold]
    for t in thresholds or ():
        if not 0.0 < t <= math.pi:
            raise ValueError(f"thresholds must lie in (0, pi], got {t!r}")
        if t not in thr_list:
            thr_list.append(t)
    return thr_list


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent random stream for one chunk; index 0 is the session stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk_index])))


def _chunk_sizes(n_windows: int) -> list:
    return [min(CHUNK_WINDOWS, n_windows - start) for start in range(0, n_windows, CHUNK_WINDOWS)]


def _span_lengths(m: int) -> np.ndarray:
    """Windows per span of an m-window chunk; only the session's last span
    can be short."""
    return np.minimum(_SPAN, m - np.arange(0, m, _SPAN))


def _span_drift_sums(
    rng: np.random.Generator, model: ChannelModel, length: np.ndarray
) -> np.ndarray:
    """Phase drift accumulated over each span: the first draw of a chunk."""
    return model.drift_rad_per_window * np.sqrt(length) * rng.standard_normal(len(length))


def _initial_phase(params: ProtocolParams, seed: int) -> float:
    rng = _chunk_rng(seed, 0)
    return params.gamma_a - params.gamma_b + rng.uniform(0.0, 2.0 * math.pi)


def _chunk_offsets(model: ChannelModel, n_windows: int, seed: int, phi0: float) -> np.ndarray:
    """Starting phase of every chunk, recovered by a sequential prefix pass.

    Re-generates each chunk's span drift sums (the first draw of its
    stream) and accumulates them; cost is one normal per span, independent
    of the worker count used later.
    """
    sizes = _chunk_sizes(n_windows)
    offsets = np.empty(len(sizes))
    phi = phi0
    for k, m in enumerate(sizes):
        offsets[k] = phi
        phi += float(_span_drift_sums(_chunk_rng(seed, k + 1), model, _span_lengths(m)).sum())
    return offsets


def _span_mean_given_sum(
    rng: np.random.Generator, total: np.ndarray, length: np.ndarray, scale: float
) -> np.ndarray:
    """Span-mean offset from the span's starting phase, drawn from its
    Gaussian law given the span's drift sum ``total``."""
    sd = scale * np.sqrt((length + 1) * (length - 1) / (12 * length))
    return total * (length + 1) / (2 * length) + sd * rng.standard_normal(len(length))


def _bridge(
    rng: np.random.Generator,
    total: np.ndarray,
    length: np.ndarray,
    n_both: np.ndarray,
    scale: float,
):
    """Walk of the spans that hold both-send windows, pinned at its drift sum,
    drawn only where it is observed.

    Each row is a span whose walk W has W_0 = 0 at the span's start, W_tau
    the offset of its tau-th window, and W_L = ``total`` at its end.  Draws,
    in this order: the ``n_both`` positions per row, uniform and distinct
    (one integer in a row holding one, else the smallest of a row of
    uniforms); a free Gaussian walk U at the sorted positions tau, then at
    L, so that W_tau = U_tau - (tau / L)(U_L - total) has the law of the
    walk given its sum (the discrete Brownian bridge); and one normal per
    row for the span mean given those pinned points.  Between pinned points
    (a, W_a) and (b, W_b), n = b - a steps, the walk is again a bridge, and
    its sum over windows a+1..b is Gaussian with mean
    n W_a + (W_b - W_a)(n + 1) / 2 and variance scale**2 n (n**2 - 1) / 12.
    Returns the span-mean offsets, and the offsets and row indices of the
    both-send windows, ordered by row and position.
    """
    n_rows = len(length)
    rows = np.repeat(np.arange(n_rows), n_both)
    one = n_both == 1
    pos = np.empty(rows.size, dtype=np.int64)
    pos[one[rows]] = rng.integers(0, length[one])
    many = np.flatnonzero(n_both > 1)
    if many.size:
        cols = np.arange(_SPAN)
        order = np.argsort(
            np.where(cols < length[many, None], rng.random((many.size, _SPAN)), 2.0), axis=1
        )
        first_k = cols < n_both[many, None]
        picked = np.zeros(order.shape, dtype=bool)
        picked[np.nonzero(first_k)[0], order[first_k]] = True
        pos[~one[rows]] = np.nonzero(picked)[1]

    tau = pos + 1.0
    first = np.cumsum(n_both) - n_both
    has = n_both > 0
    last = first[has] + n_both[has] - 1
    prev = np.empty_like(tau)
    prev[1:] = tau[:-1]
    prev[first[has]] = 0.0
    gap = tau - prev
    free = np.concatenate(([0.0], np.cumsum(scale * np.sqrt(gap) * rng.standard_normal(tau.size))))
    tail = length.astype(float)
    tail[has] -= tau[last]
    free_end = free[first + n_both] - free[first] + scale * np.sqrt(tail) * rng.standard_normal(n_rows)
    walk = free[1:] - free[first][rows] - tau / length[rows] * (free_end - total)[rows]

    # The segments' mean sums add up to the trapezoid rule over the pinned points.
    nxt = np.empty_like(tau)
    nxt[:-1] = tau[1:]
    nxt[last] = length[has]
    span_sum = np.bincount(rows, walk * (nxt - prev) / 2, n_rows) + total * (tail + 1) / 2
    span_var = np.bincount(rows, gap * (gap * gap - 1) / 12, n_rows) + tail * (tail * tail - 1) / 12
    mean = (span_sum + scale * np.sqrt(span_var) * rng.standard_normal(n_rows)) / length
    return mean, walk, rows


def _sparse_binomial(rng: np.random.Generator, pool: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Independent Binomial(pool[i, c], q[c]) counts for every span i and
    cell c, drawn as one binomial total per cell spread over the cell's
    windows by a uniform draw without replacement: exact in law, and cheap
    when the totals are small."""
    n = pool.sum(axis=0)
    totals = rng.binomial(n, q)
    out = np.zeros_like(pool)
    for c in np.flatnonzero(totals):
        picks = rng.choice(n[c], totals[c], replace=False, shuffle=False)
        span = np.searchsorted(np.cumsum(pool[:, c]), picks, "right")
        out[:, c] = np.bincount(span, minlength=len(pool))
    return out


def _phase_free_clicks(rng: np.random.Generator, pool: np.ndarray, q0: np.ndarray, q1: np.ndarray):
    """Effective clicks on channel 0 and on channel 1 among ``pool`` windows
    per (span, cell), with per-cell probabilities ``q0`` and ``q1``: channel
    0 first, then channel 1 among the windows without a channel-0 click."""
    ch0 = _sparse_binomial(rng, pool, q0)
    # q0 can only reach 1 where q1 is 0.
    q1_rest = np.minimum(1.0, np.divide(q1, 1.0 - q0, out=np.zeros_like(q1), where=q1 > 0))
    return ch0, _sparse_binomial(rng, pool - ch0, q1_rest)


def _chunk_tallies(args):
    """Simulate one chunk span by span.

    Returns the chunk's sent windows per state, its effective windows, and
    per threshold the kept spans' counts shaped (state, subset, cell) with
    subset (test, key) and cell (windows, effective on ch0, on ch1).
    """
    params, model, seed, chunk_index, m, phi_offset, thresholds, mean_ref_counts, phase_free = args
    rng = _chunk_rng(seed, chunk_index + 1)
    length = _span_lengths(m)
    n_spans = len(length)
    scale = model.drift_rad_per_window
    eps = params.epsilon

    total = _span_drift_sums(rng, model, length)
    n_both = rng.binomial(length, eps * eps)
    mean = np.empty(n_spans)
    quiet = n_both == 0
    mean[quiet] = _span_mean_given_sum(rng, total[quiet], length[quiet], scale)
    busy = np.flatnonzero(~quiet)
    mean[busy], both_offset, rows = _bridge(rng, total[busy], length[busy], n_both[busy], scale)
    both_span = busy[rows]
    start = phi_offset + np.concatenate(([0.0], np.cumsum(total[:-1])))

    lam = 0.5 * mean_ref_counts * phasetrack.slot_probabilities(start + mean)
    est = phasetrack.estimate_phase_batch(rng.poisson(lam))
    minor_est = minor_angle(est)

    counts = np.empty((n_spans, 4, 2, 3), dtype=np.int64)
    is_key = rng.random(both_span.size) >= params.p_t
    p_left, p_right = click_probabilities(params, model, True, True, start[both_span] + both_offset)
    left = rng.random(both_span.size) < p_left
    right = rng.random(both_span.size) < p_right
    cell = (both_span * 2 + is_key) * 3
    eff = left != right
    counts[:, 3] = np.bincount(
        np.concatenate((cell, cell[eff] + 1 + right[eff])), minlength=n_spans * 6
    ).reshape(n_spans, 2, 3)

    rest = length - n_both
    n01 = rng.binomial(rest, eps / (1.0 + eps))
    n10 = rng.binomial(rest - n01, eps)
    sent = np.stack((rest - n01 - n10, n01, n10), axis=1)
    test = rng.binomial(sent, params.p_t)
    pool = np.stack((test, sent - test), axis=2)
    q0, q1 = np.repeat(phase_free, 2, axis=0).T
    ch0, ch1 = _phase_free_clicks(rng, pool.reshape(n_spans, 6), q0, q1)
    counts[:, :3] = np.stack((pool, ch0.reshape(pool.shape), ch1.reshape(pool.shape)), axis=3)

    # Float products are exact here (sums far below 2**53) and much faster
    # than integer matrix products.
    kept = (minor_est < thresholds[:, None]).astype(float)
    per_thr = (kept @ counts.reshape(n_spans, -1)).astype(np.int64)
    return (
        np.append(sent.sum(axis=0), n_both.sum()),
        int(eff.sum() + ch0.sum() + ch1.sum()),
        per_thr.reshape(len(thresholds), 4, 2, 3),
    )


def _run_chunks(tasks, workers: int):
    """Chunk results in chunk order.

    Uses at most one worker per chunk, and none beside this process for a
    single chunk; the worker pool is shut down when the iteration ends or a
    chunk raises.
    """
    if workers > 1:
        tasks = list(tasks)
        workers = min(workers, len(tasks))
    if workers == 1:
        yield from map(_chunk_tallies, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_chunk_tallies, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


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
    into fixed-size chunks with independent seeded streams, a sequential
    prefix pass recovers every chunk's starting phase, and partial tallies
    are merged in chunk order.

    More workers are not always faster: starting the worker pool costs more
    than a few chunks' work, so ``workers=2`` ran a session of 8 chunks
    (1,474,560 windows) at 0.65-0.73 times the speed of ``workers=1`` on a
    2-core host.
    """
    n_windows = int(n_windows)
    if n_windows < 1:
        raise ValueError("n_windows must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    thr_list = _threshold_list(params, thresholds)
    thr_arr = np.array(thr_list)

    phi0 = _initial_phase(params, seed)
    offsets = _chunk_offsets(model, n_windows, seed, phi0)
    phase_free = _effective_probs(params, model)[0]
    tasks = (
        (params, model, seed, k, m, offsets[k], thr_arr, mean_ref_counts, phase_free)
        for k, m in enumerate(_chunk_sizes(n_windows))
    )

    sent_total = np.zeros(4, dtype=np.int64)
    eff_total = 0
    acc = np.zeros((len(thr_list), 4, 2, 3), dtype=np.int64)
    for chunk_sent, chunk_eff, per_thr in _run_chunks(tasks, workers):
        sent_total += chunk_sent
        eff_total += chunk_eff
        acc += per_thr

    by_threshold = {}
    for thr, cells in zip(thr_list, acc):
        selected = cells[:, :, 0].sum(axis=1)
        t = SessionTallies(
            n_windows, thr, np.column_stack((sent_total, selected, cells.reshape(4, 6))), eff_total
        )
        t.check_conservation()
        by_threshold[thr] = t
    return SimulationResult(
        params=params,
        model=model,
        n_windows=n_windows,
        seed=seed,
        tallies=by_threshold[params.delta_threshold],
        by_threshold=by_threshold,
    )

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
