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
4. for the other spans, the whole walk given S (a discrete Brownian
   bridge: increments sigma (Z_j - mean Z) + S / L, then uniforms that
   place the both-send windows at random distinct positions);
5. the four reference slot counts per span (Poisson at the span-mean
   phase), from which the span's phase is estimated;
6. per both-send window a test-set uniform, then left and right click
   uniforms against the click probabilities at its phase;
7. per span, chained binomials for the other windows: 01 and 10 counts,
   the test split per state, then effective clicks on channel 0 and on
   channel 1 per (state, subset).

A span is kept at threshold delta when the minor angle of its estimated
phase is below delta.  Because the drift sums come first, a cheap
sequential prefix pass recovers each chunk's starting phase, and the
chunks can then be simulated in any number of worker processes with
bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import phasetrack
from .phasecore import interfere, minor_angle

STATE_LABELS = ("00", "01", "10", "11")
"""Joint send states, A's digit first, 1 = sent a pulse."""

CHUNK_SPANS = 1024
"""Reference spans per simulation chunk."""


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
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be non-negative, got {self.mu!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        if not 0.0 < self.delta_threshold <= math.pi:
            raise ValueError(
                f"delta_threshold must lie in (0, pi], got {self.delta_threshold!r}"
            )
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


@dataclass
class SessionTallies:
    """Aggregate counts of a session, shaped like the raw data files.

    ``sent`` counts every window by joint state; ``sent_selected`` restricts
    to windows passing the phase threshold; ``sent_test`` / ``sent_key``
    split those into the announced test subset and the key subset.
    ``detected_test`` / ``detected_key`` count effective windows by state and
    physical output channel (0 or 1).  Values are ints for Monte Carlo runs
    and floats for expected-value calculations.
    """

    n_windows: float
    threshold: float
    sent: dict = field(default_factory=dict)
    sent_selected: dict = field(default_factory=dict)
    sent_test: dict = field(default_factory=dict)
    sent_key: dict = field(default_factory=dict)
    detected_test: dict = field(default_factory=dict)
    detected_key: dict = field(default_factory=dict)
    effective_windows: float = 0

    def check_conservation(self) -> None:
        """Raise ValueError if the tally structure is internally inconsistent."""
        if sum(self.sent.values()) != self.n_windows:
            raise ValueError("sent counts do not sum to the number of windows")
        for s in STATE_LABELS:
            if self.sent_selected.get(s, 0) > self.sent.get(s, 0):
                raise ValueError(f"selected count exceeds sent count for state {s}")
            split = self.sent_test.get(s, 0) + self.sent_key.get(s, 0)
            if split != self.sent_selected.get(s, 0):
                raise ValueError(f"test/key split does not partition state {s}")
        for (s, _ch), n in list(self.detected_test.items()) + list(self.detected_key.items()):
            if n < 0 or s not in STATE_LABELS:
                raise ValueError("malformed detection cell")

    def detected_total(self) -> float:
        return sum(self.detected_test.values()) + sum(self.detected_key.values())


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


def arm_transmittance(model: ChannelModel, arm: str) -> float:
    """Power transmittance of one arm from source to beam splitter.

    ``arm`` is "a" or "b" (case-insensitive).  Combines fibre attenuation
    with the lumped component loss of that arm; detector efficiency is not
    included.
    """
    key = arm.lower() if isinstance(arm, str) else arm
    if key == "a":
        loss_db = model.fiber_km_a * model.atten_db_per_km + model.comp_loss_db_a
    elif key == "b":
        loss_db = model.fiber_km_b * model.atten_db_per_km + model.comp_loss_db_b
    else:
        raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")
    return 10.0 ** (-loss_db / 10.0)


def click_probabilities(
    params: ProtocolParams,
    model: ChannelModel,
    alice_sent,
    bob_sent,
    phase_diff,
):
    """Per-window click probabilities of the two detectors.

    A sending party contributes ``mu * gate_fraction * arm_transmittance``
    at the beam splitter, a silent one contributes vacuum.  Threshold
    detection of the coherent output with efficiency eta and dark
    probability d clicks with probability 1 - (1 - d) * exp(-I * eta); the
    two detectors sample independently.  Returns ``(p_left, p_right)``
    where left watches the port that is bright at zero phase difference.
    Accepts scalars or broadcastable arrays.
    """
    mu_a = params.mu * model.gate_fraction * arm_transmittance(model, "a")
    mu_b = params.mu * model.gate_fraction * arm_transmittance(model, "b")
    ports = interfere(
        np.where(alice_sent, mu_a, 0.0),
        np.where(bob_sent, mu_b, 0.0),
        phase_diff,
        model.visibility,
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


def _phase_free_effective(params: ProtocolParams, model: ChannelModel) -> np.ndarray:
    """Effective-click probabilities (ch0, ch1) of states 00, 01 and 10.

    Their clicks do not depend on the phase, so it is set to zero.
    """
    alice = np.array([False, False, True])
    bob = np.array([False, True, False])
    p_left, p_right = click_probabilities(params, model, alice, bob, 0.0)
    return np.stack((p_left * (1.0 - p_right), p_right * (1.0 - p_left)), axis=1)


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
    """Walk of the spans that hold both-send windows, pinned at its drift sum.

    Each row is a span: ``scale * (Z_j - mean(Z)) + total / length`` are
    increments with the law of the Gaussian walk given its sum (the
    discrete Brownian bridge).  Returns the span-mean offsets, and the
    offsets and row indices of ``n_both`` windows per row placed at
    uniformly random distinct positions.
    """
    valid = np.arange(_SPAN) < length[:, None]
    z = np.where(valid, rng.standard_normal(valid.shape), 0.0)
    inc = scale * (z - z.sum(axis=1, keepdims=True) / length[:, None]) + (total / length)[:, None]
    walk = np.cumsum(np.where(valid, inc, 0.0), axis=1)
    mean = np.where(valid, walk, 0.0).sum(axis=1) / length
    order = np.argsort(np.where(valid, rng.random(valid.shape), 2.0), axis=1)
    picked = order[np.arange(_SPAN) < n_both[:, None]]
    rows = np.repeat(np.arange(len(length)), n_both)
    return mean, walk[rows, picked], rows


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
    q0, q1 = phase_free.T
    ch0 = rng.binomial(pool, q0[:, None])
    # Channel 1 among windows without an effective channel-0 click; q0 can
    # only reach 1 where q1 is 0.
    q1_rest = np.minimum(1.0, np.divide(q1, 1.0 - q0, out=np.zeros(3), where=q1 > 0))
    ch1 = rng.binomial(pool - ch0, q1_rest[:, None])
    counts[:, :3] = np.stack((pool, ch0, ch1), axis=3)

    # Float products are exact here (sums far below 2**53) and much faster
    # than integer matrix products.
    kept = (minor_est < thresholds[:, None]).astype(float)
    per_thr = (kept @ counts.reshape(n_spans, -1)).astype(np.int64)
    return (
        counts[..., 0].sum(axis=(0, 2)),
        int(counts[..., 1:].sum()),
        per_thr.reshape(len(thresholds), 4, 2, 3),
    )


def _run_chunks(tasks, workers: int):
    """Chunk results in chunk order; the worker pool is shut down when the
    iteration ends or a chunk raises."""
    if workers == 1:
        yield from map(_chunk_tallies, tasks)
        return
    tasks = list(tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_chunk_tallies, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


def _empty_tallies(n_windows: float, threshold: float) -> SessionTallies:
    return SessionTallies(
        n_windows=n_windows,
        threshold=threshold,
        sent={s: 0 for s in STATE_LABELS},
        sent_selected={s: 0 for s in STATE_LABELS},
        sent_test={s: 0 for s in STATE_LABELS},
        sent_key={s: 0 for s in STATE_LABELS},
        detected_test={(s, ch): 0 for s in STATE_LABELS for ch in (0, 1)},
        detected_key={(s, ch): 0 for s in STATE_LABELS for ch in (0, 1)},
    )


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
    phase_free = _phase_free_effective(params, model)
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
    for j, thr in enumerate(thr_list):
        t = _empty_tallies(n_windows, thr)
        for i, s in enumerate(STATE_LABELS):
            t.sent[s] = int(sent_total[i])
            t.sent_test[s] = int(acc[j, i, 0, 0])
            t.sent_key[s] = int(acc[j, i, 1, 0])
            t.sent_selected[s] = t.sent_test[s] + t.sent_key[s]
            for ch in (0, 1):
                t.detected_test[(s, ch)] = int(acc[j, i, 0, 1 + ch])
                t.detected_key[(s, ch)] = int(acc[j, i, 1, 1 + ch])
        t.effective_windows = eff_total
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


def _effective_probs_both_send(
    params: ProtocolParams, model: ChannelModel, lo: float, hi: float
):
    """Mean effective-click probabilities per channel for both-send windows,
    averaged over a phase difference uniform on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    delta = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    weight = w / w.sum()
    p_left, p_right = click_probabilities(params, model, True, True, delta)
    p_ch0 = float(np.sum(weight * p_left * (1.0 - p_right)))
    p_ch1 = float(np.sum(weight * p_right * (1.0 - p_left)))
    return p_ch0, p_ch1


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

    Returns ``{threshold: SessionTallies}`` with float-valued cells,
    covering ``params.delta_threshold`` and any extra ``thresholds``.
    """
    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    thr_list = _threshold_list(params, thresholds)

    eps = params.epsilon
    priors = {
        "00": (1.0 - eps) ** 2,
        "01": (1.0 - eps) * eps,
        "10": eps * (1.0 - eps),
        "11": eps * eps,
    }
    single = dict(zip(("00", "01", "10"), _phase_free_effective(params, model).tolist()))
    p11_full = _effective_probs_both_send(params, model, 0.0, math.pi)

    out = {}
    for thr in thr_list:
        keep = thr / math.pi
        p_eff = dict(single)
        p_eff["11"] = _effective_probs_both_send(params, model, 0.0, thr)
        t = _empty_tallies(float(n_windows), thr)
        for s in STATE_LABELS:
            base = n_windows * priors[s]
            t.sent[s] = base
            t.sent_selected[s] = base * keep
            t.sent_test[s] = base * keep * params.p_t
            t.sent_key[s] = base * keep * (1.0 - params.p_t)
            for ch in (0, 1):
                t.detected_test[(s, ch)] = t.sent_test[s] * p_eff[s][ch]
                t.detected_key[(s, ch)] = t.sent_key[s] * p_eff[s][ch]
        t.effective_windows = n_windows * (
            sum(priors[s] * (single[s][0] + single[s][1]) for s in ("00", "01", "10"))
            + priors["11"] * (p11_full[0] + p11_full[1])
        )
        out[thr] = t
    return out
