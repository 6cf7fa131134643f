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
its rows per threshold; a session and :func:`expected_tallies` add rows
that keep every window (threshold pi for the model), whose detections are
the effective windows.  The raw files of :mod:`scfqkd.dataio` name its
entries, and the estimator reads its test and key subsets as the (state,
cell) arrays ``cells[:, 0]`` and ``cells[:, 1]``.

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
3. the four reference slot counts n1..n4 per span, Poisson at the
   span-mean phase: one uniform per count, per span and slot in order,
   inverted exactly through a cached table of Poisson CDFs
   (:func:`_reference_counts`); their differences D1 = n1 - n3 and
   D2 = n4 - n2 give the span's keep level;
4. per both-send window a test-set uniform, then left and right click
   uniforms against the click probabilities at its phase;
5. per keep-level bin, one multinomial of its spans' other windows over 18
   labels, (00, 01, 10) x (test, key) x (no effective click, effective on
   ch0, effective on ch1).

A span's keep level is the minor angle of its estimated phase, and a span
is kept at threshold delta when its level is below delta.  The levels fall
into fixed bins with edges at 1, 2, ..., 180 degrees.  The estimate,
:func:`scfqkd.phasetrack.estimate_phase_batch`, is arctan2(D2, D1) of
exact float differences, so a span's bin depends only on (D1, D2): a chunk
reads it from a table over [-80, 80]**2 built with that same expression.
Only a chunk with a difference off the table (probability below 3e-17 at
45 mean reference counts) or a threshold between edges computes the float
levels.  Each 00/01/10 window takes its state, subset and click outcome
independently of the phase, and a sum of multinomials with one probability
vector is multinomial, so step 5 is exact.  A threshold on an edge keeps
whole bins, one row of a cumulative sum over bins.  A threshold between
edges also keeps the spans of its own bin whose level lies below it: their
00/01/10 windows are a prefix of one uniformly random order of the bin's
windows, labelled as in step 5 and handed to the bin's spans in level
order, which is the exact law given the bin's counts.  That order comes
from a stream keyed by (seed, chunk, bin), and every threshold in the bin
reads it, so a threshold's tallies do not depend on which others are
requested.  Chunk streams are keyed by (seed, chunk), and a session adds up
its chunks' int64 counts, whose sum does not depend on the order, so the
chunks can run in any number of worker processes with bit-identical
results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import phasetrack
from .phasecore import check, check_fields, interfere, minor_angle

STATE_LABELS = ("00", "01", "10", "11")
"""Joint send states, A's digit first, 1 = sent a pulse."""

CHUNK_SPANS = 4096
"""Reference spans per simulation chunk."""


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level configuration shared by simulation and analysis.

    ``mu`` is the signal mean photon number at the source, ``epsilon`` the
    per-window send probability of each party, ``delta_threshold`` the
    post-selection bound on the minor angle of the estimated phase (radians),
    ``f_ec`` the error-correction inefficiency and ``p_t`` the fraction of
    kept windows sacrificed as the test set.  A batch of the expected-value
    model is the broadcast of the fields of a ``ProtocolParams`` and a
    :class:`ChannelModel`: any field may hold an array of shape S + (1,),
    and the configurations are the cells of S in C order.
    """

    mu: float = 0.002
    epsilon: float = 0.021
    delta_threshold: float = math.radians(30.0)
    f_ec: float = 1.1
    p_t: float = 0.1

    __post_init__ = check_fields


@dataclass(frozen=True)
class ChannelModel:
    """Physical model of the two arms, the interference and the detectors.

    Fibre attenuation and lumped component losses are in dB; detector
    efficiencies fold in everything after the beam splitter.  ``dark_prob``
    is the per-window dark-click probability of each detector.
    ``drift_rad_per_window`` is the standard deviation of the Gaussian phase
    increment per signal window.  In a batch of the expected-value model,
    any field may hold an array of shape S + (1,), which broadcasts with
    the other fields (see :class:`ProtocolParams`).
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

    __post_init__ = check_fields


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
        """Raise ValueError unless the sent counts sum to ``n_windows``, the
        counts keep the rules of :func:`broken_tally_rule` with the test/key
        split exact (a raw tally file's may miss by ``dataio.SPLIT_TOLERANCE``,
        as recorded data are rounded), and no count is negative."""
        flat = self.counts.ravel().tolist()
        if sum(flat[::8]) != self.n_windows:
            raise ValueError("sent counts do not sum to the number of windows")
        if broken := broken_tally_rule(flat):
            raise ValueError(broken[1])
        if (self.counts < 0).any():
            raise ValueError("negative count in the tallies")


def broken_tally_rule(flat: Sequence, split_tolerance: float = 0.0):
    """The first rule that ``flat``, a ``counts.ravel()`` of Python numbers
    with None for an absent cell, breaks, as (cell index, message), or None.
    Per state: selected <= sent; test + key = selected, exactly or within
    max(``split_tolerance`` * selected, 1); detections <= windows, test
    subset first.  A rule on an absent windows, sent or selected cell holds,
    an absent detection channel counts as 0, and a NaN breaks any rule it
    enters."""
    for i, s in enumerate(STATE_LABELS):
        n_sent, n_sel, n_test, t0, t1, n_key, k0, k1 = flat[8 * i:8 * i + 8]
        if n_sel is not None and n_sent is not None and not n_sel <= n_sent:
            return 8 * i + 1, f"selected count exceeds sent count for state {s} ({n_sel} > {n_sent})"
        if n_sel is not None and n_test is not None and n_key is not None:
            split, allowance = n_test + n_key, max(split_tolerance * n_sel, 1.0) if split_tolerance else 0
            if not abs(split - n_sel) <= allowance:
                return 8 * i + 5, f"test/key split does not partition state {s} ({n_test} + {n_key} != {n_sel})"
        for j, subset, n, c0, c1 in ((2, "test", n_test, t0, t1), (5, "key", n_key, k0, k1)):
            det = (0 if c0 is None else c0) + (0 if c1 is None else c1)
            if n is not None and not det <= n:
                return 8 * i + j + 1, f"{subset} detections {det} exceed the {n} {subset} windows of state {s}"


@dataclass
class SimulationResult:
    """Outcome of :func:`simulate_session`.

    ``tallies`` is cut at the configured threshold; ``by_threshold`` holds
    one :class:`SessionTallies` per requested threshold (always including
    the primary one) so a single run can be re-analysed at several
    post-selection widths.  The session's inputs are not echoed here;
    ``tallies.n_windows`` holds its window count.
    """

    tallies: SessionTallies
    by_threshold: dict


def arm_transmittance(model: ChannelModel, arm: str):
    """Power transmittance of one arm from source to beam splitter.

    ``arm`` is "a" or "b".  Combines fibre attenuation with the lumped
    component loss of that arm; detector efficiency is not included.  Works
    elementwise on a batch, whose fields are arrays.
    """
    if arm == "a":
        length, comp = model.fiber_km_a, model.comp_loss_db_a
    elif arm == "b":
        length, comp = model.fiber_km_b, model.comp_loss_db_b
    else:
        raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")
    exponent = -(length * model.atten_db_per_km + comp) / 10.0
    if isinstance(exponent, np.ndarray):
        # numpy's vectorised power can differ from Python's in the last bit,
        # so a batch row takes Python's pow, as a single configuration does.
        return (10.0 ** exponent.astype(object)).astype(float)
    return 10.0 ** exponent


def click_probabilities(params: ProtocolParams, model: ChannelModel, alice_sent, bob_sent, phase_diff):
    """Per-window click probabilities of the two detectors.

    A sending party contributes ``mu * arm_transmittance`` at the beam
    splitter, a silent one contributes vacuum.  Threshold detection of the
    coherent output with efficiency eta and dark probability d clicks with
    probability 1 - (1 - d) * exp(-I * eta); the two detectors sample
    independently.  Returns ``(p_left, p_right)`` where left watches the
    port that is bright at zero phase difference.
    Accepts scalars or broadcastable arrays, and a batch: ``params`` and
    ``model`` fields of shape S + (1,), such as ``mu`` or ``visibility``,
    broadcast with each other and against the windows on the last axis;
    of ``params`` only ``mu`` is read.
    """
    ports = interfere(
        np.where(alice_sent, params.mu * arm_transmittance(model, "a"), 0.0),
        np.where(bob_sent, params.mu * arm_transmittance(model, "b"), 0.0),
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
_KEEP_EDGES = np.radians(np.arange(1, 181))
"""Edges of the keep-level bins, 1 to 180 degrees, each equal bit for bit to
``math.radians`` of its degree."""
_TABLE_RADIUS = 80
"""Largest |D1| and |D2| in the keep-level table; at 45 mean reference
counts a slot's count passes 80 with probability at most 1.4e-21."""


@functools.cache
def _keep_table() -> np.ndarray:
    """Keep-level bin of every (D1, D2) in [-80, 80]**2, indexed from
    (-80, -80), built on first use with the chunk's fallback expression on
    floats of the same integers, so bit for bit the same.  int16, because a
    bin times 6 must not wrap."""
    d = np.arange(-_TABLE_RADIUS, _TABLE_RADIUS + 1, dtype=float)
    level = minor_angle(np.arctan2(d[None, :], d[:, None]))
    return np.searchsorted(_KEEP_EDGES, level, "right").astype(np.int16)


def _table_bins(counts: np.ndarray):
    """Keep-level bins of spans read from :func:`_keep_table` by their
    reference counts' D1 = n1 - n3 and D2 = n4 - n2, or None when a
    difference lies off the table."""
    d1 = counts[:, 0] - counts[:, 2]
    d2 = counts[:, 3] - counts[:, 1]
    if max(np.abs(d1).max(), np.abs(d2).max()) > _TABLE_RADIUS:
        return None
    # take on the flat index costs less than indexing by the pair.
    return _keep_table().take((d1 + _TABLE_RADIUS) * (2 * _TABLE_RADIUS + 1) + d2 + _TABLE_RADIUS)


_COUNT_ROWS = 1024
"""Intervals of the grid of means in :func:`_count_table`; at 45 mean
reference counts about 2 % of the draws fall between two rows' counts, at
2000 most do."""
_GUIDE_CELLS = 256
"""Cells of [0, 1) per row of the guide of :func:`_count_table`."""
_WALK = 8
"""Columns that a walk along a table row reads at a time."""


def _tail_end(lam: float) -> int:
    """The smallest k with P(Poisson(lam) > k) < 2**-60, from the bound
    P(X > k) <= P(X = k + 1) / (1 - lam / (k + 2)) for k + 2 > lam."""
    if lam == 0:
        return 0
    k = int(lam)
    log_p = k * math.log(lam) - lam - math.lgamma(k + 1)
    while True:
        log_p += math.log(lam / (k + 1))  # now log P(X = k + 1)
        if log_p - math.log1p(-lam / (k + 2)) < -60 * math.log(2):
            return k
        k += 1


@functools.lru_cache(maxsize=4)
def _count_table(mean_ref_counts: float) -> tuple:
    """Poisson CDF table that :func:`_reference_counts` inverts, built on
    first use for each mean total of the four reference slots; the tables
    of the last four means are kept, read-only.

    Row j holds F(k; j h) for the grid of means j h, j = 0..1025, whose
    1024th row lies at max(``mean_ref_counts`` / 2, 1), the largest slot
    mean or above.  A row is ``terms`` zeros (F below k = 0, which the
    sum between rows reads), F(k) for k = 0 up to the first k whose tail
    at the top of the grid is below 2**-60, where F is 1 to double
    precision and is set to 1, and then ``_WALK`` ones.  The rows are
    built in log space.  The guide holds, per row and cell c of
    ``_GUIDE_CELLS``, the column of the smallest k with F(k) > c / 256,
    where the inversion of any uniform of that cell starts.  The table
    grows with the mean: about 0.8 MB at 45 and 11 MB at 2000.

    Returns (``mean_ref_counts``, h, ``terms``, the rows, the guide),
    ``terms`` being the terms of the sum between rows, which are as many
    as the tail of a Poisson law of mean h needs.
    """
    top = max(0.5 * mean_ref_counts, 1.0)
    step = top / _COUNT_ROWS
    terms, cols = _tail_end(step), _tail_end(top) + 1
    lam = step * np.arange(1, _COUNT_ROWS + 2)
    cdf = np.zeros((_COUNT_ROWS + 2, terms + cols + _WALK))
    cdf[0, terms:] = cdf[:, terms + cols - 1:] = 1.0
    # Rows 1.. of the body go from log P(k; lam) to F(k; lam) in place.
    body = cdf[1:, terms:terms + cols - 1]
    np.multiply.outer(np.log(lam), np.arange(cols - 1.0), out=body)
    body -= lam[:, None]
    body -= [math.lgamma(k + 1.0) for k in range(cols - 1)]
    np.exp(body, out=body)
    np.cumsum(body, axis=1, out=body)
    np.minimum(body, 1.0, out=body)
    # F(k) <= c / 256 exactly when ceil(256 F(k)) <= c.  Writing k + 1 at that
    # cell for k = 0, 1, ... and taking the running maximum over the cells
    # leaves at cell c the number of k with F(k) <= c / 256.
    guide = np.zeros((_COUNT_ROWS + 2, _GUIDE_CELLS + 1), np.min_scalar_type(cdf.shape[1]))
    rows = guide.shape[1] * np.arange(_COUNT_ROWS + 2)
    for k in range(cols):
        guide.ravel()[rows + np.ceil(cdf[:, terms + k] * _GUIDE_CELLS).astype(np.intp)] = k + 1
    np.maximum.accumulate(guide, axis=1, out=guide)
    guide += terms
    cdf.flags.writeable = guide.flags.writeable = False
    return mean_ref_counts, step, terms, cdf, guide


def _reference_counts(rng: np.random.Generator, phase: np.ndarray, table: tuple) -> np.ndarray:
    """The four reference slot counts of spans at mean phases ``phase``,
    Poisson of mean ``mean_ref_counts`` / 2 times
    :func:`phasetrack.slot_probabilities`, by exact inversion: per span and
    slot in order one ``rng.random`` uniform u, and the count is the smallest
    k with u < F(k; lam), or the table's last k, beyond which the tail is
    below 2**-60.

    For lam in [j h, (j + 1) h] of :func:`_count_table`, the walk from the
    guide along row j gives row j's count.  F falls as the mean grows, so
    the count at lam lies between the counts of rows j and j + 1, and it is
    row j's whenever row j + 1 agrees, F(k; (j + 1) h) > u.  Otherwise it
    walks on with F(k; j h + d) = sum over i of Poisson(i; d) F(k - i; j h),
    whose terms past ``terms`` weigh less than 2**-60.
    """
    mean_ref_counts, step, terms, cdf, guide = table
    lam = (0.5 * mean_ref_counts * phasetrack.slot_probabilities(phase)).ravel()
    u = rng.random(lam.size)
    row = (lam * (1.0 / step)).astype(np.intp)
    k = (u * _GUIDE_CELLS).astype(np.intp)
    k += row * (_GUIDE_CELLS + 1)
    # From here row is the flat index where a draw's row starts and k the
    # flat index of its column: take reads the table as one array.
    width = cdf.shape[1]
    row *= width
    np.add(row, guide.take(k), out=k)
    walk = np.flatnonzero(cdf.take(k) <= u)
    while walk.size:
        steps = (cdf.take(k[walk, None] + np.arange(_WALK)) <= u[walk, None]).sum(axis=1)
        k[walk] += steps
        walk = walk[steps == _WALK]
    off = np.flatnonzero(cdf[1:].take(k) <= u)
    if off.size:
        d = lam[off] - step * (row[off] // width)
        poisson = np.empty((off.size, terms + 1))
        poisson[:, 0] = np.exp(-d)
        poisson[:, 1:] = d[:, None] / np.arange(1, terms + 1)
        poisson = poisson.cumprod(axis=1)
        last = row[off] + width - _WALK - 1
        while off.size:
            f = (poisson * cdf.take(k[off, None] - np.arange(terms + 1))).sum(axis=1)
            up = (f <= u[off]) & (k[off] < last)
            off, poisson, last = off[up], poisson[up], last[up]
            k[off] += 1
    k -= row
    k -= terms
    return k.reshape(-1, 4)


def _threshold_list(params: ProtocolParams, thresholds: Sequence[float] | None) -> list:
    """The primary threshold followed by each distinct extra one (radians)."""
    extra = np.asarray([] if thresholds is None else thresholds, dtype=float)
    check(thresholds=extra)
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


def _bin_prefix(rng: np.random.Generator, labels: np.ndarray, k: int) -> np.ndarray:
    """Label counts of the first ``k`` windows of a uniformly random order
    of the windows that ``labels`` counts per label."""
    order = rng.permutation(np.repeat(np.arange(labels.size), labels.ravel()))
    return np.bincount(order[:k], minlength=labels.size).reshape(labels.shape)


def _chunk_tallies(session: tuple, k: int):
    """Simulate chunk ``k`` of a ``session`` of (params, model, seed,
    n_windows, every chunk's start phase, every chunk's drift total,
    thresholds, the :func:`_count_table` of the mean reference counts, the
    00/01/10 label probabilities),
    in the module docstring's draw order, with its counts gathered per
    keep-level bin.  The spans' bins come from :func:`_table_bins`, or,
    off the table, from ``phasetrack.estimate_phase_batch``, which also
    gives the float levels that a threshold between edges needs.

    Returns the chunk's :attr:`SessionTallies.counts` rows, int64 of shape
    (thresholds + 1, state, 8): one set per threshold, then one that keeps
    every window, whose detections are the chunk's effective windows, as
    in the expected-value model's rows at threshold pi.
    """
    params, model, seed, n_windows, starts, totals, thresholds, counts_table, label_p = session
    m = min(CHUNK_WINDOWS, n_windows - k * CHUNK_WINDOWS)
    rng = _chunk_rng(seed, k + 1)
    # Only the session's last span can be short.
    length = np.minimum(_SPAN, m - np.arange(0, m, _SPAN))
    n_spans = len(length)

    both, both_span = _spread(rng, length, rng.binomial(m, params.epsilon**2))
    mean, both_offset = _bridge(rng, totals[k], length, both, both_span, model.drift_rad_per_window)

    ref = _reference_counts(rng, starts[k] + mean, counts_table)
    span_bin = _table_bins(ref)
    level = None
    if span_bin is None:
        level = minor_angle(phasetrack.estimate_phase_batch(ref))
        span_bin = np.searchsorted(_KEEP_EDGES, level, "right")
    n_bins = _KEEP_EDGES.size + 1

    # Counts per bin and (state, subset, label), a window's label being no
    # effective click, effective on ch0 or effective on ch1.
    counts = np.empty((n_bins, 4, 2, 3), dtype=np.int64)
    is_key = rng.random(both.size) >= params.p_t
    p_left, p_right = click_probabilities(params, model, True, True, starts[k] + both_offset)
    left = rng.random(both.size) < p_left
    right = rng.random(both.size) < p_right
    both_label = 3 * is_key + (left != right) * (1 + right)
    counts[:, 3] = np.bincount(
        span_bin[both_span] * 6 + both_label, minlength=n_bins * 6
    ).reshape(n_bins, 2, 3)

    other = length - np.bincount(both_span, minlength=n_spans)
    pool = np.bincount(span_bin, other, n_bins).astype(np.int64)
    counts[:, :3] = rng.multinomial(pool, label_p).reshape(n_bins, 3, 2, 3)

    # Row j holds the counts of the bins below bin j.
    below = np.concatenate((np.zeros((1, 4, 2, 3), np.int64), counts.cumsum(axis=0)))
    at = np.searchsorted(_KEEP_EDGES, thresholds, "right").tolist()
    per_thr = below[[*at, -1]]
    for t, (thr, b) in enumerate(zip(thresholds.tolist(), at)):
        if b and _KEEP_EDGES[b - 1] == thr:
            continue
        # Off the grid: the spans of bin b below thr, the first in level order.
        if level is None:
            level = minor_angle(phasetrack.estimate_phase_batch(ref))
        kept = (span_bin == b) & (level < thr)
        if kept.any():
            split = _chunk_rng(seed, k + 1, b)
            per_thr[t, :3] += _bin_prefix(split, counts[b, :3], other[kept].sum())
            per_thr[t, 3] += np.bincount(both_label[kept[both_span]], minlength=6).reshape(2, 3)
    cells = np.concatenate((per_thr.sum(axis=3, keepdims=True), per_thr[..., 1:]), axis=3)
    selected = cells[..., 0].sum(axis=2)
    return np.dstack((np.broadcast_to(selected[-1], selected.shape), selected, cells.reshape(-1, 4, 6)))


MIN_CHUNKS_PER_PROCESS = 4
"""Chunks per process below which a session starts fewer helpers: on a
shared 2-core host, with a helper forced to start, 2 workers took 1.12
times the wall time of 1 at 5 chunks (median of 120 interleaved pairs,
quartiles 1.07-1.21), 1.11 at 6 (1.06-1.17), 0.97 at 7 (0.93-1.05), 0.98
at 8 (0.94-1.04) and 0.88 at 9 (0.85-0.97)."""


def _sum_chunks(session: tuple, chunks):
    """The sum of the :func:`_chunk_tallies` rows of the chunk indices
    ``chunks``; 0 for no chunk."""
    return sum(_chunk_tallies(session, k) for k in chunks)


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
    """The sum of a session's chunk rows, added up by at most ``workers``
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
    return sum(parts)


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


def _one_configuration(params: ProtocolParams, model: ChannelModel) -> None:
    """Raise ValueError naming the first field of ``params`` or ``model``
    that holds an array: a batch where one configuration is expected."""
    for name, value in (*vars(params).items(), *vars(model).items()):
        if getattr(value, "ndim", 0):
            raise ValueError(f"{name} must be a scalar for one configuration, got shape {value.shape}")


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

    ``params`` and ``model`` describe one configuration: every field is a
    scalar (a ValueError names the first array).  ``thresholds`` optionally
    lists additional post-selection widths (radians) to tally alongside
    ``params.delta_threshold``; each threshold's tallies are the same
    whatever others are requested.  The result is bit-identical for any
    ``workers`` value: the session is cut into chunks with independent
    seeded streams, whose int64 tallies add up in any order.  Every chunk's
    drift total and start phase, the initial phase plus the totals of the
    chunks before it, come from the session stream before any chunk runs;
    each chunk then pins its walk to its total once, at its both-send
    windows and span ends.

    ``n_windows`` is a whole number of at least 1, such as ``1e8``, and
    ``seed`` a non-negative integer.  ``workers`` caps the processes that
    compute chunks, this one included; each takes the next chunk from a
    shared counter.  At most one process runs per ``MIN_CHUNKS_PER_PROCESS``
    (4) chunks, below which a helper's start-up outweighs the work it takes
    over, so a session of fewer than 8 chunks (a chunk is 737,280 windows)
    runs in this process alone.  On a shared 2-core host,
    ``workers=2`` took 22 ms (quartiles 19-24 ms) for 10**7 windows against
    24 ms (22-27 ms) with ``workers=1``, and 0.13 s (0.13-0.14 s) for 10**8
    windows against 0.23 s (0.22-0.23 s), medians of interleaved runs.
    """
    _one_configuration(params, model)
    n_windows = window_count(n_windows)
    check(workers=workers, seed=seed, mean_ref_counts=mean_ref_counts)
    thr_list = _threshold_list(params, thresholds)
    thr_arr = np.array(thr_list)

    n_chunks = -(-n_windows // CHUNK_WINDOWS)
    sizes = np.minimum(CHUNK_WINDOWS, n_windows - CHUNK_WINDOWS * np.arange(n_chunks))
    stream = _chunk_rng(seed, 0)
    phi0 = stream.uniform(0.0, 2.0 * math.pi)
    totals = model.drift_rad_per_window * np.sqrt(sizes) * stream.standard_normal(n_chunks)
    starts = np.cumsum(np.concatenate(([phi0], totals[:-1])))
    # The 00/01/10 windows' (state, subset, label) probabilities.
    eps, p_t = params.epsilon, params.p_t
    p_left, p_right = click_probabilities(params, model, [False, False, True], [False, True, False], 0.0)
    q = np.column_stack((p_left * (1.0 - p_right), p_right * (1.0 - p_left)))
    click = np.column_stack((np.maximum(1.0 - q.sum(axis=1), 0.0), q))
    cell = np.outer(np.array([1.0 - eps, eps, eps]) / (1.0 + eps), [p_t, 1.0 - p_t])
    session = (params, model, seed, n_windows, starts, totals, thr_arr, _count_table(float(mean_ref_counts)),
               (cell[:, :, None] * click[:, None, :]).ravel())
    *rows, whole = _run_chunks(session, n_chunks, workers)
    effective = int(whole[:, [3, 4, 6, 7]].sum())
    by_threshold = {thr: SessionTallies(n_windows, thr, c, effective) for thr, c in zip(thr_list, rows)}
    for t in by_threshold.values():
        t.check_conservation()
    return SimulationResult(tallies=by_threshold[params.delta_threshold], by_threshold=by_threshold)

# ---------------------------------------------------------------------------
# Expected-value model
# ---------------------------------------------------------------------------

_QUAD_NODES = 64


@functools.cache
def _quadrature():
    """Per click window of a configuration, built on first use: its node,
    weight and whether A and B send.  Windows 00, 01 and 10 have node -1 and
    weight 1, then come the 64 Gauss-Legendre nodes on [-1, 1] of state 11
    with weights summing to 1; threshold t puts a node at phase t (node + 1) / 2."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    sends = np.ones((2, 3 + _QUAD_NODES), dtype=bool)
    sends[:, :3] = [[False, False, True], [False, True, False]]
    return np.concatenate(([-1.0] * 3, x)), np.concatenate(([1.0] * 3, w / w.sum())), *sends


def _effective_probs(params: ProtocolParams, model: ChannelModel, thresholds) -> np.ndarray:
    """Effective-click probabilities (ch0, ch1) per configuration and state.

    ``params`` and ``model`` are a batch (see :class:`ProtocolParams`), and
    ``thresholds``, a scalar or of shape T + (1,), broadcasts with them as
    one more field.  One click evaluation reads ``mu``, the thresholds and
    ``model``; the result has shape B + (4, 2), B their broadcast shape
    without the last axis.  States 00, 01 and 10 do not depend on the phase;
    state 11 is averaged over a phase uniform on [0, t] at threshold t.
    """
    node, weight, alice, bob = _quadrature()
    half = 0.5 * np.asarray(thresholds, dtype=float)
    p = np.array(click_probabilities(params, model, alice, bob, half * node + half))
    # Per channel, its detector clicks and the other one does not; nodes reduce to their mean.
    both = weight * p * (1.0 - p[::-1])
    both[..., 3] = both[..., 3:].sum(axis=-1)
    return both[..., :4].transpose(*range(1, p.ndim), 0)


def _expected_counts(params: ProtocolParams, model: ChannelModel, n_windows: float, thresholds) -> np.ndarray:
    """Expected-value counts of a batch of configurations.

    ``params``, ``model`` and ``thresholds`` describe the batch as in
    :func:`_effective_probs`; ``epsilon`` and ``p_t`` join here.  Returns
    shape C + (state, 8), C the broadcast shape of the fields read without
    the last axis: the rows of :attr:`SessionTallies.counts`, the windows
    sent and selected, then (test, key) x (windows, effective on ch0,
    effective on ch1).
    """
    check(n_windows=n_windows)
    eff = _effective_probs(params, model, thresholds)
    eps = np.atleast_1d(params.epsilon)
    sent = n_windows * np.concatenate(((1.0 - eps) ** 2, (1.0 - eps) * eps, eps * (1.0 - eps), eps**2), axis=-1)
    selected = sent * (thresholds / math.pi)
    # Each configuration's (test, key) shares of its kept windows.
    p_t = np.asarray(params.p_t)[..., None]
    pool = selected[..., None] * np.concatenate((p_t, 1.0 - p_t), axis=-1)
    detected = pool[..., None] * eff[..., None, :]
    counts = np.empty((*detected.shape[:-2], 8))
    counts[..., 0], counts[..., 1] = sent, selected
    # Writes through this view fill the (subset, cell) columns.
    cells = counts[..., 2:].reshape(*detected.shape[:-1], 3)
    cells[..., 0], cells[..., 1:] = pool, detected
    return counts


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
    It takes one configuration, whose fields are scalars (a ValueError
    names the first array); its thresholds, with pi, form the one field of
    shape (k, 1) of a batch of the model behind
    :func:`scfqkd.keyrate.analyze_expected_batch`.

    Returns ``{threshold: SessionTallies}`` with float-valued cells,
    covering ``params.delta_threshold`` and any extra ``thresholds``.  Their
    ``effective_windows`` is the sum of the detections at threshold pi,
    which keeps every window.
    """
    _one_configuration(params, model)
    thr_list = _threshold_list(params, thresholds)
    *rows, whole = _expected_counts(params, model, n_windows, np.array(thr_list + [math.pi])[:, None])
    effective = float(whole[:, [3, 4, 6, 7]].sum())
    return {thr: SessionTallies(float(n_windows), thr, c, effective) for thr, c in zip(thr_list, rows)}
