"""Key-length formula, end-to-end analysis, distance sweeps and optimisation.

The asymptotic secure key length of a session is

    n_F = n_z * (1 - H(e_ph)) - f_ec * n_v * H(e_v)

with H the binary entropy, n_z the raw key pool, e_ph the phase-flip upper
bound, and the second term the error-correction leakage of the n_v key-set
detections at measured error e_v.  The per-pulse rate divides the clamped
key length by the total number of signal windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import channelsim, estimator
from .channelsim import ChannelModel, ProtocolParams, expected_tallies
from .estimator import KeyRateReport, TallySet
from .phasecore import binary_entropy


def key_length(n_z: float, e_ph: float, n_v: float, e_v: float, f_ec: float) -> float:
    """Asymptotic key-length formula; may be negative for lossy sessions.

    Negative values mean no secure key; callers clamp at zero for rates and
    keep the raw value for diagnostics.
    """
    if n_z < 0 or n_v < 0:
        raise ValueError("pool sizes must be non-negative")
    if f_ec < 0:
        raise ValueError("f_ec must be non-negative")
    return n_z * (1.0 - binary_entropy(e_ph)) - f_ec * n_v * binary_entropy(e_v)


def key_rate(n_f: float, n_total_pulses: float) -> float:
    """Secure bits per signal window; negative key lengths count as zero."""
    if n_total_pulses <= 0:
        raise ValueError("n_total_pulses must be positive")
    return max(n_f, 0.0) / n_total_pulses


def analyze_tallies(
    u: TallySet,
    v: TallySet,
    params: ProtocolParams,
    n_total_pulses: float | None = None,
    delta_threshold: float | None = None,
) -> KeyRateReport:
    """Run the full estimation chain on a (test, key) tally pair.

    Raises :class:`~scfqkd.estimator.EstimationError` when the test set
    lacks the cells the phase-flip bound needs.  ``delta_threshold`` is
    carried into the report for bookkeeping only.
    """
    ru = estimator.counting_rates(u)
    ru.require(
        "01", "10",
        ("00", "L"), ("00", "R"), ("11", "L"), ("11", "R"), ("01", "L"), ("10", "L"),
    )
    s_z = estimator.s_tilde_z(ru.by_state["01"], ru.by_state["10"])
    if s_z <= 0:
        raise estimator.EstimationError("mismatched-send yield is zero; no key material")
    n_z = estimator.n_tilde_z(v.sent.get("01", 0), v.sent.get("10", 0), s_z)
    pf = estimator.phase_flip_upper(
        ru.by_cell[("00", "L")],
        ru.by_cell[("00", "R")],
        ru.by_cell[("11", "L")],
        ru.by_cell[("11", "R")],
        ru.by_cell[("01", "L")],
        ru.by_cell[("10", "L")],
        params.mu,
        s_z,
    )
    e_v, n_v = estimator.bit_flip_error_v(v)
    if e_v is None:
        e_v = 0.0
    # The bound can leave [0, 0.5] at low statistics; the entropy argument is
    # clamped while the report keeps the raw value.
    e_ph_eval = min(max(pf.value, 0.0), 0.5)
    n_f_raw = key_length(n_z, e_ph_eval, n_v, e_v, params.f_ec)
    n_f = max(0.0, n_f_raw)
    rate = key_rate(n_f_raw, n_total_pulses) if n_total_pulses else None
    return KeyRateReport(
        mu=params.mu,
        f_ec=params.f_ec,
        delta_threshold=delta_threshold if delta_threshold is not None else params.delta_threshold,
        n_total_pulses=n_total_pulses,
        s_u=ru.total,
        e_u=ru.error_rate,
        s_tilde_z=s_z,
        n_tilde_z=n_z,
        e_ph_upper=pf.value,
        e_ph_flagged=pf.flagged,
        x_upper_right=pf.x_upper_right,
        x_lower_left=pf.x_lower_left,
        x_lower_clamped=pf.lower_clamped,
        e_v=e_v,
        n_v=n_v,
        n_f_raw=n_f_raw,
        n_f=n_f,
        rate_per_pulse=rate,
        rates_u_by_state=dict(ru.by_state),
        rates_u_by_cell={f"{s}/{d}": r for (s, d), r in ru.by_cell.items()},
    )


def analyze_expected(
    params: ProtocolParams,
    model: ChannelModel,
    n_windows: float,
    delta_threshold: float | None = None,
) -> KeyRateReport:
    """Analyse the expected-value tallies of the given configuration."""
    thr = params.delta_threshold if delta_threshold is None else delta_threshold
    exp = expected_tallies(params, model, n_windows, thresholds=[thr])[thr]
    u, v = estimator.tallies_to_sets(exp)
    return analyze_tallies(u, v, params, n_total_pulses=n_windows, delta_threshold=thr)


def model_both_send_qber(
    params: ProtocolParams, model: ChannelModel, delta_threshold: float | None = None
) -> float:
    """Expected wrong-port fraction of kept both-send windows."""
    if delta_threshold is not None:
        params = replace(params, delta_threshold=delta_threshold)
    p_ch0, p_ch1 = channelsim._effective_probs(params, model, [params.delta_threshold])[3].tolist()
    if not p_ch0 + p_ch1 > 0.0:
        raise ValueError("model predicts no both-send detections")
    return p_ch1 / (p_ch0 + p_ch1)


def calibrate_visibility(
    params: ProtocolParams,
    model: ChannelModel,
    target_qber: float,
    tol: float = 1e-10,
) -> float:
    """Find the visibility whose expected both-send QBER matches a target.

    The expected-value model keeps estimation noise out of the phase
    distribution, so the calibrated visibility absorbs every interference
    imperfection of the measured setup, tracking error included.  The QBER
    is monotone decreasing in visibility; when the target falls outside the
    reachable range the nearer endpoint of [0, 1] is returned.
    """
    if not 0.0 < target_qber < 0.5:
        raise ValueError(f"target_qber must lie in (0, 0.5), got {target_qber!r}")
    lo, hi = 0.0, 1.0
    q_hi = model_both_send_qber(params, replace(model, visibility=hi))
    if q_hi >= target_qber:
        return hi
    q_lo = model_both_send_qber(params, replace(model, visibility=lo))
    if q_lo <= target_qber:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model_both_send_qber(params, replace(model, visibility=mid)) > target_qber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SweepPoint:
    """Key rate of the expected-value model at one total fibre length."""

    distance_km: float
    rate_per_pulse: float
    report: KeyRateReport


def sweep_distance(
    params: ProtocolParams,
    model: ChannelModel,
    distances_km: Sequence[float],
    n_windows: float = 1e12,
    target_qber: float | None = None,
) -> list:
    """Key rate versus total fibre length, symmetric arms, fixed hardware.

    Component losses, detector efficiencies and dark counts stay at the
    reference model's values; only the fibre is swept, half the distance per
    arm.  When ``target_qber`` is given, the visibility is first calibrated
    against it on the reference model and then held fixed across distances.
    """
    vis = (
        calibrate_visibility(params, model, target_qber)
        if target_qber is not None
        else model.visibility
    )
    points = []
    for d in distances_km:
        if d < 0:
            raise ValueError(f"distance must be non-negative, got {d!r}")
        m = replace(model, fiber_km_a=0.5 * d, fiber_km_b=0.5 * d, visibility=vis)
        report = analyze_expected(params, m, n_windows)
        points.append(
            SweepPoint(distance_km=float(d), rate_per_pulse=report.rate_per_pulse, report=report)
        )
    return points


@dataclass(frozen=True)
class OptimizeResult:
    """Best configuration found by :func:`optimize_params`."""

    params: ProtocolParams
    rate_per_pulse: float
    evaluations: int


def optimize_params(
    model: ChannelModel,
    base_params: ProtocolParams,
    mu_bounds: tuple = (2e-4, 2e-2),
    epsilon_bounds: tuple = (2e-3, 2e-1),
    delta_bounds: tuple = (math.radians(5.0), math.radians(90.0)),
    n_windows: float = 1e12,
    grid: int = 7,
    refine_rounds: int = 10,
) -> OptimizeResult:
    """Deterministic search for the rate-maximising (mu, epsilon, delta).

    A coarse log/linear grid seeds a coordinate-descent refinement that
    repeatedly rescans a shrinking bracket around the incumbent on each
    coordinate in a fixed order.  No randomness is involved, so equal
    inputs give equal results.
    """
    evaluations = 0

    def rate_at(mu: float, eps: float, delta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        p = replace(base_params, mu=mu, epsilon=eps, delta_threshold=delta)
        try:
            return analyze_expected(p, model, n_windows).rate_per_pulse or 0.0
        except estimator.EstimationError:
            return 0.0

    def log_grid(lo: float, hi: float, n: int):
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    def lin_grid(lo: float, hi: float, n: int):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    best = None
    for mu in log_grid(*mu_bounds, grid):
        for eps in log_grid(*epsilon_bounds, grid):
            for delta in lin_grid(*delta_bounds, grid):
                r = rate_at(mu, eps, delta)
                if best is None or r > best[0]:
                    best = (r, mu, eps, delta)
    _, mu, eps, delta = best

    spans = [
        (mu_bounds[1] - mu_bounds[0]) / grid,
        (epsilon_bounds[1] - epsilon_bounds[0]) / grid,
        (delta_bounds[1] - delta_bounds[0]) / grid,
    ]
    bounds = [mu_bounds, epsilon_bounds, delta_bounds]
    point = [mu, eps, delta]
    best_rate = best[0]
    for _ in range(refine_rounds):
        for axis in range(3):
            lo = max(bounds[axis][0], point[axis] - spans[axis])
            hi = min(bounds[axis][1], point[axis] + spans[axis])
            for x in lin_grid(lo, hi, grid):
                trial = list(point)
                trial[axis] = x
                r = rate_at(*trial)
                if r > best_rate:
                    best_rate = r
                    point = trial
            spans[axis] *= 0.5
    final = replace(
        base_params, mu=point[0], epsilon=point[1], delta_threshold=point[2]
    )
    return OptimizeResult(params=final, rate_per_pulse=best_rate, evaluations=evaluations)
