"""Per-layer metrics of the traced run.

:func:`install_wrappers` wraps each traced public function of the program
where its caller looks it up; :func:`layer_metrics` turns the recorded spans
into per-round times, counts and ratios.  Layers a workload never calls
report zero.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict

import numpy as np

import spans
from scfqkd import channelsim, cli, dataio, estimator, keyrate, phasetrack


def _click_tag(args, kwargs, result):
    """(windows evaluated, windows where at least one party sent)."""
    alice, bob, phase = args[2:5]
    shape = np.broadcast(alice, bob, phase).shape
    sending = np.broadcast_to(np.logical_or(alice, bob), shape)
    return math.prod(shape), int(np.count_nonzero(sending))


def install_wrappers(tracer: spans.Tracer) -> None:
    """Wrap each traced function where its caller looks it up."""
    w = tracer.wrap
    w(channelsim, "simulate_session", "channelsim.simulate_session")
    w(channelsim, "click_probabilities", "channelsim.click_probabilities", _click_tag)
    w(keyrate, "expected_tallies", "channelsim.expected_tallies")
    w(np.polynomial.legendre, "leggauss", "channelsim.leggauss")
    w(phasetrack, "slot_probabilities", "phasetrack.slot_probabilities")
    w(phasetrack, "estimate_phase_batch", "phasetrack.estimate_phase_batch",
      lambda a, k, r: len(a[0]))
    w(estimator, "tallies_to_sets", "estimator.tallies_to_sets")
    w(dataio, "tallies_to_sets", "estimator.tallies_to_sets")
    w(estimator, "counting_rates", "estimator.counting_rates")
    w(estimator, "phase_flip_upper", "estimator.phase_flip_upper")
    w(keyrate, "analyze_tallies", "keyrate.analyze_tallies")
    w(keyrate, "analyze_expected", "keyrate.analyze_expected",
      lambda a, k, r: (a, tuple(sorted(k.items()))))
    w(keyrate, "calibrate_visibility", "keyrate.calibrate_visibility")
    w(dataio, "load_raw_tallies", "dataio.load_raw_tallies", lambda a, k, r: os.path.getsize(a[0]))
    w(dataio, "write_raw_tallies", "dataio.write_raw_tallies", lambda a, k, r: os.path.getsize(a[0]))
    w(dataio, "emit_report", "dataio.emit_report")
    w(cli, "main", "cli.main")


OPTIMIZE_SPAN = "model-design.primary"
"""The runner's span around each optimize call; evaluations are counted
under it so that the sweep's are not."""

PER_LAYER_TIMES = (
    "channelsim.click_probabilities", "channelsim.expected_tallies", "channelsim.leggauss",
    "phasetrack.slot_probabilities", "phasetrack.estimate_phase_batch",
    "estimator.tallies_to_sets", "estimator.counting_rates", "estimator.phase_flip_upper",
    "keyrate.analyze_tallies", "keyrate.analyze_expected", "keyrate.calibrate_visibility",
    "dataio.load_raw_tallies", "dataio.emit_report", "dataio.write_raw_tallies",
)
PER_LAYER_CALLS = (
    "channelsim.click_probabilities", "channelsim.expected_tallies", "channelsim.leggauss",
    "estimator.tallies_to_sets", "estimator.counting_rates", "estimator.phase_flip_upper",
)
PER_LAYER_PERCENTILES = ("keyrate.analyze_tallies", "dataio.load_raw_tallies")


def _percentile_us(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(trace: list, rounds: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds; times
    and counts are per round, zero where the workload never calls a layer."""
    selfs = spans.self_times(trace)
    by_name = defaultdict(list)
    for i, s in enumerate(trace):
        by_name[s.name].append(i)
    out = {}

    def per_round(x):
        return x / rounds

    for name in PER_LAYER_TIMES:
        out[f"{name}.s"] = (per_round(sum(trace[i].duration for i in by_name[name])), "s")
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = (per_round(len(by_name[name])), "count")
    for name in PER_LAYER_PERCENTILES:
        durations = [trace[i].duration for i in by_name[name]]
        out[f"{name}.p50_us"] = (_percentile_us(durations, 50), "us")
        out[f"{name}.p99_us"] = (_percentile_us(durations, 99), "us")
    out["channelsim.simulate_session.self_s"] = (
        per_round(sum(selfs[i] for i in by_name["channelsim.simulate_session"])), "s")
    out["cli.main.self_s"] = (per_round(sum(selfs[i] for i in by_name["cli.main"])), "s")

    click = [trace[i].tag for i in by_name["channelsim.click_probabilities"]]
    windows = sum(t[0] for t in click)
    out["channelsim.click_probabilities.windows"] = (per_round(windows), "count")
    out["channelsim.click_useful_ratio"] = (
        sum(t[1] for t in click) / windows if windows else 0.0, "ratio")
    out["phasetrack.spans_estimated"] = (
        per_round(sum(trace[i].tag for i in by_name["phasetrack.estimate_phase_batch"])), "count")

    evals = defaultdict(list)
    for i in by_name["keyrate.analyze_expected"]:
        owner = spans.ancestor_named(trace, i, OPTIMIZE_SPAN)
        if owner >= 0:
            evals[owner].append(i)
    n_evals = sum(len(v) for v in evals.values())
    distinct = sum(len({trace[i].tag for i in v}) for v in evals.values())
    out["keyrate.evaluations"] = (per_round(n_evals), "count")
    out["keyrate.distinct_eval_ratio"] = (distinct / n_evals if n_evals else 0.0, "ratio")
    out["keyrate.infeasible_evals"] = (
        per_round(sum(1 for v in evals.values() for i in v if trace[i].error)), "count")

    out["dataio.bytes_read"] = (
        per_round(sum(trace[i].tag for i in by_name["dataio.load_raw_tallies"])), "bytes")
    out["dataio.bytes_written"] = (
        per_round(sum(trace[i].tag for i in by_name["dataio.write_raw_tallies"])), "bytes")
    return out


def trace_gaps(trace: list, walls: list) -> list:
    """Messages for traced rounds whose span tree does not account for the
    round: every span's self time summed over the tree must equal the root's
    duration, and the root must lie inside the round's measured wall time."""
    selfs = spans.self_times(trace)
    totals = defaultdict(float)
    for i, t in enumerate(selfs):
        totals[spans.root_of(trace, i)] += t
    roots = [i for i, s in enumerate(trace) if s.parent < 0]
    problems = []
    for r, wall in zip(roots, walls):
        dur = trace[r].duration
        if abs(totals[r] - dur) > 1e-6 or not dur <= wall:
            problems.append(f"traced round {r}: self times sum to {totals[r]:.6f} s, "
                            f"root {dur:.6f} s, wall {wall:.6f} s")
    return problems
