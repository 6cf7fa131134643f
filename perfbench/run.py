"""Benchmark of the scfqkd simulation and analysis chain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-session --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller that waits for every result.
It builds its inputs from ``--seed``, repeats its two steps in rounds for
about ``--seconds`` seconds, checks every output, prints one ``metric`` line
per metric with its unit, and ends with one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
makes the command exit with status 1.  ``perfbench/README.md`` says what
each workload and metric is for.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, recorded by
wrapping the program's public functions from outside (``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11

WARMUP = {
    "mc-session": (
        "import math; from scfqkd import channelsim, defaults; "
        "channelsim.simulate_session(defaults.reference_params(), defaults.reference_model(50.0), "
        "184320, 1, thresholds=[math.radians(d) for d in (2, 5, 8, 10, 12, 15, 30, 45)])"
    ),
    "model-design": (
        "from scfqkd import defaults, keyrate; "
        "keyrate.analyze_expected(defaults.reference_params(), defaults.reference_model(50.0), 1e12)"
    ),
    "tally-analysis": (
        "from scfqkd import dataio, defaults, keyrate; "
        "raw = dataio.load_raw_tallies(defaults.bundled_tally_path(), strict=True); "
        "u, v = raw.tally_sets(); "
        "dataio.emit_report(keyrate.analyze_tallies(u, v, defaults.reference_params(), "
        "n_total_pulses=raw.n_total_pulses, delta_threshold=raw.delta_threshold), fmt='json')"
    ),
}
"""One warm-up operation per workload, run after ``import scfqkd`` in a
fresh interpreter to measure ``setup_s``."""


def measure_setup(workload: str) -> tuple:
    """Median raw and normalised wall time of a fresh interpreter that
    imports scfqkd and runs the workload's warm-up operation.  Start-up is
    interpreter-bound, so it is normalised with the ``python`` kernel."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import scfqkd; {WARMUP[workload]}"
    cmd = [sys.executable, "-c", code]
    clock = Clock("python")
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        _, seconds, normalised = clock.time(
            lambda: subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        raw.append(seconds)
        norm.append(normalised)
    return statistics.median(raw), statistics.median(norm)


class Runner:
    """Closed loop over a workload's steps, with the output gate."""

    def __init__(self, workload):
        self.wl = workload
        self.clock = Clock(workload.kernel, parallel=any(s.parallel for s in workload.steps))
        self.attempted = workload.start_ops
        self.messages = workload.start()
        self.failed = len(self.messages)
        self.raw = defaultdict(list)
        self.norm = defaultdict(list)

    def record(self, ops: int, msgs: list) -> None:
        self.attempted += ops
        self.failed += len(msgs)
        self.messages += msgs

    def run_step(self, step) -> None:
        out, seconds, normalised = self.clock.time(step.run, step.parallel)
        self.raw[step.key].append(seconds)
        self.norm[step.key].append(normalised)
        self.record(step.ops, step.check(out))

    def untraced_round(self, index: int) -> None:
        self.wl.begin_round()
        steps = self.wl.steps if index % 2 == 0 else self.wl.steps[::-1]
        for step in steps:
            self.run_step(step)

    def loop(self, seconds: float, round_fn) -> int:
        """Run ``round_fn(index)`` until another round would overrun, then
        the workload's end-of-run check; return the number of rounds."""
        start = perf_counter()
        durations = []
        while True:
            t0 = perf_counter()
            round_fn(len(durations))
            durations.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(durations) > seconds:
                self.record(self.wl.finish_ops, self.wl.finish())
                return len(durations)

    def measure(self, seconds: float) -> dict:
        self.loop(seconds, self.untraced_round)
        return {f"{key}_s": (statistics.median(self.norm[key]), "s") for key in ("primary", "secondary")}

    def measure_traced(self, seconds: float) -> dict:
        import layers  # imports scfqkd, so only after main() put src/ on the path

        tracer = spans.Tracer()
        traced = [s for s in self.wl.steps if s.key in self.wl.traced_keys]
        walls, norm = [], []

        def traced_steps() -> list:
            outputs = []
            layers.install_wrappers(tracer)
            try:
                with tracer.span("round"):
                    for step in traced:
                        with tracer.span(f"{self.wl.name}.{step.key}"):
                            outputs.append(step.run())
            finally:
                tracer.restore()
            return outputs

        def round_fn(index: int) -> None:
            self.untraced_round(index)
            outputs, seconds_, normalised = self.clock.time(traced_steps)
            walls.append(seconds_)
            norm.append(normalised)
            for step, out in zip(traced, outputs):
                self.record(step.ops, step.check(out))

        rounds = self.loop(seconds, round_fn)
        metrics = layers.layer_metrics(tracer.spans, rounds)
        untraced = sum(statistics.median(self.norm[s.key]) for s in traced)
        metrics["trace_overhead"] = (statistics.median(norm) / untraced, "ratio")
        speedup = 0.0
        if any(s.parallel for s in self.wl.steps):
            speedup = statistics.median(self.raw["primary"]) / statistics.median(self.raw["secondary"])
        metrics["channelsim.parallel_speedup"] = (speedup, "ratio")
        self.record(1, layers.trace_gaps(tracer.spans, walls)[:1])
        return metrics


def environment(args, wl, workloads) -> dict:
    """Machine, versions, seed and sizes of this run."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "session_windows": workloads.SESSION_WINDOWS, "tally_files": workloads.TALLY_FILES,
    }
    if wl.name == "model-design":
        env["distance_km"] = wl.distance_km
    if wl.name == "mc-session":
        env["simulation_gate"] = dict(wl.gate_stats, windows=wl.totals["windows"])
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-session", "model-design", "tally-analysis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "scfqkd" / "__init__.py").is_file():
        print(f"error: no scfqkd sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if not args.trace:
            raw_setup, setup = measure_setup(args.workload)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(wl)
        if args.trace:
            metrics = runner.measure_traced(args.seconds)
        else:
            metrics = {"setup_s": (setup, "s"), **runner.measure(args.seconds)}
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    env = environment(args, wl, workloads)
    if not args.trace:
        env["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        env["raw_median_s"] = {"setup": raw_setup}
        for key, (label, per_op) in wl.rates.items():
            env["raw_median_s"][key] = statistics.median(runner.raw[key])
            seconds = metrics[f"{key}_s"][0]
            env[label] = per_op / seconds if per_op else seconds
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for msg in runner.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
