"""The three benchmark workloads and the checks on their outputs.

Each workload has two timed steps, ``primary`` and ``secondary``, which the
runner calls in rounds; ``check`` functions return one message per failed
operation and never run inside a timed or traced region.  Every function of
the program is called through its module (``channelsim.simulate_session``),
so the traced run's wrappers see the call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tallygen
from scfqkd import channelsim, cli, dataio, defaults, keyrate

SESSION_WINDOWS = 1_474_560
"""Windows per simulated session: eight of today's 184,320-window chunks,
so the two-worker pool has work for both workers and one session stays
short enough for dozens of repeats per run."""
THRESHOLD_DEGREES = (2, 5, 8, 10, 12, 15, 30, 45)
Z_BOUND = 4.5
"""Bound on |z| of the send fraction and the effective windows."""
P_MIN = 1e-5
"""Smallest accepted two-sided binomial p-value of the 30-degree key-set
errors.  With the two z bounds, a correct sampler fails a run with
probability about 2 x 6.8e-6 + 1e-5 < 1e-4."""
OPTIMIZE_EVALUATIONS = 553
REFERENCE_RATE = 4.80e-7
TALLY_FILES = 2000
LIBRARY_BATCH = 50
CLI_BATCH = 10


@dataclass
class Step:
    """One timed operation: ``run()`` returns the output, ``check(output)``
    the failure messages; ``ops`` is the number of operations one run does,
    and ``parallel`` marks a step that keeps both CPUs busy."""

    key: str
    run: Callable
    check: Callable
    ops: int = 1
    parallel: bool = False


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value, twice the smaller tail, of ``k`` successes
    in ``n`` Bernoulli(``p``) trials."""
    def pmf(i):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p)
        )
    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


class Workload:
    """Hooks the runner calls around the timed steps; each returns failure
    messages and counts ``start_ops`` or ``finish_ops`` operations."""

    start_ops = 0
    finish_ops = 0

    def start(self) -> list:
        return []

    def begin_round(self) -> None:
        pass

    def finish(self) -> list:
        return []


class McSession(Workload):
    """Monte Carlo sessions at the reference 50 km point, 1 and 2 workers."""

    name = "mc-session"
    kernel = "vector"
    finish_ops = 1
    traced_keys = ("primary",)
    rates = {"primary": ("sim_windows_per_s", SESSION_WINDOWS),
             "secondary": ("sim_windows_per_s_w2", SESSION_WINDOWS)}

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.params = defaults.reference_params()
        self.model = defaults.reference_model(50.0)
        self.thresholds = [math.radians(d) for d in THRESHOLD_DEGREES]
        self.per_window = channelsim.expected_tallies(self.params, self.model, 1.0)[
            self.params.delta_threshold]
        self.seeds = np.random.default_rng(seed)
        self.session_seed = None
        self.round_files = None
        self.totals = {"windows": 0, "mismatched": 0, "effective": 0, "n_v": 0, "errors": 0}
        self.gate_stats = {}
        self.steps = [
            Step("primary", lambda: self.session(1), lambda out: self.check(1, out)),
            Step("secondary", lambda: self.session(2), lambda out: self.check(2, out),
                 parallel=True),
        ]

    def begin_round(self) -> None:
        """Every session of a round uses the round's seed."""
        self.session_seed = int(self.seeds.integers(2**62))
        self.round_files = None

    def _path(self, workers: int, degrees: int) -> Path:
        return self.workdir / f"w{workers}_{degrees}deg.tsv"

    def session(self, workers: int):
        res = channelsim.simulate_session(
            self.params, self.model, SESSION_WINDOWS, self.session_seed,
            workers=workers, thresholds=self.thresholds,
        )
        p = self.params
        for deg, thr in zip(THRESHOLD_DEGREES, self.thresholds):
            metadata = {"Delta-Degrees": deg, "Mu": p.mu, "Epsilon": p.epsilon, "Pt": p.p_t,
                        "F-EC": p.f_ec, "Windows": SESSION_WINDOWS, "Seed": self.session_seed}
            dataio.write_raw_tallies(self._path(workers, deg), res.by_threshold[thr], metadata)
        return res

    def check(self, workers: int, res) -> list:
        files = [self._path(workers, deg).read_bytes() for deg in THRESHOLD_DEGREES]
        if self.round_files is not None:
            if files != self.round_files:
                return [f"seed {self.session_seed}: {workers}-worker tally files differ from "
                        "the round's first session"]
            return []
        self.round_files = files
        t = res.tallies
        errors = sum(t.detected_key[(s, ch)] for s in ("00", "11") for ch in (0, 1))
        add = {"windows": SESSION_WINDOWS, "mismatched": t.sent["01"] + t.sent["10"],
               "effective": t.effective_windows, "n_v": sum(t.detected_key.values()),
               "errors": errors}
        for key, n in add.items():
            self.totals[key] += n
        return []

    def finish(self) -> list:
        """Send fraction, effective windows and 30-degree key-set errors of
        all rounds' sessions against the expected-value model."""
        tot = self.totals
        n = tot["windows"]
        eps = self.params.epsilon
        p_z = 2 * eps * (1 - eps)
        exp = self.per_window
        eff = n * exp.effective_windows
        key = exp.detected_key
        p_err = sum(key[(s, ch)] for s in ("00", "11") for ch in (0, 1)) / sum(key.values())
        self.gate_stats = {
            "send_fraction": (tot["mismatched"] - n * p_z) / math.sqrt(n * p_z * (1 - p_z)),
            "effective_windows": (tot["effective"] - eff) / math.sqrt(eff),
            "e_v_30deg_p": binomial_two_sided_p(tot["errors"], tot["n_v"], p_err),
        }
        problems = [f"{name} z-score {self.gate_stats[name]:+.2f} beyond {Z_BOUND}"
                    for name in ("send_fraction", "effective_windows")
                    if not abs(self.gate_stats[name]) <= Z_BOUND]
        if not self.gate_stats["e_v_30deg_p"] >= P_MIN:
            problems.append(f"30-degree key-set errors {tot['errors']} of {tot['n_v']} have "
                            f"p = {self.gate_stats['e_v_30deg_p']:.2e} against {p_err:.4f}")
        return [f"{n} simulated windows: " + "; ".join(problems)] if problems else []


class ModelDesign(Workload):
    """Default ``optimize`` at a seeded distance plus the calibrated sweep."""

    name = "model-design"
    kernel = "small_arrays"
    traced_keys = ("primary", "secondary")
    rates = {"primary": ("optimize_s", None), "secondary": ("sweep_s", None)}

    def __init__(self, seed: int, workdir: Path):
        self.distance_km = float(np.random.default_rng(seed).uniform(40.0, 60.0))
        self.model = defaults.reference_model(self.distance_km)
        self.params = defaults.reference_params()
        self.sweep_model = defaults.reference_model(50.0)
        self.distances = [float(d) for d in range(0, 85, 5)]
        self.reference_rate = keyrate.analyze_expected(self.params, self.model, 1e12).rate_per_pulse
        self.steps = [
            Step("primary", self.optimize, self.check_optimize),
            Step("secondary", self.sweep, self.check_sweep),
        ]

    def optimize(self):
        """The ``optimize`` command's call with its default ranges."""
        return keyrate.optimize_params(
            self.model, self.params,
            mu_bounds=(2e-4, 2e-2),
            epsilon_bounds=(2e-3, 2e-1),
            delta_bounds=(math.radians(5.0), math.radians(90.0)),
            n_windows=1e12,
        )

    def sweep(self):
        """The ``sweep`` command's call with its defaults."""
        return keyrate.sweep_distance(
            self.params, self.sweep_model, self.distances,
            n_windows=1e12, target_qber=defaults.REFERENCE_BOTH_SEND_QBER,
        )

    def check_optimize(self, result) -> list:
        problems = []
        if result.evaluations != OPTIMIZE_EVALUATIONS:
            problems.append(f"{result.evaluations} evaluations, expected {OPTIMIZE_EVALUATIONS}")
        again = keyrate.analyze_expected(result.params, self.model, 1e12).rate_per_pulse
        if not abs(again - result.rate_per_pulse) <= 1e-9 * abs(result.rate_per_pulse):
            problems.append(f"re-evaluated rate {again!r} != reported {result.rate_per_pulse!r}")
        if not result.rate_per_pulse >= self.reference_rate:
            problems.append(f"rate {result.rate_per_pulse:.4e} below the reference params' "
                            f"{self.reference_rate:.4e}")
        return ["optimize: " + "; ".join(problems)] if problems else []

    def check_sweep(self, points) -> list:
        problems = []
        rates = [p.rate_per_pulse for p in points]
        if [p.distance_km for p in points] != self.distances:
            problems.append("sweep distances differ from 0:80:5")
        elif not all(b <= a for a, b in zip(rates, rates[1:])):
            problems.append("rate is not monotone in distance")
        else:
            r50 = rates[self.distances.index(50.0)]
            if not 0.5 * REFERENCE_RATE <= r50 <= 2.0 * REFERENCE_RATE:
                problems.append(f"R(50 km) = {r50:.3e} outside 0.5-2x {REFERENCE_RATE:.2e}")
        return ["sweep: " + "; ".join(problems)] if problems else []


class TallyAnalysis(Workload):
    """The ``analyze`` chain over seeded tally files, called as a library
    chain and through the command-line entry point."""

    name = "tally-analysis"
    kernel = "python"
    start_ops = 1
    traced_keys = ("primary", "secondary")
    rates = {"primary": ("analyze_files_per_s", LIBRARY_BATCH),
             "secondary": ("cli_analyze_files_per_s", CLI_BATCH)}

    def __init__(self, seed: int, workdir: Path):
        self.params = defaults.reference_params()
        base = tallygen.read_cells(defaults.bundled_tally_path())
        self.files = tallygen.write_files(base, workdir / "tallies", seed, TALLY_FILES)
        self.reports_dir = workdir / "reports"
        self.reports_dir.mkdir()
        self.cursor = {"primary": 0, "secondary": 0}
        self.batches = {}
        self.steps = [
            Step("primary", self.library_batch, self.check_library, ops=LIBRARY_BATCH),
            Step("secondary", self.cli_batch, self.check_cli, ops=CLI_BATCH),
        ]

    def _next(self, key: str, size: int) -> list:
        start = self.cursor[key]
        self.cursor[key] = (start + size) % len(self.files)
        self.batches[key] = self.files[start:start + size]
        return self.batches[key]

    def analyze(self, path) -> str:
        raw = dataio.load_raw_tallies(path, strict=True)
        u, v = raw.tally_sets()
        rep = keyrate.analyze_tallies(
            u, v, self.params,
            n_total_pulses=raw.n_total_pulses, delta_threshold=raw.delta_threshold,
        )
        return dataio.emit_report(rep, fmt="json")

    def start(self) -> list:
        """Acceptance criterion 1's values on the bundled file."""
        rep = json.loads(self.analyze(defaults.bundled_tally_path()))

        def rel(key, want, tol):
            return abs(rep[key] - want) <= tol * abs(want)

        ok = (
            rel("s_tilde_z", 2.77e-4, 0.01) and rel("n_tilde_z", 2_207_341, 0.005)
            and rep["n_v"] == 2_248_625 and abs(rep["e_v"] - 0.0212) <= 0.0005
            and abs(rep["e_ph_upper"] - 0.191) <= 0.003 and rel("n_f", 289_900, 0.03)
            and rel("rate_per_pulse", REFERENCE_RATE, 0.03)
        )
        return [] if ok else [f"bundled file: report differs from criterion 1: {rep}"]

    def library_batch(self) -> list:
        return [self.analyze(path) for path, _n_v in self._next("primary", LIBRARY_BATCH)]

    def cli_batch(self) -> list:
        codes = []
        for i, (path, _n_v) in enumerate(self._next("secondary", CLI_BATCH)):
            out = self.reports_dir / f"{i}.json"
            codes.append(cli.main(["analyze", "--in", str(path), "--format", "json", "--out", str(out)]))
        return codes

    @staticmethod
    def _check_report(path, n_v, text) -> str | None:
        try:
            rep = json.loads(text)
        except ValueError as exc:
            return f"{path.name}: report is not JSON ({exc})"
        rate = rep.get("rate_per_pulse")
        if not (isinstance(rate, float) and 0.0 <= rate <= 1.0):
            return f"{path.name}: rate_per_pulse {rate!r} outside [0, 1]"
        if rep.get("n_v") != n_v:
            return f"{path.name}: n_v {rep.get('n_v')!r} != drawn key-set detections {n_v}"
        return None

    def check_library(self, texts) -> list:
        found = (self._check_report(path, n_v, text)
                 for (path, n_v), text in zip(self.batches["primary"], texts))
        return [msg for msg in found if msg]

    def check_cli(self, codes) -> list:
        problems = []
        for i, ((path, n_v), code) in enumerate(zip(self.batches["secondary"], codes)):
            if code != 0:
                problems.append(f"{path.name}: scfqkd analyze exited {code}")
                continue
            text = (self.reports_dir / f"{i}.json").read_text(encoding="utf-8")
            msg = self._check_report(path, n_v, text)
            if msg is None and text != self.analyze(path) + "\n":
                msg = f"{path.name}: command-line report differs from the library chain's"
            if msg:
                problems.append(msg)
        return problems


WORKLOADS = {w.name: w for w in (McSession, ModelDesign, TallyAnalysis)}
