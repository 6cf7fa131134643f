"""Reading and writing raw tally files, reports and sweep tables.

Raw tally files are line oriented: one ``name value`` pair per line,
separated by whitespace, with ``#`` comments and blank lines ignored.  The
cell names mirror the layout of the reference experiment's count tables:

    Sent-<CD>             windows produced, by joint state CD
    Sent-<CD>-Δ           windows surviving the phase threshold
    Sent-SS<CD>-Δ         surviving windows assigned to the key set
    Sent-TT<CD>-Δ         surviving windows assigned to the test set
    Detected-SS<CD>-ch<k> effective key-set windows on physical channel k
    Detected-TT<CD>-ch<k> effective test-set windows on physical channel k

CD is two digits, the first party's digit first, 1 = sent.  The Greek
letter may be spelled ``Delta`` (``Sent-00-Delta``); files written here use
the glyph.  Every cell is one entry of the package's one tally layout,
:attr:`SessionTallies.counts <scfqkd.channelsim.SessionTallies>` (state by
sent, selected and (subset, cell) columns), and :data:`CELL_INDEX` maps
each name to its flat index there; reading and writing both go through
that table.  Physical channels are kept as recorded: the estimator reads
channel 0 as detector side L unless told to swap.

Metadata keys (``Delta-Degrees``, ``Mu``, ``Epsilon``, ``Pt``, ``F-EC``,
``Windows``, ``Seed``) may precede the cells.  Unknown keys produce a
warning, never a failure.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .channelsim import STATE_LABELS, SessionTallies
from .estimator import KeyRateReport, tallies_to_sets

_DELTA = "Δ"

METADATA_KEYS = ("Delta-Degrees", "Mu", "Epsilon", "Pt", "F-EC", "Windows", "Seed")

CELL_INDEX = {
    name.format(cd=cd, k=k): 8 * i + column + k
    for name, column, channels in (
        ("Sent-{cd}", 0, (0,)),
        (f"Sent-{{cd}}-{_DELTA}", 1, (0,)),
        (f"Sent-SS{{cd}}-{_DELTA}", 5, (0,)),
        (f"Sent-TT{{cd}}-{_DELTA}", 2, (0,)),
        ("Detected-SS{cd}-ch{k}", 6, (0, 1)),
        ("Detected-TT{cd}-ch{k}", 3, (0, 1)),
    )
    for i, cd in enumerate(STATE_LABELS)
    for k in channels
}
"""Raw-file cell name -> index into ``SessionTallies.counts.ravel()``, in
file order."""

CELL_KEYS = tuple(CELL_INDEX)
_KEYS_BY_INDEX = sorted(CELL_INDEX, key=CELL_INDEX.get)

SPLIT_TOLERANCE = 0.005
"""Allowed relative mismatch between SS + TT and the selected total,
covering rounded counts in recorded data sets."""


class ParseError(ValueError):
    """A raw tally file could not be parsed; names the offending key/line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        super().__init__(message)
        self.key = key
        self.line = line


class ConsistencyError(ParseError):
    """A raw tally file parsed but its counts contradict each other."""


def _canonical(key: str) -> str:
    if key.endswith("-Delta"):
        return key[: -len("-Delta")] + f"-{_DELTA}"
    return key


@dataclass
class RawTallies:
    """A loaded raw tally file: session-shaped counts plus metadata."""

    tallies: SessionTallies
    metadata: dict = field(default_factory=dict)
    path: str | None = None

    @property
    def n_total_pulses(self) -> float:
        return self.tallies.n_windows

    @property
    def delta_threshold(self) -> float | None:
        """Post-selection threshold in radians, if the file recorded it."""
        deg = self.metadata.get("Delta-Degrees")
        return math.radians(deg) if deg is not None else None

    def tally_sets(self, swap_detectors: bool = False):
        """Build the (test, key) estimator tally sets."""
        return tallies_to_sets(self.tallies, swap_detectors=swap_detectors)


def _parse_lines(text: str, source: str):
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"{source}:{lineno}: expected 'name value', got {raw!r}", line=lineno
            )
        key = _canonical(parts[0])
        try:
            value = int(parts[1])
        except ValueError:
            try:
                value = float(parts[1])
            except ValueError:
                raise ParseError(
                    f"{source}:{lineno}: value of {key!r} is not a number: {parts[1]!r}",
                    key=key,
                    line=lineno,
                ) from None
        if key in values:
            raise ParseError(f"{source}: duplicate key {key!r}", key=key, line=lineno)
        if key not in CELL_INDEX and key not in METADATA_KEYS:
            warnings.warn(f"{source}: ignoring unknown key {key!r}", stacklevel=3)
            continue
        if not math.isfinite(value):
            raise ParseError(
                f"{source}:{lineno}: value of {key!r} is not finite: {parts[1]!r}",
                key=key,
                line=lineno,
            )
        if key in CELL_INDEX and value < 0:
            raise ParseError(
                f"{source}: negative count for {key!r}: {value}", key=key, line=lineno
            )
        if key == "Delta-Degrees" and not 0 < value <= 180:
            raise ParseError(
                f"{source}:{lineno}: {key!r} must lie in (0, 180], got {value}",
                key=key,
                line=lineno,
            )
        values[key] = value
    return values


def _check_consistency(values: Mapping, source: str) -> None:
    for i, cd in enumerate(STATE_LABELS):
        sent, selected, tt, tt0, tt1, ss, ss0, ss1 = _KEYS_BY_INDEX[8 * i:8 * i + 8]
        n_sent, n_sel, n_ss, n_tt = (values.get(k) for k in (sent, selected, ss, tt))
        if n_sent is not None and n_sel is not None and n_sel > n_sent:
            raise ConsistencyError(
                f"{source}: {selected} = {n_sel} exceeds {sent} = {n_sent}", key=selected
            )
        if n_sel is not None and n_ss is not None and n_tt is not None:
            if abs(n_ss + n_tt - n_sel) > max(SPLIT_TOLERANCE * n_sel, 1.0):
                raise ConsistencyError(
                    f"{source}: SS + TT = {n_ss + n_tt} is not the selected total "
                    f"{n_sel} for state {cd} (tolerance {SPLIT_TOLERANCE:.1%})",
                    key=ss,
                )
        for pool_key, ch0, ch1 in ((ss, ss0, ss1), (tt, tt0, tt1)):
            pool = values.get(pool_key)
            present = [values[k] for k in (ch0, ch1) if k in values]
            if pool is not None and present and sum(present) > pool:
                raise ConsistencyError(
                    f"{source}: {ch0[:-4]} total {sum(present)} exceeds {pool_key} = {pool}",
                    key=ch0,
                )


def load_raw_tallies(path, strict: bool = True) -> RawTallies:
    """Load a raw tally file.

    With ``strict=True`` every cell of the full table must be present;
    missing keys raise a :class:`ParseError` that lists all of them.  With
    ``strict=False`` any subset of cells is accepted (partial tables still
    support the both-send QBER summaries).  Consistency between cells is
    checked in both modes.
    """
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values = _parse_lines(text, path)
    if strict:
        missing = [k for k in CELL_KEYS if k not in values]
        if missing:
            raise ParseError(
                f"{path}: missing {len(missing)} required cells: {', '.join(missing)}",
                key=missing[0],
            )
    _check_consistency(values, path)

    # int64 when every cell is an integer that fits it, else float64.
    counts = np.array([values.get(k, 0) for k in _KEYS_BY_INDEX]).reshape(4, 8)
    if counts.dtype == object:
        counts = counts.astype(float)
    tallies = SessionTallies(
        n_windows=sum(counts[:, 0].tolist()),
        threshold=math.radians(values["Delta-Degrees"]) if "Delta-Degrees" in values else math.nan,
        counts=counts,
    )
    metadata = {k: values[k] for k in METADATA_KEYS if k in values}
    return RawTallies(tallies=tallies, metadata=metadata, path=path)


def _format_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


def write_raw_tallies(path, tallies: SessionTallies, metadata: Mapping | None = None) -> None:
    """Write session tallies in the raw file format.

    Cells are emitted in canonical order, metadata first, so equal inputs
    produce byte-identical files.
    """
    lines = []
    for k in METADATA_KEYS:
        if metadata and k in metadata:
            lines.append(f"{k}\t{_format_value(metadata[k])}")
    flat = tallies.counts.ravel().tolist()
    lines += [f"{k}\t{_format_value(flat[i])}" for k, i in CELL_INDEX.items()]
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reports and sweep tables
# ---------------------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


_REPORT_FIELDS = tuple(f.name for f in fields(KeyRateReport))


def report_to_dict(report: KeyRateReport) -> dict:
    d = {name: _jsonable(getattr(report, name)) for name in _REPORT_FIELDS}
    for name in ("rates_u_by_state", "rates_u_by_cell"):
        d[name] = {k: _jsonable(v) for k, v in d[name].items()}
    return d


def emit_report(report: KeyRateReport, fmt: str = "table") -> str:
    """Render an analysis report as an aligned table or as JSON.

    The JSON form is machine readable and NaN-free: undefined values are
    null and clamping/flag states are explicit booleans.
    """
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [
        ("signal mean photon number", f"{report.mu:g}"),
        ("error-correction factor", f"{report.f_ec:g}"),
        ("phase threshold [deg]", _fmt_optional(report.delta_threshold, lambda v: f"{math.degrees(v):.4g}")),
        ("total signal windows", _fmt_optional(report.n_total_pulses, lambda v: f"{v:.6e}")),
        ("test-set counting rate", _fmt_optional(report.s_u, lambda v: f"{v:.6e}")),
        ("test-set error rate", _fmt_optional(report.e_u, lambda v: f"{v:.4%}")),
        ("mismatched-send yield", f"{report.s_tilde_z:.6e}"),
        ("raw key pool", f"{report.n_tilde_z:,.1f}"),
        ("phase-flip upper bound", f"{report.e_ph_upper:.4%}" + (" [flagged]" if report.e_ph_flagged else "")),
        ("key-set bit error", f"{report.e_v:.4%}"),
        ("key-set detections", f"{report.n_v:,.1f}"),
        (
            "asymptotic secure key length",
            f"{report.n_f:,.1f}" + (f" (raw {report.n_f_raw:,.1f})" if report.n_f_raw < 0 else ""),
        ),
        ("key rate per window", _fmt_optional(report.rate_per_pulse, lambda v: f"{v:.6e}")),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _fmt_optional(v, fmt) -> str:
    return "n/a" if v is None else fmt(v)


SWEEP_CSV_COLUMNS = (
    "distance_km", "rate_per_pulse", "s_tilde_z", "n_tilde_z",
    "e_ph_upper", "e_v", "n_v", "n_f",
)


def emit_sweep_csv(points: Sequence) -> str:
    """Render sweep points as CSV with full-precision floats."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in points:
        r = p.report
        row = (
            p.distance_km, p.rate_per_pulse, r.s_tilde_z, r.n_tilde_z,
            r.e_ph_upper, r.e_v, r.n_v, r.n_f,
        )
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
