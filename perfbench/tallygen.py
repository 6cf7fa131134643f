"""Seeded raw tally files for the tally-analysis workload.

Every file keeps the bundled 50 km data set's metadata and sent cells and
redraws its 16 detection cells.  For each (subset, state) pool of announced
windows the two channels are one multinomial draw: channel 0 is binomial in
the pool, channel 1 binomial in what is left, both at the bundled file's
observed click fractions.

The files are written here in the documented ``name<TAB>value`` format, not
through ``scfqkd.dataio``, and the bundled file is read by the small parser
below, so the workload's input does not depend on the code it measures.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

STATES = ("00", "01", "10", "11")
SUBSETS = ("SS", "TT")
DETECTION_KEYS = tuple(
    f"Detected-{sub}{cd}-ch{k}" for sub in SUBSETS for cd in STATES for k in (0, 1)
)


def read_cells(path) -> dict:
    """``name -> int`` of a tally file, in file order; comments skipped."""
    cells = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, value = line.split()
            cells[name] = int(value)
    return cells


def draw_detections(base: dict, rng: np.random.Generator, count: int) -> np.ndarray:
    """``(count, 16)`` int64 detection counts in :data:`DETECTION_KEYS` order."""
    out = np.empty((count, len(DETECTION_KEYS)), dtype=np.int64)
    col = 0
    for sub in SUBSETS:
        for cd in STATES:
            pool = base[f"Sent-{sub}{cd}-Δ"]
            p0 = base[f"Detected-{sub}{cd}-ch0"] / pool
            p1 = base[f"Detected-{sub}{cd}-ch1"] / pool
            ch0 = rng.binomial(pool, p0, size=count)
            ch1 = rng.binomial(pool - ch0, p1 / (1.0 - p0))
            out[:, col] = ch0
            out[:, col + 1] = ch1
            col += 2
    return out


def format_file(base: dict, detections) -> str:
    """The bundled file with its detection cells replaced by ``detections``."""
    cells = dict(base)
    cells.update(zip(DETECTION_KEYS, (int(n) for n in detections)))
    return "".join(f"{name}\t{value}\n" for name, value in cells.items())


def key_set_detections(detections) -> int:
    """Sum of the key-set (SS) detection cells of one drawn row."""
    return int(sum(n for key, n in zip(DETECTION_KEYS, detections) if key.startswith("Detected-SS")))


def write_files(base: dict, directory, seed: int, count: int) -> list:
    """Write ``count`` files drawn from ``seed``; return ``(path, n_v)`` pairs,
    ``n_v`` being the key-set detections drawn for that file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = draw_detections(base, np.random.default_rng(seed), count)
    out = []
    for i, row in enumerate(rows):
        path = directory / f"tally_{i:05d}.tsv"
        path.write_text(format_file(base, row), encoding="utf-8")
        out.append((path, key_set_detections(row)))
    return out
