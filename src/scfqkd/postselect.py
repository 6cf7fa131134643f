"""The announced-state posterior of the post-selected pool.

After a session both parties announce, per window, whether they sent.  The
windows that survive the phase threshold form the sifted pool (the
simulator in :mod:`scfqkd.channelsim` keeps or discards whole reference
spans and splits the pool into test and key sets).  Discarding windows by
announced phase also updates the knowledge an observer has about the joint
send state: if ``a_i`` windows of state i were produced in total and
``b_i`` of them were discarded, the kept pool is described by coefficients

    c_i = (a_i - b_i) / N'      with  N' = sum_i (a_i - b_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .channelsim import STATE_LABELS, broken_tally_rule


@dataclass(frozen=True)
class StateCoefficients:
    """Posterior weights of the four joint send states in the kept pool.

    Ordered as (both sent, only A sent, only B sent, neither sent); the four
    values are non-negative and sum to 1.
    """

    both: float
    alice_only: float
    bob_only: float
    vacuum: float

    def as_tuple(self) -> tuple:
        return (self.both, self.alice_only, self.bob_only, self.vacuum)


def posterior_state(
    sent: Mapping[str, float], sent_selected: Mapping[str, float]
) -> StateCoefficients:
    """Posterior state coefficients of the pool surviving post-selection.

    ``sent`` counts all produced windows by state label and ``sent_selected``
    the surviving ones; the coefficient of state i is its share of the
    surviving pool.  Raises ValueError for a non-finite or negative count,
    an empty surviving pool, or counts that break the selected <= sent rule
    of :func:`~scfqkd.channelsim.broken_tally_rule`.
    """
    counts = []
    for s in STATE_LABELS:
        a = float(sent.get(s, 0))
        k = float(sent_selected.get(s, 0))
        if not (math.isfinite(a) and math.isfinite(k)):
            raise ValueError(f"non-finite count for state {s}")
        if a < 0 or k < 0:
            raise ValueError(f"negative count for state {s}")
        counts += [a, k] + [None] * 6
    if broken := broken_tally_rule(counts):
        raise ValueError(broken[1])
    kept = dict(zip(STATE_LABELS, counts[1::8]))
    total = sum(kept.values())
    if total <= 0:
        raise ValueError("no windows survived post-selection")
    return StateCoefficients(
        both=kept["11"] / total,
        alice_only=kept["10"] / total,
        bob_only=kept["01"] / total,
        vacuum=kept["00"] / total,
    )
