"""Per-observer trust tables: forwarding evidence, direct trust via fuzzy
inference, and recommendation merging.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .fuzzy import FuzzyTrustEngine, NoEvidenceError


class Outcome(enum.Enum):
    FORWARDED = "forwarded"
    FORWARDED_DELAYED = "forwarded_delayed"
    DROPPED = "dropped"


class EvidenceCounters(NamedTuple):
    """Forwarding outcomes one observer has seen of one node; immutable,
    so `record_event` replaces an entry's record to count an outcome.
    Records are shared between entries: compare them by value."""
    total_forwarding: int = 0
    successes: int = 0
    delayed: int = 0


# The counters of every entry with no recorded outcome: entries created by
# `TrustTable.entry` or a recommendation merge share it and allocate none.
NO_EVIDENCE = EvidenceCounters()

# One shared record per distinct (total, successes, delayed) triple, which
# `record_event` hands out.  A run's tables hold few distinct triples but
# many entries, and a NamedTuple is never untracked by the garbage
# collector, so each record saved is memory and collector work saved.
# Past the cap `record_event` makes a fresh record, equal by value.
_SHARED_COUNTERS: dict = {(0, 0, 0): NO_EVIDENCE}
_SHARED_COUNTERS_CAP = 1 << 16


def evidence(counters: EvidenceCounters) -> tuple:
    """(dfr, dfd) ratios from raw counters.

    With zero successes the delay ratio is reported as 0; it is irrelevant
    because dfr = 0 forces trust 0 through the bypass rule anyway.
    """
    if counters.total_forwarding <= 0:
        raise NoEvidenceError("no forwarding observations")
    dfr = counters.successes / counters.total_forwarding
    dfd = counters.delayed / counters.successes if counters.successes > 0 else 0.0
    return dfr, dfd


@dataclass(slots=True)
class TrustEntry:
    value: float | None = None  # None means Unknown
    counters: EvidenceCounters = NO_EVIDENCE


class TrustTable:
    """One observer's view of the other nodes."""

    __slots__ = ("owner", "entries")

    def __init__(self, owner: int):
        self.owner = owner
        self.entries: dict[int, TrustEntry] = {}

    def entry(self, observed: int) -> TrustEntry:
        if observed == self.owner:
            raise ValueError("a node does not keep trust in itself")
        ent = self.entries.get(observed)
        if ent is None:
            ent = TrustEntry()
            self.entries[observed] = ent
        return ent

    def value_of(self, observed: int) -> float | None:
        """The Known trust in `observed`, or None while it is Unknown."""
        ent = self.entries.get(observed)
        return None if ent is None else ent.value

    def known_values(self) -> list:
        """All Known trust values (the outlier detector's input multiset)."""
        return [e.value for e in self.entries.values() if e.value is not None]


def record_event(table: TrustTable, observed: int, outcome: Outcome) -> None:
    """Log one observed forwarding obligation of `observed`."""
    ent = table.entry(observed)
    total, successes, delayed = ent.counters
    key = (total + 1,
           successes + (outcome is not Outcome.DROPPED),
           delayed + (outcome is Outcome.FORWARDED_DELAYED))
    counters = _SHARED_COUNTERS.get(key)
    if counters is None:
        # tuple.__new__ skips the NamedTuple's Python-level __new__; only a
        # triple not yet shared, or one past the cap, is built here
        counters = tuple.__new__(EvidenceCounters, key)
        if len(_SHARED_COUNTERS) < _SHARED_COUNTERS_CAP:
            _SHARED_COUNTERS[key] = counters
    ent.counters = counters


def update_direct_trust(table: TrustTable, engine: FuzzyTrustEngine, head: int) -> None:
    """Re-infer the head's trust from the accumulated evidence.  With no
    observation yet (the head died before forwarding, which is not malice)
    the entry exists but keeps its value, Unknown or not."""
    ent = table.entry(head)
    if ent.counters.total_forwarding > 0:
        dfr, dfd = evidence(ent.counters)
        ent.value = engine.evaluate(dfd, dfr)


def merge_recommendation(table: TrustTable, recommendations: list,
                         t_head: float | None) -> bool:
    """Fold one head's recommendations, (observed, trust) pairs with trust
    in [0,1], into the table; a recommendation about the table's owner is
    skipped.  `protocol.recommendation_items` checks that range once per
    head, where the list is built.

    `t_head` is the owner's trust in the recommending head; Unknown or
    zero head trust skips the whole fan-out so "never observed" stays
    distinguishable from "observed malicious".  Each recommendation T_r
    moves a positive Known prior to (prior + t_head * T_r) / (1 + t_head)
    and sets any other entry to t_head * T_r.  Returns True if applied.
    """
    if t_head is None or t_head <= 0.0:
        return False
    owner = table.owner
    entries = table.entries
    weight = 1.0 + t_head
    for observed, t_recommended in recommendations:
        if observed == owner:
            continue
        ent = entries.get(observed)
        if ent is None:
            ent = entries[observed] = TrustEntry()
        prior = ent.value
        if prior is not None and prior > 0.0:
            ent.value = (prior + t_head * t_recommended) / weight
        else:
            ent.value = t_head * t_recommended
    return True
