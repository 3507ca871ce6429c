"""Per-observer trust tables: forwarding evidence, direct trust via fuzzy
inference, and recommendation merging.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .fuzzy import FuzzyTrustEngine


class Outcome(enum.Enum):
    FORWARDED = "forwarded"
    FORWARDED_DELAYED = "forwarded_delayed"
    DROPPED = "dropped"


class NoEvidence(ValueError):
    """No forwarding observations recorded for this node yet."""


@dataclass
class EvidenceCounters:
    total_forwarding: int = 0
    successes: int = 0
    delayed: int = 0

    def record(self, outcome: Outcome) -> None:
        self.total_forwarding += 1
        if outcome in (Outcome.FORWARDED, Outcome.FORWARDED_DELAYED):
            self.successes += 1
        if outcome is Outcome.FORWARDED_DELAYED:
            self.delayed += 1


def evidence(counters: EvidenceCounters) -> tuple:
    """(dfr, dfd) ratios from raw counters.

    With zero successes the delay ratio is reported as 0; it is irrelevant
    because dfr = 0 forces trust 0 through the bypass rule anyway.
    """
    if counters.total_forwarding <= 0:
        raise NoEvidence("no forwarding observations")
    dfr = counters.successes / counters.total_forwarding
    dfd = counters.delayed / counters.successes if counters.successes > 0 else 0.0
    return dfr, dfd


@dataclass
class TrustEntry:
    value: float | None = None  # None means Unknown
    counters: EvidenceCounters = field(default_factory=EvidenceCounters)


class TrustTable:
    """One observer's view of the other nodes."""

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
    table.entry(observed).counters.record(outcome)


def update_direct_trust(table: TrustTable, engine: FuzzyTrustEngine,
                        head: int) -> float:
    """Re-infer the head's trust from the accumulated evidence."""
    ent = table.entry(head)
    dfr, dfd = evidence(ent.counters)
    ent.value = engine.evaluate(dfd, dfr)
    return ent.value


def merge_recommendation(table: TrustTable, observed: int,
                         t_head: float | None, t_recommended: float) -> bool:
    """Fold one recommendation about `observed` into the table.

    `t_head` is the observer's trust in the recommending head; Unknown or
    zero head trust skips the merge so "never observed" stays
    distinguishable from "observed malicious".  Returns True if applied.
    """
    if t_head is None or t_head <= 0.0:
        return False
    if not 0.0 <= t_recommended <= 1.0:
        raise ValueError("recommended trust must lie in [0,1]")
    ent = table.entry(observed)
    if ent.value is not None and ent.value > 0.0:
        merged = (ent.value + t_head * t_recommended) / (1.0 + t_head)
    else:
        merged = t_head * t_recommended
    assert 0.0 <= merged <= 1.0
    ent.value = merged
    return True
