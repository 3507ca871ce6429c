"""Interval type-2 fuzzy trust inference.

Maps an evidence pair (delay ratio, forwarding rate) to a scalar trust value
through interval membership, product-rule firing, alpha-cut consequents,
center-of-sets type reduction via the EIASC switch-point iteration, and
midpoint defuzzification.  A forwarding rate below the bypass threshold
short-circuits to trust 0.  The lower alpha-cut of each symmetric
consequent is taken in the normalization the type reducer's weights use,
which keeps the trust surface monotone (nonincreasing in the delay ratio,
nondecreasing in the forwarding rate); see `FuzzyTrustEngine.endpoint_list`.

The linguistic label of a trust value (`FuzzyTrustEngine.classify_trust`)
comes from slots built once per controller from its seven consequent
triangles (`label_slots`): one search finds the value's slot, which holds
either the label at a corner or the few membership lines active between
two corners, compared exactly as the membership function computes them.

Those slots, the antecedent sets and the consequent triangles depend only
on the controller's value, so engines built from equal controllers share
them (see `FuzzyTrustEngine`); each engine keeps its own inference cache.
"""
from __future__ import annotations

import copy
import marshal
import math
from bisect import bisect_right
from dataclasses import dataclass

from .config import FLCConfig, PiecewiseLinearMF, TRUST_LABELS

_FULL_FIRING = 1.0 - 1e-12


class NoEvidenceError(ValueError):
    """No evidence to infer from: type reduction met all-zero grades, or
    `trust.evidence` met a node with no forwarding observations."""


@dataclass(frozen=True)
class IT2Set:
    umf: PiecewiseLinearMF
    lmf: PiecewiseLinearMF

    def membership(self, x: float) -> tuple:
        """Grade interval [lower, upper] at x.

        `FLCConfig.validate` holds the LMF at or below the UMF at every
        breakpoint, so between breakpoints a lower grade above the upper one
        is rounding (an LMF along the UMF with other breakpoints) and is cut
        to the upper grade."""
        hi = self.umf(x)
        return min(self.lmf(x), hi), hi


@dataclass(frozen=True)
class T1TrustSet:
    """Triangular consequent set with support [a, b] and peak c."""

    a: float
    c: float
    b: float

    @property
    def symmetric(self) -> bool:
        return abs((self.c - self.a) - (self.b - self.c)) < 1e-12

    def alpha_cut(self, g: float) -> tuple:
        return self.a + g * (self.c - self.a), self.b - g * (self.b - self.c)

    def membership(self, x: float) -> float:
        if x < self.a or x > self.b:
            return 0.0
        if x < self.c:
            return (x - self.a) / (self.c - self.a) if self.c > self.a else 1.0
        if x > self.c:
            return (self.b - x) / (self.b - self.c) if self.b > self.c else 1.0
        return 1.0


def label_slots(sets: list) -> tuple:
    """Label slots of the consequent triangles `sets` (`T1TrustSet`s in
    `TRUST_LABELS` order) as `(bounds, slots)`; the slot of a value `x` is
    ``slots[bisect_right(bounds, x)]``.

    Every a, c and b is a cut.  A cut's slot holds the label of the first
    maximum of the memberships at that value and no pieces.  The slot of
    the open interval between two neighbouring cuts holds the first label
    and the linear pieces active there, `(label, zero, width)` in label
    order: the grade of a piece at x is ``(x - zero) / width``, bit for bit
    the expression `T1TrustSet.membership` evaluates (a falling side's
    ``(b - x) / (b - c)`` is that quotient with both terms negated, which
    is exact), and every set without a piece there grades 0.  Below and
    above every support the slot holds the first label and no pieces.
    """
    bounds, slots = [], [(TRUST_LABELS[0], ())]
    cuts = sorted({v for s in sets for v in (s.a, s.c, s.b)})
    for t, u in zip(cuts, cuts[1:] + [math.inf]):
        bounds += (t, math.nextafter(t, math.inf))
        first_max = max(range(len(sets)), key=lambda i: sets[i].membership(t))
        slots.append((TRUST_LABELS[first_max], ()))
        pieces = []
        for label, s in zip(TRUST_LABELS, sets):
            if s.a <= t and u <= s.c:
                pieces.append((label, s.a, s.c - s.a))
            elif s.c <= t and u <= s.b:
                pieces.append((label, s.b, s.c - s.b))
        slots.append((TRUST_LABELS[0], tuple(pieces)))
    return bounds, slots


# (dfd label, dfr label, trust label) of the nine inference rules (the
# bypass rule is separate)
RULE_TABLE = (
    ("low", "high", "complete_trust"),
    ("medium", "high", "trust"),
    ("high", "high", "medium_trust"),
    ("low", "medium", "medium_trust"),
    ("medium", "medium", "medium_distrust"),
    ("high", "medium", "distrust"),
    ("low", "low", "distrust"),
    ("medium", "low", "intense_distrust"),
    ("high", "low", "complete_distrust"),
)


@dataclass
class WeightedEndpointList:
    """Sorted, weighted alpha-cut endpoints ready for type reduction.

    `left` and `right` are lists of (endpoint, lower grade, upper grade),
    each sorted ascending by endpoint; grades in each list are normalized so
    the lower grades sum to 1 and the upper grades sum to 1.
    """

    left: list
    right: list


def consequent_entries(trust_set: T1TrustSet, g_lo: float, g_hi: float,
                       cut_lo: float) -> list:
    """Alpha-cut output interval(s) for one fired rule.

    Shoulder consequents give one interval cut at the lower firing grade
    `g_lo`.  Symmetric consequents split into two intervals, cut at
    `cut_lo` and at the upper grade, each carrying half the firing weight,
    unless `cut_lo` is already 1 (degenerate peak cut).
    `FuzzyTrustEngine.endpoint_list` passes as `cut_lo` the lower grade
    rescaled into the upper grades' normalization (see there).  Entries are
    (t_left, t_right, weight_lo, weight_hi) and are emitted even for zero
    firing so the endpoint count stays input-independent.
    """
    if not trust_set.symmetric:
        tl, tr = trust_set.alpha_cut(g_lo)
        return [(tl, tr, g_lo, g_hi)]
    if cut_lo >= _FULL_FIRING:
        return [(trust_set.c, trust_set.c, g_lo, g_hi)]
    cut_l = trust_set.alpha_cut(cut_lo)
    cut_h = trust_set.alpha_cut(g_hi)
    half = (g_lo / 2.0, g_hi / 2.0)
    return [(cut_l[0], cut_l[1], *half), (cut_h[0], cut_h[1], *half)]


def build_endpoint_list(entries: list) -> WeightedEndpointList:
    """Sort the cut endpoints and normalize the grades per list."""
    lo_sum = sum(e[2] for e in entries)
    hi_sum = sum(e[3] for e in entries)
    if hi_sum <= 0.0:
        raise NoEvidenceError("all firing grades are zero")
    if lo_sum <= 0.0:
        # input fell in footprint-of-uncertainty-only territory; fall back
        # to the upper grades so the interval degenerates gracefully
        entries = [(tl, tr, ghi, ghi) for tl, tr, _, ghi in entries]
        lo_sum = hi_sum
    left = sorted((tl, glo / lo_sum, ghi / hi_sum) for tl, _, glo, ghi in entries)
    right = sorted((tr, glo / lo_sum, ghi / hi_sum) for _, tr, glo, ghi in entries)
    return WeightedEndpointList(left=left, right=right)


def eiasc(points: list, before: int, pick) -> float:
    """One endpoint of the center-of-sets reduction: grade `before` (1 for
    lower, 2 for upper) weights the points before the switch point, the
    other grade those after, and `pick` (min or max) keeps the extreme
    quotient.

    The classic early-termination stop assumes every entry's upper grade
    is at least its lower grade.  Independent normalization of the two
    grade lists can invert individual intervals, so the sweep visits every
    switch point incrementally (ties break toward the smaller one).  One
    point has no switch point and raises; the engine passes nine or more.
    """
    after = 3 - before
    a = sum(p[0] * p[after] for p in points)
    b = sum(p[after] for p in points)
    quotients = []
    for p in points[:-1]:
        a += p[0] * (p[before] - p[after])
        b += p[before] - p[after]
        if b > 0.0:
            quotients.append(a / b)
    if not quotients:
        raise NoEvidenceError("all grades are zero")
    return pick(quotients)


def type_reduce(endpoints: WeightedEndpointList) -> tuple:
    """Reduce the weighted endpoint lists to the trust interval [T_L, T_R]:
    the minimizing left end puts upper grades before the switch point, the
    maximizing right end lower grades."""
    return eiasc(endpoints.left, 2, min), eiasc(endpoints.right, 1, max)


class FuzzyTrustEngine:
    """Trust inference pipeline built from one FLC configuration.

    The antecedent sets, consequent triangles and label slots are shared by
    every engine built from an equal controller, and nothing edits them; the
    inference cache `_cache` is each engine's own.  The class keeps the
    tables of the last controller built, keyed on its marshal image (a
    controller's dicts can be edited in place), so a run of equal
    controllers, such as the configs of one sweep, checks and builds them
    once.  The image tells a bool from the 0 or 1 it equals, so a
    controller holding one is checked, and refused, like any other.  Any
    other controller is checked before its tables are built, so a refused
    one is never kept."""

    _last: tuple = (None, None)  # (image of the last controller built, its tables)

    def __init__(self, flc: FLCConfig | None = None):
        flc = flc if flc is not None else FLCConfig()
        try:
            image = marshal.dumps((flc.dfd_sets, flc.dfr_sets, flc.trust_sets,
                                   flc.dfr_bypass), 2)  # version 2 writes no shared refs
        except ValueError:  # a value marshal cannot write, which validate refuses
            image = None
        last, tables = FuzzyTrustEngine._last
        if image is None or image != last:
            flc.validate()
            key = copy.deepcopy(flc)
            dfd_sets, dfr_sets = (
                {label: IT2Set(PiecewiseLinearMF(spec["umf"]), PiecewiseLinearMF(spec["lmf"]))
                 for label, spec in sets.items()}
                for sets in (key.dfd_sets, key.dfr_sets))
            trust_sets = {label: T1TrustSet(*key.trust_sets[label])
                          for label in TRUST_LABELS}
            tables = (dfd_sets, dfr_sets, trust_sets,
                      *label_slots([trust_sets[label] for label in TRUST_LABELS]))
            FuzzyTrustEngine._last = image, tables
        self.flc = flc
        (self.dfd_sets, self.dfr_sets, self.trust_sets,
         self._label_bounds, self._label_slots) = tables
        self._cache: dict = {}

    def endpoint_list(self, dfd: float, dfr: float) -> WeightedEndpointList:
        """Weighted cut endpoints of the nine rules at one evidence pair.

        The lower entry of each symmetric consequent is cut at
        ``min(g_hi, g_lo * sum(g_hi) / sum(g_lo))``, the sums running over
        the nine rules (factor 1 when every lower grade is 0).  The type
        reducer sees the lower grades only after normalization, so scaling
        every lower firing grade by one common factor leaves the weights
        unchanged; cutting at the absolute `g_lo` would still narrow each
        symmetric cut around its peak, by amounts that move T_L and T_R
        unequally, and the trust would drift where only a lower membership
        grade moves (every fired upper grade on a plateau).  The rescaled
        cut is invariant under that common factor, lies between `g_lo` and
        `g_hi` (LMF <= UMF), and so is never narrower than the upper cut.
        Shoulder consequents keep the plain `g_lo` cut, which already moves
        the cut the way the rule pulls trust.
        """
        d = {label: s.membership(dfd) for label, s in self.dfd_sets.items()}
        r = {label: s.membership(dfr) for label, s in self.dfr_sets.items()}
        # product t-norm firing interval of each rule
        grades = [(d[d_label][0] * r[r_label][0], d[d_label][1] * r[r_label][1])
                  for d_label, r_label, _ in RULE_TABLE]
        lo_sum = sum(g_lo for g_lo, _ in grades)
        scale = sum(g_hi for _, g_hi in grades) / lo_sum if lo_sum > 0.0 else 1.0
        entries = []
        for (_, _, t_label), (g_lo, g_hi) in zip(RULE_TABLE, grades):
            entries.extend(consequent_entries(self.trust_sets[t_label],
                                              g_lo, g_hi, min(g_hi, g_lo * scale)))
        return build_endpoint_list(entries)

    def evaluate(self, dfd: float, dfr: float) -> float:
        """Scalar trust in [0,1] for one evidence pair."""
        if not 0.0 <= dfd <= 1.0 or not 0.0 <= dfr <= 1.0:
            raise ValueError("dfd and dfr must lie in [0,1]")
        if dfr < self.flc.dfr_bypass:
            return 0.0
        key = (dfd, dfr)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        t_l, t_r = type_reduce(self.endpoint_list(dfd, dfr))
        trust = 0.5 * (t_l + t_r)
        trust = min(1.0, max(0.0, trust))
        if len(self._cache) < 1 << 16:
            self._cache[key] = trust
        return trust

    def classify_trust(self, value: float) -> str:
        """Label of the consequent set with maximum membership at `value`;
        ties favor the lower-trust set.  One search of the engine's label
        slots (`label_slots`), then the first strict maximum of the slot's
        pieces."""
        best, pieces = self._label_slots[bisect_right(self._label_bounds, value)]
        best_grade = 0.0
        for label, zero, width in pieces:
            grade = (value - zero) / width
            if grade > best_grade:
                best, best_grade = label, grade
        return best
