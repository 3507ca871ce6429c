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
is read from a table of label intervals that each engine builds once from
its seven consequent triangles (`label_table`); only values within a
near-tie zone of two membership lines are classified by comparing the
memberships.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .config import FLCConfig, PiecewiseLinearMF, TRUST_LABELS

_FULL_FIRING = 1.0 - 1e-12


class NoEvidenceError(ValueError):
    """Raised when type reduction is attempted with all-zero grades."""


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


# Rounding bounds of the label table.  A grade is a quotient of two rounded
# differences, so it lies within 3.4e-16 of its exact value (grades are at
# most 1), and two computed grades order the way their exact values do
# once those differ by more than 6.8e-16.  `label_table` reads a difference
# interpolated from computed end values, itself within 9e-16 of the exact
# one, and falls back wherever that is at most _NEAR_TIE.
_NEAR_TIE = 8e-15
_ZONE_PAD = 2.0 ** -50  # widening of a computed zone end, relative to |ends|
_UNDERFLOW = 2.0 ** -1073  # a grade this small may round to 0


def _argmax(pieces: list, x: float) -> str:
    """The label the membership loop picks at `x` strictly inside the linear
    pieces `(index, a, c, b, rising)`, given in label order, where every
    other set's grade is 0."""
    best, best_g = 0, 0.0
    for i, a, c, b, rising in pieces:
        g = (x - a) / (c - a) if rising else (b - x) / (b - c)
        if g > best_g:
            best, best_g = i, g
    return TRUST_LABELS[best]


def label_table(sets: list) -> tuple:
    """Label intervals of the consequent triangles `sets`, (a, c, b) in
    `TRUST_LABELS` order, as `(bounds, labels)`: the label of a value `x` is
    ``labels[bisect_right(bounds, x)]``, or comparing the memberships
    decides where that is None.

    Every a, c and b is a cut and gets a one-value interval holding the
    label at that value.  Between two neighbouring cuts every set's grade
    is 0 or one linear piece, so the label changes only where two pieces
    cross.  For each pair of pieces the difference of their grades is
    interpolated from its values at the two cuts; where it is within
    _NEAR_TIE of 0 (around a crossing, and over a whole interval for pieces
    on one line or nearly parallel), and where a grade may underflow to 0
    next to its zero end, the interval holds None.  Every other interval
    holds the label of its first value.  Grades are computed by the
    expressions of `T1TrustSet.membership`, so each stored label is the one
    its loop gives.
    """
    inf, nextafter = math.inf, math.nextafter
    cuts = sorted({v for s in sets for v in s})
    at = {t: k for k, t in enumerate(cuts)}
    active = [[] for _ in cuts]  # pieces between cut k and cut k + 1
    for i, (a, c, b) in enumerate(sets):
        for k in range(at[a], at[c]):
            active[k].append((i, a, c, b, True))
        for k in range(at[c], at[b]):
            active[k].append((i, a, c, b, False))
    bounds, labels = [], [TRUST_LABELS[0]]  # below every support every grade is 0
    for k, t in enumerate(cuts):
        best, best_g = 0, 0.0
        for i, (a, c, b) in enumerate(sets):
            if a <= t <= b:
                g = 1.0 if t == c else (t - a) / (c - a) if t < c else (b - t) / (b - c)
                if g > best_g:
                    best, best_g = i, g
        bounds.append(t)
        labels.append(TRUST_LABELS[best])
        x = nextafter(t, inf)
        if k + 1 == len(cuts):
            bounds.append(x)
            labels.append(TRUST_LABELS[0])  # above every support every grade is 0
            break
        u = cuts[k + 1]
        if x >= u:
            continue
        pieces = active[k]
        zones = []
        for j, (_, a, c, b, rising) in enumerate(pieces):
            if rising:
                if a == t and t + _UNDERFLOW * (c - a) > t:
                    zones.append((t, t + _UNDERFLOW * (c - a)))
                g_t, g_u = (t - a) / (c - a), (u - a) / (c - a)
            else:
                if b == u and u - _UNDERFLOW * (b - c) < u:
                    zones.append((u - _UNDERFLOW * (b - c), u))
                g_t, g_u = (b - t) / (b - c), (b - u) / (b - c)
            for _, a2, c2, b2, rising2 in pieces[j + 1:]:
                if rising2:
                    d_t, d_u = g_t - (t - a2) / (c2 - a2), g_u - (u - a2) / (c2 - a2)
                else:
                    d_t, d_u = g_t - (b2 - t) / (b2 - c2), g_u - (b2 - u) / (b2 - c2)
                if d_t > _NEAR_TIE and d_u > _NEAR_TIE or d_t < -_NEAR_TIE and d_u < -_NEAR_TIE:
                    continue
                slope = d_u - d_t
                if slope == 0.0 or not math.isfinite(slope):
                    zones.append((t, u))
                    continue
                f1, f2 = sorted(((-_NEAR_TIE - d_t) / slope, (_NEAR_TIE - d_t) / slope))
                pad = _ZONE_PAD * (abs(t) + abs(u))
                zones.append((t + max(f1, 0.0) * (u - t) - pad,
                              t + min(f2, 1.0) * (u - t) + pad))
        # walk the zones in order; x is the first value not yet labelled
        zones.sort()
        for lo, hi in zones:
            lo, hi = nextafter(lo, -inf), nextafter(hi, inf)  # one more value each side
            if hi < x:
                continue
            if lo >= u:
                break
            if lo > x:
                bounds.append(x)
                labels.append(_argmax(pieces, x))
            if labels[-1] is not None:
                bounds.append(max(lo, x))
                labels.append(None)
            x = nextafter(hi, inf)
            if x >= u:
                break
        if x < u:
            bounds.append(x)
            labels.append(_argmax(pieces, x))
    return bounds, labels


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
    """Stateless trust inference pipeline built from one FLC configuration."""

    def __init__(self, flc: FLCConfig | None = None):
        flc = flc if flc is not None else FLCConfig()
        flc.validate()
        self.flc = flc
        self.dfd_sets, self.dfr_sets = (
            {label: IT2Set(PiecewiseLinearMF(tuple(spec["umf"])),
                           PiecewiseLinearMF(tuple(spec["lmf"])))
             for label, spec in sets.items()}
            for sets in (flc.dfd_sets, flc.dfr_sets))
        self.trust_sets = {label: T1TrustSet(*flc.trust_sets[label])
                           for label in TRUST_LABELS}
        self._cache: dict = {}
        self._label_bounds, self._labels = label_table(
            [tuple(flc.trust_sets[label]) for label in TRUST_LABELS])

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
        ties favor the lower-trust set.  Read from the engine's label table,
        except in its near-tie zones."""
        label = self._labels[bisect_right(self._label_bounds, value)]
        return label if label is not None else self._classify_by_membership(value)

    def _classify_by_membership(self, value: float) -> str:
        best_label = TRUST_LABELS[0]
        best_grade = -1.0
        for label in TRUST_LABELS:  # ascending trust order, strict > keeps ties low
            grade = self.trust_sets[label].membership(value)
            if grade > best_grade:
                best_grade = grade
                best_label = label
        return best_label
