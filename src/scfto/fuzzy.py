"""Interval type-2 fuzzy trust inference.

Maps an evidence pair (delay ratio, forwarding rate) to a scalar trust value
through interval membership, product-rule firing, alpha-cut consequents,
center-of-sets type reduction via the EIASC switch-point iteration, and
midpoint defuzzification.  A forwarding rate below the bypass threshold
short-circuits to trust 0.  The lower alpha-cut of each symmetric
consequent is taken in the normalization the type reducer's weights use,
which keeps the trust surface monotone (nonincreasing in the delay ratio,
nondecreasing in the forwarding rate); see `FuzzyTrustEngine.endpoint_list`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import FLCConfig, TRUST_LABELS

_FULL_FIRING = 1.0 - 1e-12


class NoEvidenceError(ValueError):
    """Raised when type reduction is attempted with all-zero grades."""


@dataclass(frozen=True)
class PiecewiseLinearMF:
    """Membership function given as sorted (x, grade) breakpoints.

    Outside the breakpoint span the function continues the edge grade,
    which is 0 unless the set has a shoulder plateau at the domain edge.
    """

    points: tuple

    def __call__(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (x0, g0), (x1, g1) in zip(pts, pts[1:]):
            if x <= x1:
                return g0 + (g1 - g0) * (x - x0) / (x1 - x0)
        return pts[-1][1]


@dataclass(frozen=True)
class IT2Set:
    name: str
    umf: PiecewiseLinearMF
    lmf: PiecewiseLinearMF

    def membership(self, x: float) -> tuple:
        """Grade interval [lower, upper] at x."""
        lo, hi = self.lmf(x), self.umf(x)
        if lo > hi:
            raise ValueError(f"{self.name}: LMF exceeds UMF at x={x}")
        return lo, hi


@dataclass(frozen=True)
class T1TrustSet:
    """Triangular consequent set with support [a, b] and peak c."""

    name: str
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


@dataclass(frozen=True)
class TrustRule:
    dfd_label: str
    dfr_label: str
    trust_label: str


# antecedent pairs for the nine inference rules (the bypass rule is separate)
RULE_TABLE = (
    TrustRule("low", "high", "complete_trust"),
    TrustRule("medium", "high", "trust"),
    TrustRule("high", "high", "medium_trust"),
    TrustRule("low", "medium", "medium_trust"),
    TrustRule("medium", "medium", "medium_distrust"),
    TrustRule("high", "medium", "distrust"),
    TrustRule("low", "low", "distrust"),
    TrustRule("medium", "low", "intense_distrust"),
    TrustRule("high", "low", "complete_distrust"),
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


def fire_rule(dfd_interval: tuple, dfr_interval: tuple) -> tuple:
    """Product t-norm firing interval from the two antecedent intervals."""
    return dfd_interval[0] * dfr_interval[0], dfd_interval[1] * dfr_interval[1]


def consequent_entries(trust_set: T1TrustSet, g_lo: float, g_hi: float,
                       cut_lo: float | None = None) -> list:
    """Alpha-cut output interval(s) for one fired rule.

    Shoulder consequents give one interval cut at the lower firing grade
    `g_lo`.  Symmetric consequents split into two intervals, cut at
    `cut_lo` and at the upper grade, each carrying half the firing weight,
    unless `cut_lo` is already 1 (degenerate peak cut).  `cut_lo` defaults
    to `g_lo`; `FuzzyTrustEngine.endpoint_list` passes the lower grade
    rescaled into the upper grades' normalization (see there).  Entries are
    (t_left, t_right, weight_lo, weight_hi) and are emitted even for zero
    firing so the endpoint count stays input-independent.
    """
    if not trust_set.symmetric:
        tl, tr = trust_set.alpha_cut(g_lo)
        return [(tl, tr, g_lo, g_hi)]
    if cut_lo is None:
        cut_lo = g_lo
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
    switch point incrementally (ties break toward the smaller one).
    """
    after = 3 - before
    if len(points) == 1:
        x, lo, hi = points[0]
        if lo + hi <= 0.0:
            raise NoEvidenceError("all grades are zero")
        return x
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


def reference_type_reduce(endpoints: WeightedEndpointList) -> tuple:
    """Exhaustive switch-point search; the independent oracle for EIASC."""
    def quotients(points, prefix_idx, suffix_idx):
        n = len(points)
        values = []
        for m in range(1, n):
            num = sum(points[u][0] * points[u][prefix_idx] for u in range(m))
            num += sum(points[u][0] * points[u][suffix_idx] for u in range(m, n))
            den = sum(points[u][prefix_idx] for u in range(m))
            den += sum(points[u][suffix_idx] for u in range(m, n))
            if den > 0.0:
                values.append(num / den)
        if not values:
            raise NoEvidenceError("all grades are zero")
        return values

    # left end: upper grades before the switch; right end: lower grades first
    return (min(quotients(endpoints.left, 2, 1)),
            max(quotients(endpoints.right, 1, 2)))


class FuzzyTrustEngine:
    """Stateless trust inference pipeline built from one FLC configuration."""

    def __init__(self, flc: FLCConfig | None = None):
        flc = flc if flc is not None else FLCConfig()
        flc.validate()
        self.flc = flc
        self.dfd_sets = {label: _build_it2(label, spec)
                         for label, spec in flc.dfd_sets.items()}
        self.dfr_sets = {label: _build_it2(label, spec)
                         for label, spec in flc.dfr_sets.items()}
        self.trust_sets = {label: T1TrustSet(label, *flc.trust_sets[label])
                           for label in TRUST_LABELS}
        self._check_fou()
        self._cache: dict = {}

    def _check_fou(self) -> None:
        # LMF must stay below UMF everywhere (1e-3 grid)
        for sets in (self.dfd_sets, self.dfr_sets):
            for s in sets.values():
                for i in range(1001):
                    s.membership(i / 1000.0)

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
        grades = []
        for rule in RULE_TABLE:
            interval_d = self.dfd_sets[rule.dfd_label].membership(dfd)
            interval_r = self.dfr_sets[rule.dfr_label].membership(dfr)
            grades.append(fire_rule(interval_d, interval_r))
        lo_sum = sum(g_lo for g_lo, _ in grades)
        scale = sum(g_hi for _, g_hi in grades) / lo_sum if lo_sum > 0.0 else 1.0
        entries = []
        for rule, (g_lo, g_hi) in zip(RULE_TABLE, grades):
            entries.extend(consequent_entries(self.trust_sets[rule.trust_label],
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
        ties favor the lower-trust set."""
        best_label = TRUST_LABELS[0]
        best_grade = -1.0
        for label in TRUST_LABELS:  # ascending trust order, strict > keeps ties low
            grade = self.trust_sets[label].membership(value)
            if grade > best_grade:
                best_grade = grade
                best_label = label
        return best_label


def _build_it2(label: str, spec: dict) -> IT2Set:
    return IT2Set(name=label,
                  umf=PiecewiseLinearMF(tuple(spec["umf"])),
                  lmf=PiecewiseLinearMF(tuple(spec["lmf"])))
