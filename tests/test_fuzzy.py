"""Interval type-2 trust inference: membership, firing, type reduction and
trust classification."""
import copy
import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scfto.config import ConfigError, FLCConfig, SimConfig, TRUST_LABELS
from scfto.fuzzy import (
    FuzzyTrustEngine,
    NoEvidenceError,
    RULE_TABLE,
    T1TrustSet,
    build_endpoint_list,
    consequent_entries,
    type_reduce,
)
from scfto.network import init_network

from oracles import reference_classify_trust, reference_type_reduce


@pytest.fixture(scope="module")
def engine():
    return FuzzyTrustEngine()


# --- membership -----------------------------------------------------------

def test_antecedent_membership_is_an_interval(engine):
    lo, hi = engine.dfr_sets["medium"].membership(0.3)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_membership_interval_ordering_on_grid(engine):
    for sets in (engine.dfd_sets, engine.dfr_sets):
        for s in sets.values():
            for i in range(101):
                lo, hi = s.membership(i / 100)
                assert 0.0 <= lo <= hi <= 1.0


def test_lower_mf_along_the_upper_one_is_an_interval():
    # equal in exact arithmetic; the LMF's extra breakpoint makes its
    # interpolation round above the UMF at some points (x = 0.0009 is one)
    ramp = ((0.0, 0.0), (1.0, 1.0))
    flc = FLCConfig(dfd_high_umf=ramp, dfd_high_lmf=((0.0, 0.0), (0.3, 0.3), (1.0, 1.0)))
    high = FuzzyTrustEngine(flc).dfd_sets["high"]
    for i in range(10001):
        lo, hi = high.membership(i / 10000)
        assert lo <= hi == i / 10000


def test_trust_set_symmetry_classification(engine):
    assert not engine.trust_sets["complete_trust"].symmetric
    assert not engine.trust_sets["complete_distrust"].symmetric
    for label in ("trust", "medium_trust", "medium_distrust",
                  "distrust", "intense_distrust"):
        assert engine.trust_sets[label].symmetric


def test_engine_and_network_refuse_a_bad_controller():
    # `init_network` leaves the controller to the engine it builds; `good`
    # differs from `bad` in one value, and a refused controller is never kept
    bad = FLCConfig(trust_trust=(0.8, 0.6, 1.0))
    good = FLCConfig(trust_trust=(0.8, 0.8, 1.0))
    for build in (FuzzyTrustEngine, lambda flc: init_network(SimConfig(trust_flc=flc)).engine):
        assert build(good).trust_sets["trust"] == T1TrustSet(0.8, 0.8, 1.0)
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                build(bad)
            assert err.value.field == "flc_trust_trust"
        assert build(good).trust_sets["trust"] == T1TrustSet(0.8, 0.8, 1.0)


# --- tables shared per controller -------------------------------------------

def outputs(engine):
    """Every trust value, as hex, on a 41 x 41 evidence grid and every label
    on a 1001-point trust grid."""
    grid = [i / 40 for i in range(41)]
    return ([engine.evaluate(d, r).hex() for d in grid for r in grid],
            [engine.classify_trust(i / 1000) for i in range(1001)])


def test_one_controller_shares_tables_but_not_the_cache():
    flc = FLCConfig()
    first = FuzzyTrustEngine(flc)
    first.evaluate(0.3, 0.9)
    second = FuzzyTrustEngine(flc)
    for table in ("dfd_sets", "dfr_sets", "trust_sets", "_label_bounds", "_label_slots"):
        assert getattr(first, table) is getattr(second, table), table
    assert first._cache and second._cache == {}
    # an equal controller is another object, whose tables are built again
    copied = FuzzyTrustEngine(copy.deepcopy(flc))
    assert copied.trust_sets is not first.trust_sets
    assert outputs(copied) == outputs(first)


def test_a_controller_edited_in_place_builds_from_its_new_value():
    # a controller is frozen, so an edit is made as a replaced copy
    flc = FLCConfig()
    before = FuzzyTrustEngine(flc)
    with pytest.raises(FrozenInstanceError):
        flc.dfd_high_lmf = ((0.7, 0.0), (0.9, 1.0), (1.0, 1.0))
    assert flc == FLCConfig()
    flc = replace(flc, dfd_high_lmf=((0.7, 0.0), (0.9, 1.0), (1.0, 1.0)))
    after = FuzzyTrustEngine(flc)
    assert after.dfd_sets["high"].lmf.points == ((0.7, 0.0), (0.9, 1.0), (1.0, 1.0))
    assert after.evaluate(0.65, 0.9) != before.evaluate(0.65, 0.9)
    flc = replace(flc, trust_trust=(0.7, 0.75, 0.8))
    assert FuzzyTrustEngine(flc).classify_trust(0.75) == "trust"
    assert after.classify_trust(0.75) == "medium_trust"


def test_a_bool_is_not_taken_for_the_number_it_equals():
    # a bool compares equal to 0 or 1, but no manifest can replay it
    complete_trust = FLCConfig().trust_complete_trust
    for built, flc, key in [
        (FLCConfig(dfr_bypass=0.0), FLCConfig(dfr_bypass=False), "dfr_bypass"),
        (FLCConfig(), FLCConfig(trust_complete_trust=(*complete_trust[:2], True)),
         "flc_trust_complete_trust"),
    ]:
        assert flc == built
        FuzzyTrustEngine(built)
        with pytest.raises(ConfigError) as err:
            FuzzyTrustEngine(flc)
        assert err.value.field == key


def test_a_controller_value_no_file_can_hold_is_checked_each_time():
    # a refused controller is never kept, so each build checks it again
    for flc, key in [
        (FLCConfig(trust_complete_distrust=[0.0, 0.0, 1 / 6]), "flc_trust_complete_distrust"),
        (FLCConfig(dfd_low_umf=None), "flc_dfd_low_umf"),
        (FLCConfig(trust_distrust=(1 / 6, 1 / 3)), "flc_trust_distrust"),
        (FLCConfig(dfr_bypass=Fraction(1, 5)), "dfr_bypass"),
    ]:
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                FuzzyTrustEngine(flc)
            assert err.value.field == key


def test_a_shared_build_evaluates_and_classifies_as_a_fresh_one():
    flc, other = FLCConfig(), FLCConfig(dfr_bypass=0.3)
    FuzzyTrustEngine(other)
    fresh = FuzzyTrustEngine(flc)  # built, since the last controller differs
    expected = outputs(fresh)
    FuzzyTrustEngine(other)
    built = FuzzyTrustEngine(flc)
    shared = FuzzyTrustEngine(flc)
    assert fresh.trust_sets is not built.trust_sets is shared.trust_sets
    assert outputs(shared) == expected


# --- consequent cuts --------------------------------------------------------

def test_symmetric_consequent_half_level_cut():
    ts = T1TrustSet(a=0.5, c=2.0 / 3.0, b=5.0 / 6.0)  # medium trust
    entries = consequent_entries(ts, 0.5, 0.5, 0.5)
    assert len(entries) == 2
    for tl, tr, wlo, whi in entries:
        assert tl == pytest.approx(0.5833, abs=5e-5)
        assert tr == pytest.approx(0.75, abs=1e-12)
        assert (wlo, whi) == (0.25, 0.25)


def test_symmetric_consequent_full_firing_degenerates_to_peak():
    ts = T1TrustSet(a=0.5, c=2.0 / 3.0, b=5.0 / 6.0)  # medium trust
    entries = consequent_entries(ts, 1.0, 1.0, 1.0)
    assert entries == [(ts.c, ts.c, 1.0, 1.0)]


def test_shoulder_consequent_single_entry():
    ts = T1TrustSet(a=5.0 / 6.0, c=1.0, b=1.0)  # complete trust
    entries = consequent_entries(ts, 1.0, 1.0, 1.0)
    assert entries == [(1.0, 1.0, 1.0, 1.0)]


def test_endpoint_count_stays_in_paper_range(engine):
    for i in range(21):
        for j in range(21):
            dfr = j / 20
            if dfr < 0.2:
                continue
            left, right = engine.endpoint_list(i / 20, dfr)
            assert 9 <= len(left) <= 16
            assert len(left) == len(right)


def test_normalized_grades_sum_to_one(engine):
    for points in engine.endpoint_list(0.3, 0.6):
        assert sum(p[1] for p in points) == pytest.approx(1.0, abs=1e-12)
        assert sum(p[2] for p in points) == pytest.approx(1.0, abs=1e-12)


def test_all_zero_grades_rejected():
    with pytest.raises(NoEvidenceError):
        build_endpoint_list([(0.2, 0.4, 0.0, 0.0), (0.6, 0.8, 0.0, 0.0)])


# --- type reduction --------------------------------------------------------

def test_two_point_reduction_by_hand():
    # raw grades; only one switch point exists for l = 2
    points_l = [(0.2, 0.2, 0.9), (0.8, 0.4, 0.6)]
    points_r = [(0.2, 0.2, 0.9), (0.8, 0.4, 0.6)]
    t_l, t_r = type_reduce((points_l, points_r))
    assert t_l == pytest.approx((0.9 * 0.2 + 0.4 * 0.8) / (0.9 + 0.4), abs=1e-12)
    assert t_r == pytest.approx((0.2 * 0.2 + 0.6 * 0.8) / (0.2 + 0.6), abs=1e-12)


def test_equal_endpoints_reduce_to_that_value():
    pts = [(0.4, 0.1, 0.3)] * 5
    t_l, t_r = type_reduce((list(pts), list(pts)))
    assert t_l == pytest.approx(0.4)
    assert t_r == pytest.approx(0.4)


def test_single_weighted_entry_dominates():
    pts = sorted([(0.7, 0.5, 0.5), (0.1, 0.0, 0.0), (0.9, 0.0, 0.0)])
    t_l, t_r = type_reduce((pts, pts))
    assert t_l == pytest.approx(0.7)
    assert t_r == pytest.approx(0.7)


def test_reduction_matches_exhaustive_search_on_random_lists():
    rng = random.Random(123)
    for _ in range(300):
        l = rng.randint(9, 16)
        left = sorted((rng.random(), rng.random(), rng.random()) for _ in range(l))
        right = sorted((rng.random(), rng.random(), rng.random()) for _ in range(l))
        fast = type_reduce((left, right))
        slow = reference_type_reduce((left, right))
        assert fast[0] == pytest.approx(slow[0], abs=1e-9)
        assert fast[1] == pytest.approx(slow[1], abs=1e-9)


def test_reduction_interval_is_ordered(engine):
    for i in range(11):
        for j in range(4, 11):
            ep = engine.endpoint_list(i / 10, j / 10)
            t_l, t_r = type_reduce(ep)
            assert t_l <= t_r + 1e-12
            assert -1e-12 <= t_l and t_r <= 1.0 + 1e-12


# --- end-to-end evaluation --------------------------------------------------

def test_low_forwarding_rate_forces_zero_trust(engine):
    for dfd in (0.0, 0.3, 1.0):
        for dfr_milli in range(0, 200, 7):
            assert engine.evaluate(dfd, dfr_milli / 1000) == 0.0


def test_perfect_node_gets_full_trust(engine):
    assert engine.evaluate(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_worst_admissible_node_lands_in_bottom_band(engine):
    # always delayed, barely above the hard-zero rate: dominated by the
    # lowest consequent (golden value frozen from this implementation)
    v = engine.evaluate(1.0, 0.21)
    assert v <= 1.0 / 6.0
    assert v == pytest.approx(0.037589605734767, abs=1e-12)


def test_trust_flat_where_only_a_lower_grade_moves(engine):
    # at dfd = 0.6 and dfr in [0.8, 0.9] every fired upper grade sits on a
    # plateau and only the "high" dfr LMF ramps, scaling every lower firing
    # grade by one common factor; trust must not drift with it
    ref = engine.evaluate(0.6, 0.8)
    for k in range(1, 201):
        assert engine.evaluate(0.6, 0.8 + k * 0.0005) == pytest.approx(ref, abs=1e-12)


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(d=st.tuples(_unit, _unit), r=st.tuples(_unit, _unit))
def test_trust_monotone_at_random_points(engine, d, r):
    d_lo, d_hi = sorted(d)
    r_lo, r_hi = sorted(r)
    # nondecreasing in dfr, nonincreasing in dfd
    assert engine.evaluate(d_lo, r_lo) <= engine.evaluate(d_lo, r_hi) + 1e-12
    assert engine.evaluate(d_hi, r_lo) <= engine.evaluate(d_lo, r_lo) + 1e-12


def test_evaluation_bounds_on_grid(engine):
    for i in range(21):
        for j in range(21):
            v = engine.evaluate(i / 20, j / 20)
            assert 0.0 <= v <= 1.0


def test_rule_table_covers_all_antecedent_pairs():
    pairs = {(d, r) for d, r, _ in RULE_TABLE}
    assert pairs == {(d, r) for d in ("low", "medium", "high")
                     for r in ("low", "medium", "high")}


def with_triangles(sets: dict) -> FLCConfig:
    """The default controller with the consequent triangles `sets`, by label."""
    return FLCConfig(**{f"trust_{label}": triangle for label, triangle in sets.items()})


def test_classification_of_bracket_peaks_and_midpoints(engine):
    assert engine.classify_trust(0.0) == "complete_distrust"
    assert engine.classify_trust(0.25) == "distrust"
    assert engine.classify_trust(0.5) == "medium_distrust"
    assert engine.classify_trust(0.75) == "medium_trust"
    assert engine.classify_trust(1.0) == "complete_trust"


def test_classification_exact_tie_breaks_toward_lower_trust(engine):
    # midpoints where two neighbouring default sets grade exactly equal
    # (0.5 twice at 1/12, 0.49999999999999967 twice at 0.75)
    for x, lower, higher in ((1 / 12, "complete_distrust", "intense_distrust"),
                             (0.75, "medium_trust", "trust")):
        assert engine.trust_sets[lower].membership(x) == engine.trust_sets[higher].membership(x)
        assert engine.classify_trust(x) == lower
    # dyadic sets grade 0.5 twice at 0.375, with every other set at 0
    dyadic = FuzzyTrustEngine(FLCConfig(trust_distrust=(0.0, 0.25, 0.5),
                                        trust_medium_distrust=(0.25, 0.5, 0.75)))
    assert dyadic.trust_sets["distrust"].membership(0.375) == 0.5
    assert dyadic.trust_sets["medium_distrust"].membership(0.375) == 0.5
    assert dyadic.classify_trust(0.375) == "distrust"


def test_classification_next_to_a_grade_that_underflows():
    # (x - 0) / 2 rounds to 0 at the smallest subnormal x and not at the
    # next one, so the label there is the first set's, then the second's
    sets = {label: (5.0, 5.5, 6.0) for label in TRUST_LABELS}
    sets["intense_distrust"] = (0.0, 2.0, 3.0)
    engine = FuzzyTrustEngine(with_triangles(sets))
    tiny = math.nextafter(0.0, 1.0)
    assert engine.classify_trust(tiny) == "complete_distrust"
    assert engine.classify_trust(2 * tiny) == "intense_distrust"


def test_classification_at_cuts_one_ulp_apart():
    # corners at 0.3, u and the float after u: no float lies between two
    # neighbouring cuts, and each cut keeps the label at its own value
    u = math.nextafter(0.3, 1.0)
    sets = {**{label: getattr(FLCConfig(), f"trust_{label}") for label in TRUST_LABELS},
            "distrust": (0.1, 0.3, 0.5), "medium_distrust": (u, u, 0.6),
            "medium_trust": (0.2, math.nextafter(u, 1.0), 0.7)}
    engine = FuzzyTrustEngine(with_triangles(sets))
    for cut in sorted({v for s in sets.values() for v in s}):
        x = cut
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            assert engine.classify_trust(x) == reference_classify_trust(engine.trust_sets, x), x
            x = math.nextafter(x, math.inf)


_coord = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)


@st.composite
def awkward_trust_sets(draw):
    """Seven valid consequent triangles, drawn to stress the classifier's
    cuts and the exact comparison of the lines between them:
    degenerate sides, pieces on one line or a few ulps from it, tiny
    triangles, dyadic corners and supports outside [0,1]."""
    sets = []
    for _ in TRUST_LABELS:
        kind = draw(st.sampled_from(
            ("any", "degenerate", "tiny", "dyadic", "shared", "near_parallel")))
        if kind in ("shared", "near_parallel") and sets:
            a, c, b = draw(st.sampled_from(sets))
            if kind == "shared":  # keep one side's line, move the other end
                if draw(st.booleans()):
                    b = c + abs(draw(_coord))
                else:
                    a = c - abs(draw(_coord))
            else:  # tilt one side by a few ulps
                toward = math.inf if draw(st.booleans()) else -math.inf
                for _ in range(draw(st.integers(1, 3))):
                    c = math.nextafter(c, toward)
                a, b = min(a, c), max(b, c)
        elif kind == "degenerate":
            lo, hi = sorted((draw(_coord), draw(_coord)))
            a, c, b = draw(st.sampled_from(((lo, lo, hi), (lo, hi, hi), (lo, lo, lo))))
        elif kind == "tiny":
            a = draw(_coord)
            width = draw(st.floats(min_value=1e-15, max_value=1e-6))
            a, c, b = a, a + width * draw(st.floats(0.0, 1.0)), a + width
        elif kind == "dyadic":
            a, c, b = sorted(draw(st.integers(-8, 16)) / 8 for _ in range(3))
        else:
            a, c, b = sorted(draw(_coord) for _ in range(3))
        sets.append((a, c, b))
    return sets


def _crossings(sets):
    """Where the lines of every two sides meet."""
    lines = []  # (zero at, slope) of every side that has a width
    for a, c, b in sets:
        if a < c:
            lines.append((a, 1.0 / (c - a)))
        if c < b:
            lines.append((b, -1.0 / (b - c)))
    return [(z1 * k1 - z2 * k2) / (k1 - k2)
            for i, (z1, k1) in enumerate(lines) for z2, k2 in lines[i + 1:] if k1 != k2]


@settings(max_examples=300, deadline=None)
@given(sets=awkward_trust_sets(), uniform=st.lists(_coord, max_size=20))
def test_classification_matches_the_membership_argmax(sets, uniform):
    engine = FuzzyTrustEngine(with_triangles(dict(zip(TRUST_LABELS, sets))))
    xs = [0.0, 1.0, *uniform]
    for point in {v for s in sets for v in s} | set(_crossings(sets)):
        if math.isfinite(point):
            for toward in (-math.inf, math.inf):
                x = point
                for _ in range(3):
                    x = math.nextafter(x, toward)
                    xs.append(x)
            xs.append(point)
    for x in xs:
        assert engine.classify_trust(x) == reference_classify_trust(engine.trust_sets, x), x


def test_evaluation_is_cached_and_pure(engine):
    a = engine.evaluate(0.37, 0.81)
    b = engine.evaluate(0.37, 0.81)
    assert a == b
