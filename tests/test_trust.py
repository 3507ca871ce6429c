"""Trust tables: evidence counters, (dfr, dfd) ratios, direct-trust
inference, and recommendation merging."""
import pytest
from hypothesis import given, settings, strategies as st

from scfto import trust
from scfto.fuzzy import FuzzyTrustEngine, NoEvidenceError
from scfto.trust import (NO_EVIDENCE, EvidenceCounters, Outcome,
                         TrustTable, evidence, merge_recommendation, record_event,
                         update_direct_trust)


# ---------------------------------------------------------------- counters

def test_counter_trace():
    t = TrustTable(owner=0)
    for outcome in (Outcome.FORWARDED, Outcome.FORWARDED_DELAYED,
                    Outcome.DROPPED, Outcome.FORWARDED):
        record_event(t, 5, outcome)
    c = t.entry(5).counters
    assert (c.total_forwarding, c.successes, c.delayed) == (4, 3, 1)


def test_evidence_ratios():
    c = EvidenceCounters(total_forwarding=4, successes=3, delayed=1)
    dfr, dfd = evidence(c)
    assert dfr == pytest.approx(0.75)
    assert dfd == pytest.approx(1.0 / 3.0)


def test_evidence_no_observations_raises():
    with pytest.raises(NoEvidenceError):
        evidence(EvidenceCounters())


def test_evidence_zero_successes_has_zero_delay_ratio():
    c = EvidenceCounters(total_forwarding=5, successes=0, delayed=0)
    assert evidence(c) == (0.0, 0.0)


# ------------------------------------------------------------------ table

def test_table_rejects_self_entry():
    t = TrustTable(owner=7)
    with pytest.raises(ValueError):
        t.entry(7)


def test_table_entry_is_lazy_and_unknown():
    t = TrustTable(owner=0)
    ent = t.entry(3)
    assert ent.value is None
    assert t.entries == {3: ent}
    assert t.value_of(3) is None
    assert t.value_of(4) is None
    assert t.known_values() == []


def test_known_values_and_items():
    t = TrustTable(owner=0)
    t.entry(1).value = 0.5
    t.entry(2)  # stays Unknown
    t.entry(3).value = 0.9
    t.entry(4).value = 0.0  # Known, and distinct from Unknown
    assert sorted(t.known_values()) == [0.0, 0.5, 0.9]
    assert [t.value_of(k) for k in (1, 2, 3, 4)] == [0.5, None, 0.9, 0.0]


def test_record_event_accumulates():
    t = TrustTable(owner=0)
    record_event(t, 5, Outcome.FORWARDED)
    record_event(t, 5, Outcome.DROPPED)
    c = t.entry(5).counters
    assert (c.total_forwarding, c.successes, c.delayed) == (2, 1, 0)


@settings(max_examples=300, deadline=None)
@given(events=st.lists(st.tuples(st.integers(1, 8), st.sampled_from(Outcome)),
                       max_size=40),
       touched=st.lists(st.integers(1, 12), max_size=6),
       recommended=st.lists(st.integers(1, 12), max_size=6))
def test_record_event_folds_outcomes_and_shares_no_evidence(events, touched,
                                                            recommended):
    t = TrustTable(owner=0)
    for observed in touched:
        t.entry(observed)
    merge_recommendation(t, [(o, 0.5) for o in recommended], t_head=0.5)
    for observed, outcome in events:
        record_event(t, observed, outcome)
    for observed, ent in t.entries.items():
        seen = [outcome for o, outcome in events if o == observed]
        if seen:
            delayed = seen.count(Outcome.FORWARDED_DELAYED)
            assert type(ent.counters) is EvidenceCounters
            assert ent.counters == (len(seen), seen.count(Outcome.FORWARDED) + delayed,
                                    delayed)
            assert all(type(n) is int for n in ent.counters)  # trust.csv prints them
        else:  # made by entry() or a merge, never counted
            assert ent.counters is NO_EVIDENCE
    assert NO_EVIDENCE == (0, 0, 0)
    for ent in t.entries.values():
        with pytest.raises(AttributeError):
            ent.counters.total_forwarding = 1


@settings(max_examples=300, deadline=None)
@given(events=st.lists(st.tuples(st.integers(0, 3), st.integers(4, 9),
                                 st.sampled_from(Outcome)), max_size=80),
       cap=st.one_of(st.none(), st.integers(1, 6)))
def test_record_event_shares_one_record_per_triple(events, cap):
    # cap None keeps the module's table; a small cap starts from a fresh
    # table that fills after a few triples, so later records are unshared
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(trust, "_SHARED_COUNTERS", {(0, 0, 0): NO_EVIDENCE})
            mp.setattr(trust, "_SHARED_COUNTERS_CAP", cap)
        tables = [TrustTable(owner=owner) for owner in range(4)]
        expected = {}
        for owner, observed, outcome in events:
            record_event(tables[owner], observed, outcome)
            total, successes, delayed = expected.get((owner, observed), (0, 0, 0))
            expected[owner, observed] = (
                total + 1, successes + (outcome is not Outcome.DROPPED),
                delayed + (outcome is Outcome.FORWARDED_DELAYED))
        shared = trust._SHARED_COUNTERS
        if cap is not None:
            assert len(shared) <= cap
    by_triple = {}
    for t in tables:
        for observed, ent in t.entries.items():
            c = ent.counters
            assert type(c) is EvidenceCounters
            assert (c.total_forwarding, c.successes, c.delayed) == expected[t.owner, observed]
            by_triple.setdefault(tuple(c), set()).add(id(c))
    for triple, ids in by_triple.items():
        if triple in shared:
            assert ids == {id(shared[triple])}  # one record, however many entries
    if cap is None:
        assert set(by_triple) <= set(shared)


# ----------------------------------------------------------- direct trust

def test_update_direct_trust_perfect_forwarder():
    t = TrustTable(owner=0)
    engine = FuzzyTrustEngine()
    for _ in range(10):
        record_event(t, 2, Outcome.FORWARDED)
    v = update_direct_trust(t, engine, head=2)
    assert v == 1.0
    assert t.entry(2).value == 1.0


def test_update_direct_trust_dropper_is_zero():
    t = TrustTable(owner=0)
    engine = FuzzyTrustEngine()
    for _ in range(10):
        record_event(t, 2, Outcome.DROPPED)
    assert update_direct_trust(t, engine, head=2) == 0.0


def test_update_direct_trust_without_observation_keeps_the_value():
    # a head that died before forwarding leaves an entry, Unknown or not
    t = TrustTable(owner=0)
    engine = FuzzyTrustEngine()
    assert update_direct_trust(t, engine, head=2) is None
    assert 2 in t.entries and t.entry(2).counters is NO_EVIDENCE
    t.entry(3).value = 0.4  # e.g. set by a recommendation merge
    assert update_direct_trust(t, engine, head=3) == 0.4


# --------------------------------------------------------------- merging

def test_merge_known_branch_weighted_average():
    # prior 0.6, head trusted 0.5, recommending 0.9:
    # (0.6 + 0.5*0.9) / (1 + 0.5) = 0.7
    t = TrustTable(owner=0)
    t.entry(9).value = 0.6
    assert merge_recommendation(t, [(9, 0.9)], t_head=0.5)
    assert t.entry(9).value == pytest.approx(0.7)


def test_merge_unknown_branch_product():
    t = TrustTable(owner=0)
    assert merge_recommendation(t, [(9, 0.5)], t_head=0.8)
    assert t.entry(9).value == pytest.approx(0.4)


def test_merge_zero_prior_uses_product_branch():
    t = TrustTable(owner=0)
    t.entry(9).value = 0.0
    merge_recommendation(t, [(9, 0.5)], t_head=0.8)
    assert t.entry(9).value == pytest.approx(0.4)


def test_merge_skipped_for_unknown_or_distrusted_head():
    t = TrustTable(owner=0)
    assert not merge_recommendation(t, [(9, 0.9)], t_head=None)
    assert not merge_recommendation(t, [(9, 0.9)], t_head=0.0)
    assert 9 not in t.entries


def test_merge_fixed_point_when_opinions_agree():
    # if prior == recommendation == v, the merge leaves v unchanged:
    # (v + T*v) / (1 + T) == v for any head trust T.
    t = TrustTable(owner=0)
    for v in (0.25, 0.5, 1.0):
        t.entry(9).value = v
        merge_recommendation(t, [(9, v)], t_head=0.7)
        assert t.entry(9).value == pytest.approx(v)


def test_merge_stays_in_unit_interval():
    t = TrustTable(owner=0)
    for prior in (None, 0.0, 0.1, 0.9, 1.0):
        for t_head in (0.1, 0.5, 1.0):
            for rec in (0.0, 0.5, 1.0):
                t.entries.pop(9, None)
                if prior is not None:
                    t.entry(9).value = prior
                merge_recommendation(t, [(9, rec)], t_head=t_head)
                assert 0.0 <= t.entry(9).value <= 1.0


def test_merge_pulls_toward_recommendation():
    # merged value lies strictly between prior and recommendation when
    # they differ and the prior is positive.
    t = TrustTable(owner=0)
    t.entry(9).value = 0.9
    merge_recommendation(t, [(9, 0.1)], t_head=1.0)
    assert 0.1 < t.entry(9).value < 0.9
    assert t.entry(9).value == pytest.approx(0.5)


def fold_one_by_one(priors: dict, recommendations, owner, t_head) -> dict:
    """The fan-out written item by item with the single-merge formula."""
    out = dict(priors)
    for observed, t_rec in recommendations:
        if observed == owner:
            continue
        prior = out.get(observed)
        if prior is not None and prior > 0.0:
            out[observed] = (prior + t_head * t_rec) / (1.0 + t_head)
        else:
            out[observed] = t_head * t_rec
    return out


_trust = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(priors=st.dictionaries(st.integers(0, 8), st.one_of(st.none(), _trust),
                              max_size=9),
       recommendations=st.lists(st.tuples(st.integers(0, 8), _trust), max_size=12),
       t_head=st.one_of(st.none(), st.just(0.0), _trust))
def test_merge_fans_out_like_single_merges(priors, recommendations, t_head):
    owner = 0
    t = TrustTable(owner=owner)
    for observed, value in priors.items():
        if observed != owner:
            t.entry(observed).value = value
    before = {k: e.value for k, e in t.entries.items()}
    applied = merge_recommendation(t, recommendations, t_head)
    after = {k: e.value for k, e in t.entries.items()}
    if t_head is None or t_head == 0.0:
        assert applied is False
        assert after == before  # no entry created or moved
        return
    assert applied is True
    assert owner not in t.entries  # recommendations about the owner are skipped
    # bit-for-bit what folding the items one at a time gives
    assert after == fold_one_by_one(before, recommendations, owner, t_head)
    assert all(v is None or 0.0 <= v <= 1.0 for v in after.values())


@st.composite
def recommendation_lists(draw):
    """A head's recommendation list (each observed id once) and a shuffle."""
    observed = draw(st.lists(st.integers(0, 8), unique=True, max_size=9))
    items = [(o, draw(_trust)) for o in observed]
    return items, draw(st.permutations(items))


@settings(max_examples=300, deadline=None)
@given(priors=st.dictionaries(st.integers(1, 8), st.one_of(st.none(), _trust),
                              max_size=8),
       lists=recommendation_lists(),
       t_head=_trust)
def test_merge_does_not_depend_on_recommendation_order(priors, lists, t_head):
    items, shuffled = lists
    tables = []
    for recommendations in (items, shuffled):
        t = TrustTable(owner=0)
        for observed, value in priors.items():
            t.entry(observed).value = value
            record_event(t, observed, Outcome.FORWARDED)
        merge_recommendation(t, recommendations, t_head)
        tables.append(t)
    assert tables[0].entries == tables[1].entries
