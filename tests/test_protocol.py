"""Protocol engine: election, head choice, attack behavior, overhearing,
recommendation policy, and whole-round invariants."""
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from scfto import protocol
from scfto.config import AttackParams, ChannelEffects, JoinParams, SimConfig
from scfto.network import NodeState, SimState, init_network
from scfto.outlier import ConvergenceTracker
from scfto.phy import ChannelState
from scfto.rng import StreamFactory
from scfto.protocol import (VOUCH_LEVEL, VOUCH_MIN_EVIDENCE, choose_head,
                            election_probability, head_action,
                            observe_forwarding, recommendation_items,
                            rotation_eligible, rotation_floor, run_round,
                            should_elect)
from scfto.trust import EvidenceCounters, Outcome, TrustTable

from oracles import (election_params, energy_ledger_error, reference_choose_head,
                     reference_election_probability)


class StubRng:
    """random.Random stand-in feeding scripted uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class StubStreams:
    """StreamFactory stand-in whose every stream is one StubRng; it records
    the key of each stream opened."""

    def __init__(self, draws):
        self.rng = StubRng(draws)
        self.opened = []

    def stream(self, subsystem, node=-1, round_idx=-1):
        self.opened.append((subsystem, node, round_idx))
        return self.rng


def small_state(n=10, seed=1, **kw):
    cfg = SimConfig(node_count=n, rounds=10, seed=seed, **kw)
    return init_network(cfg)


# ---------------------------------------------------------------- election

def test_leach_threshold_formula():
    state = small_state()
    node = state.nodes[0]
    node.rounds_since_head = None  # eligible
    p = node.p_ch
    r = 5
    threshold = p / (1.0 - p * math.fmod(r, 1.0 / p))
    eps = 1e-12
    assert should_elect(node, r, StubStreams([threshold - eps]))
    assert not should_elect(node, r, StubStreams([threshold + eps]))


def test_rotation_window_blocks_recent_heads():
    state = small_state()
    node = state.nodes[0]
    window = math.ceil(1.0 / node.p_ch)
    node.rounds_since_head = window - 1
    assert not rotation_eligible(node)
    streams = StubStreams([0.0])
    assert not should_elect(node, 0, streams)
    assert streams.opened == []  # no stream for an ineligible node
    node.rounds_since_head = window
    assert rotation_eligible(node)


def test_never_head_is_always_eligible():
    state = small_state()
    node = state.nodes[0]
    node.rounds_since_head = None
    assert rotation_eligible(node)


def test_election_probability_no_history_is_p0():
    state = small_state()
    node = state.nodes[0]
    node.head_history = []
    assert election_probability(node, state) == state.config.election.p0_init


def test_election_probability_trust_brackets():
    state = small_state()
    params = state.config.election
    node = state.nodes[0]
    node.e_max = node.e_min = None  # energy term collapses to 1
    for avg, expected in ((1.0, params.p_ct), (0.75, params.p_mt),
                          (0.0, params.p_dt)):
        node.head_history = [avg]
        assert election_probability(node, state) == pytest.approx(expected)


def test_election_probability_energy_deficit_scales_down():
    state = small_state()
    params = state.config.election
    node = state.nodes[0]
    node.head_history = [1.0]
    node.e_max, node.e_min = 0.10, 0.05
    node.energy_j = 0.05  # full deficit
    assert election_probability(node, state) == pytest.approx(
        (1.0 - params.eta) * params.p_ct)
    node.energy_j = 0.10  # no deficit
    assert election_probability(node, state) == pytest.approx(params.p_ct)


def test_election_probability_equal_extremes_no_penalty():
    state = small_state()
    node = state.nodes[0]
    node.head_history = [1.0]
    node.e_max = node.e_min = 0.08
    node.energy_j = 0.01
    assert election_probability(node, state) == pytest.approx(
        state.config.election.p_ct)


_share = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# the set boundaries and the exact ties between neighbouring sets
_history_value = st.one_of(_share, st.sampled_from(
    [0.0, 1.0, 1 / 12, 1 / 6, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 5 / 6]))
_energy = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(history=st.lists(_history_value, max_size=4),
       extremes=st.one_of(st.none(), st.tuples(_energy, _energy)), energy=_energy)
def test_election_probability_matches_the_reference(history, extremes, energy):
    state = small_state()
    node = state.nodes[0]
    node.head_history = history
    node.e_max, node.e_min = (None, None) if extremes is None else sorted(extremes, reverse=True)
    node.energy_j = energy
    assert election_probability(node, state) == reference_election_probability(node, state)


@settings(max_examples=300, deadline=None)
@given(history=st.lists(_history_value, min_size=1, max_size=4),
       rises=st.lists(_share, min_size=4, max_size=4),
       extremes=st.tuples(_energy, _energy), energies=st.tuples(_energy, _energy))
def test_more_energy_or_less_trust_never_lowers_the_election_probability(
        history, rises, extremes, energies):
    # the abstract: "a normal sensor node with more residual energy or less
    # confidence on other nodes has higher probability to be the cluster head"
    state = small_state()
    node = state.nodes[0]
    node.e_max, node.e_min = sorted(extremes, reverse=True)

    def p(history, energy):
        node.head_history, node.energy_j = history, energy
        return election_probability(node, state)

    low, high = sorted(energies)
    assert p(history, low) <= p(history, high)
    trusted = [min(1.0, h + r) for h, r in zip(history, rises)]
    for energy in energies:
        assert p(trusted, energy) <= p(history, energy)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), rounds=st.integers(1, 60), seed=st.integers(0, 2**32),
       fraction=st.sampled_from((0.0, 0.3, 1.0)), election=election_params())
def test_rotation_floor_is_exact(n, rounds, seed, fraction, election):
    # before every round, eligibility on the stored `p_ch` equals the eager
    # rule on a freshly computed probability, no node inside the floor is
    # eligible, and wherever the rule lets a node stand, the `p_ch` it reads
    # is that probability
    config = SimConfig(node_count=n, rounds=rounds, seed=seed,
                       malicious_fraction=fraction, election=election)
    state = init_network(config)
    floor = rotation_floor(election)
    for r in range(rounds):
        for node in state.alive_nodes():
            p = (election.p0_init if node.malicious
                 else reference_election_probability(node, state))
            eager = (node.rounds_since_head is None
                     or node.rounds_since_head >= math.ceil(1.0 / p))
            assert rotation_eligible(node) == eager
            if node.rounds_since_head is not None and node.rounds_since_head < floor:
                assert not eager
            if eager:
                assert node.p_ch == p
        run_round(state, r)


# -------------------------------------------------------------- choose_head

def heads_by_distance(state, node):
    return sorted((h for h in range(len(state.nodes)) if h != node.id),
                  key=lambda h: state.distance(node.id, h))


def candidates(state, heads):
    """`choose_head`'s head ids in ascending order and their positions."""
    heads = sorted(heads)
    return heads, [state.nodes[h].position for h in heads]


def test_choose_head_preconvergence_unknown_first():
    state = small_state()
    node = state.nodes[0]
    ranked = heads_by_distance(state, node)[: state.config.join.n_nch]
    # give the nearest candidate a Known value; second-nearest stays Unknown
    node.trust.entry(ranked[0]).value = 1.0
    assert choose_head(node, *candidates(state, ranked), state) == ranked[1]


def test_choose_head_preconvergence_best_known():
    state = small_state()
    node = state.nodes[0]
    ranked = heads_by_distance(state, node)[: state.config.join.n_nch]
    for i, h in enumerate(ranked):
        node.trust.entry(h).value = 0.2 + 0.1 * i
    assert choose_head(node, *candidates(state, ranked), state) == ranked[-1]


def test_choose_head_preconvergence_tie_goes_to_the_nearer():
    state = small_state()
    node = state.nodes[0]
    assert state.config.join.n_nch == 2
    # a nearer head with the higher id, so the id order puts it second
    near, far = next((a, b) for a, b in combinations(heads_by_distance(state, node), 2)
                     if a > b)
    for h in (near, far):
        node.trust.entry(h).value = 0.7
    assert choose_head(node, *candidates(state, [near, far]), state) == near


def test_choose_head_no_candidates_returns_none():
    state = small_state()
    node = state.nodes[0]
    assert choose_head(node, [], [], state) is None


def test_choose_head_postconvergence_threshold():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.8
    ranked = heads_by_distance(state, node)[:3]
    node.trust.entry(ranked[0]).value = 0.5   # below threshold
    node.trust.entry(ranked[1]).value = 0.85  # first acceptable
    node.trust.entry(ranked[2]).value = 0.99
    assert choose_head(node, *candidates(state, ranked), state) == ranked[1]


def test_choose_head_postconvergence_falls_back_to_unknown():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.8
    ranked = heads_by_distance(state, node)[:2]
    node.trust.entry(ranked[0]).value = 0.5  # below threshold
    # ranked[1] Unknown -> explored
    assert choose_head(node, *candidates(state, ranked), state) == ranked[1]


def test_choose_head_postconvergence_all_bad_returns_none():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.9
    ranked = heads_by_distance(state, node)[:2]
    for h in ranked:
        node.trust.entry(h).value = 0.1
    assert choose_head(node, *candidates(state, ranked), state) is None


def converged_node(state, t_th):
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = t_th
    return node


def test_choose_head_converged_with_no_acceptable_head_measures_no_distance():
    state = small_state()
    node = converged_node(state, 0.8)
    heads = sorted(heads_by_distance(state, node)[:5])
    for i, h in enumerate(heads):
        node.trust.entry(h).value = 0.79 - 0.1 * i  # Known, below the threshold
    nowhere = [None] * len(heads)  # any distance would raise
    assert choose_head(node, heads, nowhere, state) is None


@pytest.mark.parametrize("far_value", [0.9, None])
def test_choose_head_converged_ignores_an_acceptable_head_beyond_the_nearest(far_value):
    state = small_state()
    node = converged_node(state, 0.8)
    assert state.config.join.n_nch == 2
    ranked = heads_by_distance(state, node)[:4]
    for h in ranked[:2] + ranked[3:]:
        node.trust.entry(h).value = 0.5
    node.trust.entry(ranked[2]).value = far_value  # third nearest: acceptable
    args = (node, *candidates(state, ranked), state)
    assert choose_head(*args) is reference_choose_head(*args) is None


def test_choose_head_converged_explores_the_farthest_head_when_it_is_unknown():
    state = small_state(join=JoinParams(n_nch=3))
    node = converged_node(state, 0.8)
    ranked = heads_by_distance(state, node)[:3]
    node.trust.entry(ranked[0]).value = 0.5
    node.trust.entry(ranked[1]).value = 0.7
    args = (node, *candidates(state, ranked), state)
    assert choose_head(*args) == reference_choose_head(*args) == ranked[2]


_levels = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0))


@st.composite
def head_fields(draw):
    """A node position and up to 40 heads in ascending id order with their
    positions.  Coordinates are integers and the heads sit on a few offsets
    from the node with random signs, so distances often tie exactly."""
    x0, y0 = draw(st.integers(0, 100)), draw(st.integers(0, 100))
    heads = sorted(draw(st.sets(st.integers(1, 400), max_size=40)))
    offsets = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                            min_size=1, max_size=4))
    sign = st.sampled_from((1, -1))
    positions = []
    for _ in heads:
        dx, dy = draw(st.sampled_from(offsets))
        positions.append((float(x0 + draw(sign) * dx), float(y0 + draw(sign) * dy)))
    return (float(x0), float(y0)), heads, positions


@settings(max_examples=300, deadline=None)
@given(field=head_fields(), data=st.data())
def test_choose_head_matches_the_sort_based_reference(field, data):
    position, heads, positions = field
    n_nch = data.draw(st.integers(1, len(heads) + 2))
    state = SimState(SimConfig(join=JoinParams(n_nch=n_nch)), [])
    node = NodeState(id=0, position=position, energy_j=1.0, trust=TrustTable(0),
                     tracker=ConvergenceTracker())
    node.tracker.converged = data.draw(st.booleans())
    node.tracker.last_t_th = t_th = data.draw(_levels)
    # every head Known and below the threshold: a converged node ranks none
    below = t_th > 0.0 and data.draw(st.booleans())
    for h in heads:
        if below:
            value = data.draw(st.floats(0.0, t_th, exclude_max=True))
        else:
            value = data.draw(st.one_of(st.none(), _levels))  # None is Unknown
        if value is not None or data.draw(st.booleans()):  # with or without an entry
            node.trust.entry(h).value = value
    assert (choose_head(node, heads, positions, state)
            == reference_choose_head(node, heads, positions, state))


# -------------------------------------------------------------- head_action

def test_normal_head_always_forwards():
    state = small_state()
    node = state.nodes[0]
    node.tier = 0
    assert head_action(node, StubRng([]), state.config) == (Outcome.FORWARDED, 0.0)


def test_malicious_head_drop_and_delay_branches():
    state = small_state()
    cfg = state.config
    node = state.nodes[0]
    node.tier = 2
    p_drop = 2 * cfg.attack.p_sf
    eps = 1e-12
    assert head_action(node, StubRng([p_drop - eps]), cfg) == (Outcome.DROPPED, 0.0)
    # survive the drop draw, then hit the conditional delay branch
    fate, delay_s = head_action(node, StubRng([p_drop + eps, 0.0, 0.5]), cfg)
    assert fate is Outcome.FORWARDED_DELAYED
    assert delay_s == pytest.approx(0.5 * cfg.radio.d_m_s)
    assert head_action(node, StubRng([p_drop + eps, 1.0 - eps]), cfg) == (
        Outcome.FORWARDED, 0.0)


def test_unconditional_attack_rates_match_tier():
    # empirical Drop/Delay frequencies over many scripted-free draws must
    # match k*p_sf and k*p_df (the delay branch is conditioned on no drop).
    import random
    state = small_state()
    cfg = state.config
    node = state.nodes[0]
    rng = random.Random(99)
    for k in (1, 2, 3):
        node.tier = k
        n = 200_000
        drops = delays = 0
        for _ in range(n):
            fate, _ = head_action(node, rng, cfg)
            drops += fate is Outcome.DROPPED
            delays += fate is Outcome.FORWARDED_DELAYED
        assert drops / n == pytest.approx(k * cfg.attack.p_sf, abs=0.005)
        assert delays / n == pytest.approx(k * cfg.attack.p_df, abs=0.005)


# ------------------------------------------------------- observe_forwarding

def test_observe_drop_is_timeout():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    out = observe_forwarding((Outcome.DROPPED, 0.0), ChannelState.GOOD,
                             StubRng([]), cfg)
    assert out == (Outcome.DROPPED, cfg.radio.d_m_s, False)


def test_observe_forward_good_channel():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    out = observe_forwarding((Outcome.FORWARDED, 0.0), ChannelState.GOOD,
                             StubRng([]), cfg)
    assert out == (Outcome.FORWARDED, 0.0, True)


def test_observe_forward_bad_channel_branches():
    # p_cd and p_no differ, so a draw compared with the other one is seen
    cfg = SimConfig(node_count=10, rounds=1, seed=1,
                    effects=ChannelEffects(p_cd=0.6, p_no=0.2))
    p_no, p_cd = cfg.effects.p_no, cfg.effects.p_cd
    eps = 1e-12
    fwd = (Outcome.FORWARDED, 0.0)
    # retransmission missed entirely
    assert observe_forwarding(fwd, ChannelState.BAD, StubRng([p_no - eps]),
                              cfg) == (Outcome.DROPPED, cfg.radio.d_m_s, False)
    # captured but classified as delayed
    assert observe_forwarding(fwd, ChannelState.BAD,
                              StubRng([p_no + eps, p_cd - eps]), cfg) == (
        Outcome.FORWARDED_DELAYED, cfg.retransmit_interval_s, True)
    # captured on time
    assert observe_forwarding(fwd, ChannelState.BAD,
                              StubRng([p_no + eps, p_cd + eps]), cfg) == (
        Outcome.FORWARDED, cfg.retransmit_interval_s, True)


def test_observe_deliberate_delay():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    act = (Outcome.FORWARDED_DELAYED, 0.003)
    assert observe_forwarding(act, ChannelState.GOOD, StubRng([]), cfg) == (
        Outcome.FORWARDED_DELAYED, 0.003, True)
    # bad channel can still lose the delayed packet
    p_no = cfg.effects.p_no
    assert observe_forwarding(act, ChannelState.BAD, StubRng([p_no - 1e-12]),
                              cfg)[0] is Outcome.DROPPED


# ---------------------------------------------------------- recommendations

def test_recommendations_require_direct_evidence():
    state = small_state()
    head = state.nodes[0]
    head.trust.entry(1).value = 0.5  # merge-derived: no counters
    ent = head.trust.entry(2)
    ent.value = 0.5
    ent.counters = EvidenceCounters(total_forwarding=1)
    assert recommendation_items(head) == [(2, 0.5)]


def test_recommendations_vouch_gate():
    state = small_state()
    head = state.nodes[0]
    thin = head.trust.entry(1)
    thin.value = VOUCH_LEVEL
    thin.counters = EvidenceCounters(total_forwarding=VOUCH_MIN_EVIDENCE - 1)
    thick = head.trust.entry(2)
    thick.value = VOUCH_LEVEL
    thick.counters = EvidenceCounters(total_forwarding=VOUCH_MIN_EVIDENCE)
    low = head.trust.entry(3)
    low.value = VOUCH_LEVEL - 0.01  # below the gate, thin evidence is fine
    low.counters = EvidenceCounters(total_forwarding=1)
    assert recommendation_items(head) == [(2, VOUCH_LEVEL),
                                          (3, VOUCH_LEVEL - 0.01)]


def test_recommendations_reject_out_of_range_trust():
    state = small_state()
    head = state.nodes[0]
    ent = head.trust.entry(1)
    ent.counters = EvidenceCounters(total_forwarding=VOUCH_MIN_EVIDENCE)
    for value in (1.5, -0.1, math.nan):
        ent.value = value
        with pytest.raises(ValueError):
            recommendation_items(head)


# -------------------------------------------------------------- full rounds

def test_all_normal_forced_good_builds_full_trust():
    state = small_state(n=30, seed=4, malicious_fraction=0.0,
                        force_channel="good")
    for r in range(40):
        run_round(state, r)
    saw_evidence = False
    for node in state.nodes:
        for observed, ent in node.trust.entries.items():
            c = ent.counters
            if c.total_forwarding > 0:
                saw_evidence = True
                assert c.successes == c.total_forwarding
                assert c.delayed == 0
                assert ent.value == 1.0
    assert saw_evidence


def test_round_report_invariants():
    state = small_state(n=40, seed=6, malicious_fraction=0.3)
    for r in range(30):
        rep = run_round(state, r)
        assert rep.round_idx == r
        assert rep.malicious_cluster_count <= len(rep.clusters)
        assert rep.alive_end == len(state.alive_nodes())
        assert energy_ledger_error(state) <= 1e-12
        member_ids = [m for _, members in rep.clusters for m in members]
        assert len(member_ids) == len(set(member_ids))  # one cluster each
        for h, members in rep.clusters:
            assert members  # only populated clusters are reported
            assert h not in members


def test_cluster_members_are_in_slot_order():
    # member i of the ascending-id order sends in slot i
    state = small_state(n=60, seed=3, malicious_fraction=0.3)
    seen = 0
    for r in range(40):
        for _, members in run_round(state, r).clusters:
            assert list(members) == sorted(members)
            seen += len(members) > 1
    assert seen  # some cluster had more than one member to order


def test_run_round_shares_one_counters_record_per_triple():
    state = init_network(SimConfig(node_count=30, rounds=80, seed=3))
    for r in range(state.config.rounds):
        run_round(state, r)
    records = [ent.counters for node in state.nodes
               for ent in node.trust.entries.values()]
    assert len({tuple(c) for c in records}) > 1
    assert len({id(c) for c in records}) == len({tuple(c) for c in records})


def test_a_node_without_a_head_self_declares_exactly_when_eligible(monkeypatch):
    state = small_state(n=30, seed=3, malicious_fraction=0.3)
    for r in range(20):
        run_round(state, r)
    # from here on no node is elected, so no node has a head to join
    monkeypatch.setattr(protocol, "should_elect", lambda node, round_idx, streams: False)
    saw_mixed = False
    for r in range(20, 60):
        alive = state.alive_nodes()
        eligible = {node.id for node in alive if rotation_eligible(node)}
        saw_mixed |= 0 < len(eligible) < len(alive)
        report = run_round(state, r)
        assert report.heads == sorted(eligible)
        for node in alive:
            assert (node.rounds_since_head == 0) is (node.id in eligible)
    assert saw_mixed  # some rounds held eligible and ineligible nodes


def test_dead_network_round_is_empty():
    state = small_state(n=5, seed=2)
    for node in state.nodes:
        state.debit(node, node.energy_j)
    rep = run_round(state, 1)
    assert rep.alive_end == 0
    assert rep.heads == [] and rep.clusters == []


# ------------------------------------------------------- where streams open

class CountingStreams(StreamFactory):
    """The real streams, counted per subsystem as they are opened."""

    def __init__(self, master_seed):
        super().__init__(master_seed)
        self.opened = Counter()

    def stream(self, subsystem, node=-1, round_idx=-1):
        self.opened[subsystem] += 1
        return super().stream(subsystem, node, round_idx)


def counted_state(**kw):
    state = small_state(n=40, seed=5, **kw)
    state.streams = CountingStreams(state.config.seed)
    return state


def test_good_channel_opens_no_observe_stream():
    for channel, observed in (("good", False), ("bad", True)):
        state = counted_state(force_channel=channel)
        delivered = sum(run_round(state, r).packets_delivered for r in range(20))
        assert delivered > 0  # members did overhear forwarding
        assert (state.streams.opened["observe"] > 0) is observed


def test_a_dropped_packet_opens_no_observe_stream():
    # every node is a tier-3 attacker dropping every packet (3 * p_sf = 1),
    # so under a bad channel no member has anything to overhear
    state = counted_state(force_channel="bad", malicious_fraction=1.0,
                          tier_mix=(0.0, 0.0, 1.0), attack=AttackParams(p_sf=1 / 3, p_df=0.0))
    assert sum(run_round(state, r).drop_attacks for r in range(20)) > 0
    assert state.streams.opened["observe"] == 0


def test_only_malicious_heads_open_attack_streams():
    for fraction in (0.0, 0.3):
        state = counted_state(malicious_fraction=fraction)
        reports = [run_round(state, r) for r in range(20)]
        assert sum(len(rep.clusters) for rep in reports) > 0
        assert state.streams.opened["attack"] == sum(
            rep.malicious_cluster_count for rep in reports)
    assert state.streams.opened["attack"] > 0


def test_elect_streams_open_for_eligible_nodes_only():
    state = counted_state()
    saw_ineligible = False
    for r in range(20):
        alive = state.alive_nodes()
        eligible = sum(rotation_eligible(node) for node in alive)
        saw_ineligible |= eligible < len(alive)
        before = state.streams.opened["elect"]
        run_round(state, r)
        assert state.streams.opened["elect"] - before == eligible
    assert saw_ineligible
