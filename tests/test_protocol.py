"""Protocol engine: election, head choice, attack behavior, overhearing,
recommendation policy, and whole-round invariants."""
import math

import pytest

from scfto.config import SimConfig
from scfto.network import NodeState, init_network
from scfto.phy import ChannelState
from scfto.protocol import (ActionKind, ClusterState, HeadAction,
                            SELF_DECLARE, VOUCH_LEVEL, VOUCH_MIN_EVIDENCE,
                            choose_head, election_probability, head_action,
                            observe_forwarding, recommendation_items,
                            rotation_eligible, run_round, should_elect)
from scfto.trust import Outcome


class StubRng:
    """random.Random stand-in feeding scripted uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


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
    assert should_elect(node, r, StubRng([threshold - eps]), state.config)
    assert not should_elect(node, r, StubRng([threshold + eps]), state.config)


def test_rotation_window_blocks_recent_heads():
    state = small_state()
    node = state.nodes[0]
    window = math.ceil(1.0 / node.p_ch)
    node.rounds_since_head = window - 1
    assert not rotation_eligible(node, state.config)
    assert not should_elect(node, 0, StubRng([0.0]), state.config)
    node.rounds_since_head = window
    assert rotation_eligible(node, state.config)


def test_never_head_is_always_eligible():
    state = small_state()
    node = state.nodes[0]
    node.rounds_since_head = None
    assert rotation_eligible(node, state.config)


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
        node.head_history = [(1, avg)]
        assert election_probability(node, state) == pytest.approx(expected)


def test_election_probability_energy_deficit_scales_down():
    state = small_state()
    params = state.config.election
    node = state.nodes[0]
    node.head_history = [(1, 1.0)]
    node.e_max, node.e_min = 0.10, 0.05
    node.energy_j = 0.05  # full deficit
    assert election_probability(node, state) == pytest.approx(
        (1.0 - params.eta) * params.p_ct)
    node.energy_j = 0.10  # no deficit
    assert election_probability(node, state) == pytest.approx(params.p_ct)


def test_election_probability_equal_extremes_no_penalty():
    state = small_state()
    node = state.nodes[0]
    node.head_history = [(1, 1.0)]
    node.e_max = node.e_min = 0.08
    node.energy_j = 0.01
    assert election_probability(node, state) == pytest.approx(
        state.config.election.p_ct)


# -------------------------------------------------------------- choose_head

def heads_by_distance(state, node):
    return sorted((h for h in range(len(state.nodes)) if h != node.id),
                  key=lambda h: state.distance(node.id, h))


def test_choose_head_preconvergence_unknown_first():
    state = small_state()
    node = state.nodes[0]
    ranked = heads_by_distance(state, node)[: state.config.join.n_nch]
    # give the nearest candidate a Known value; second-nearest stays Unknown
    node.trust.entry(ranked[0]).value = 1.0
    assert choose_head(node, ranked, state, eligible=True) == ranked[1]


def test_choose_head_preconvergence_best_known():
    state = small_state()
    node = state.nodes[0]
    ranked = heads_by_distance(state, node)[: state.config.join.n_nch]
    for i, h in enumerate(ranked):
        node.trust.entry(h).value = 0.2 + 0.1 * i
    assert choose_head(node, ranked, state, eligible=True) == ranked[-1]


def test_choose_head_no_candidates_self_declares_when_eligible():
    state = small_state()
    node = state.nodes[0]
    assert choose_head(node, [], state, eligible=True) == SELF_DECLARE
    assert choose_head(node, [], state, eligible=False) is None


def test_choose_head_postconvergence_threshold():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.8
    ranked = heads_by_distance(state, node)[:3]
    node.trust.entry(ranked[0]).value = 0.5   # below threshold
    node.trust.entry(ranked[1]).value = 0.85  # first acceptable
    node.trust.entry(ranked[2]).value = 0.99
    assert choose_head(node, ranked, state, eligible=True) == ranked[1]


def test_choose_head_postconvergence_falls_back_to_unknown():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.8
    ranked = heads_by_distance(state, node)[:2]
    node.trust.entry(ranked[0]).value = 0.5  # below threshold
    # ranked[1] Unknown -> explored
    assert choose_head(node, ranked, state, eligible=True) == ranked[1]


def test_choose_head_postconvergence_all_bad_self_declares():
    state = small_state()
    node = state.nodes[0]
    node.tracker.converged = True
    node.tracker.last_t_th = 0.9
    ranked = heads_by_distance(state, node)[:2]
    for h in ranked:
        node.trust.entry(h).value = 0.1
    assert choose_head(node, ranked, state, eligible=True) == SELF_DECLARE
    assert choose_head(node, ranked, state, eligible=False) is None


# -------------------------------------------------------------- head_action

def test_normal_head_always_forwards():
    state = small_state()
    node = state.nodes[0]
    node.tier = 0
    act = head_action(node, StubRng([]), state.config)
    assert act.kind is ActionKind.FORWARD and act.delay_s == 0.0


def test_malicious_head_drop_and_delay_branches():
    state = small_state()
    cfg = state.config
    node = state.nodes[0]
    node.tier = 2
    p_drop = 2 * cfg.attack.p_sf
    eps = 1e-12
    assert head_action(node, StubRng([p_drop - eps]), cfg).kind is ActionKind.DROP
    # survive the drop draw, then hit the conditional delay branch
    act = head_action(node, StubRng([p_drop + eps, 0.0, 0.5]), cfg)
    assert act.kind is ActionKind.DELAY
    assert 0.0 < act.delay_s <= cfg.radio.d_m_s
    act = head_action(node, StubRng([p_drop + eps, 1.0 - eps]), cfg)
    assert act.kind is ActionKind.FORWARD


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
            kind = head_action(node, rng, cfg).kind
            drops += kind is ActionKind.DROP
            delays += kind is ActionKind.DELAY
        assert drops / n == pytest.approx(k * cfg.attack.p_sf, abs=0.005)
        assert delays / n == pytest.approx(k * cfg.attack.p_df, abs=0.005)


# ------------------------------------------------------- observe_forwarding

def test_observe_drop_is_timeout():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    out = observe_forwarding(HeadAction(ActionKind.DROP), ChannelState.GOOD,
                             StubRng([]), cfg)
    assert out == (Outcome.DROPPED, cfg.radio.d_m_s, False)


def test_observe_forward_good_channel():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    out = observe_forwarding(HeadAction(ActionKind.FORWARD), ChannelState.GOOD,
                             StubRng([]), cfg)
    assert out == (Outcome.FORWARDED, 0.0, True)


def test_observe_forward_bad_channel_branches():
    cfg = SimConfig(node_count=10, rounds=1, seed=1)
    p_no, p_cd = cfg.effects.p_no, cfg.effects.p_cd
    eps = 1e-12
    fwd = HeadAction(ActionKind.FORWARD)
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
    act = HeadAction(ActionKind.DELAY, delay_s=0.003)
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
    ent.counters.total_forwarding = 1
    assert recommendation_items(head) == [(2, 0.5)]


def test_recommendations_vouch_gate():
    state = small_state()
    head = state.nodes[0]
    thin = head.trust.entry(1)
    thin.value = VOUCH_LEVEL
    thin.counters.total_forwarding = VOUCH_MIN_EVIDENCE - 1
    thick = head.trust.entry(2)
    thick.value = VOUCH_LEVEL
    thick.counters.total_forwarding = VOUCH_MIN_EVIDENCE
    low = head.trust.entry(3)
    low.value = VOUCH_LEVEL - 0.01  # below the gate, thin evidence is fine
    low.counters.total_forwarding = 1
    assert recommendation_items(head) == [(2, VOUCH_LEVEL),
                                          (3, VOUCH_LEVEL - 0.01)]


# ------------------------------------------------------------ slot schedule

def test_slot_schedule_bijection():
    cluster = ClusterState(head=9, members=[7, 3, 5])
    cluster.schedule()
    assert cluster.members == [3, 5, 7]  # member i sends in slot i


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
        assert state.energy_ledger_error() <= 1e-12
        member_ids = [m for _, members in rep.clusters for m in members]
        assert len(member_ids) == len(set(member_ids))  # one cluster each
        for h, members in rep.clusters:
            assert members  # only populated clusters are reported
            assert h not in members


def test_dead_network_round_is_empty():
    state = small_state(n=5, seed=2)
    for node in state.nodes:
        state.debit(node, node.energy_j, round_idx=0)
    rep = run_round(state, 1)
    assert rep.alive_end == 0
    assert rep.heads == [] and rep.clusters == []
