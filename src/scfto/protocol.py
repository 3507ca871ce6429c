"""The per-round protocol engine: head election, cluster joining, TDMA
scheduling, the data phase with attack and channel effects, transmission
overhearing, and the trust/threshold updates that close the loop.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat

from .config import SimConfig
from .network import NodeState, SimState
from .outlier import detect_threshold
from .phy import ChannelState, overhear_energy, rx_energy, sample_channel_state, tx_energy
from .rng import StreamFactory
from .trust import NoEvidence, Outcome, merge_recommendation, record_event, update_direct_trust

SELF_DECLARE = "self-declare"


VOUCH_MIN_EVIDENCE = 5
VOUCH_LEVEL = 0.95


def recommendation_items(head) -> list:
    """Trust opinions the head attaches to its acceptance messages.

    Only opinions backed by the head's own forwarding observations are
    rebroadcast; re-circulating merge-derived hearsay lets rumor loops
    drown out direct observation.  High praise is held to a stricter
    standard: vouching above VOUCH_LEVEL requires at least
    VOUCH_MIN_EVIDENCE observed forwarding attempts, so a lucky streak
    of two or three clean forwards cannot launder a saboteur's
    reputation across the network.  The list keeps the table's order,
    since each observed id appears once and the merge is per id.
    """
    out = []
    for observed, ent in head.trust.entries.items():
        if ent.value is None or ent.counters.total_forwarding <= 0:
            continue
        if ent.value >= VOUCH_LEVEL and ent.counters.total_forwarding < VOUCH_MIN_EVIDENCE:
            continue
        out.append((observed, ent.value))
    return out


@dataclass
class RoundReport:
    round_idx: int
    channel: ChannelState
    heads: list = field(default_factory=list)
    clusters: list = field(default_factory=list)  # (head id, member id tuple)
    malicious_cluster_count: int = 0
    drop_attacks: int = 0
    delay_attacks: int = 0
    packets_delivered: int = 0
    energy_spent_j: float = 0.0
    deaths: list = field(default_factory=list)
    alive_end: int = 0


def election_probability(node: NodeState, state: SimState) -> float:
    """Eq.-(12)-style head probability from average head-history trust and
    the residual-energy balance carried in the latest acceptance message."""
    params = state.config.election
    if not node.head_history:
        return params.p0_init
    avg = sum(node.head_history) / len(node.head_history)
    label = state.engine.classify_trust(avg)
    if label == "complete_trust":
        p_x = params.p_ct
    elif label == "trust":
        p_x = params.p_t
    elif label == "medium_trust":
        p_x = params.p_mt
    else:  # medium distrust and below share the top rate
        p_x = params.p_dt
    if node.e_max is None or node.e_max == node.e_min:
        term = 1.0
    else:
        deficit = (node.e_max - node.energy_j) / (node.e_max - node.e_min)
        term = 1.0 - params.eta * min(1.0, max(0.0, deficit))
    return term * p_x


def rotation_eligible(node: NodeState) -> bool:
    """True when the node has never been head or sat out its whole window."""
    if node.rounds_since_head is None:
        return True
    return node.rounds_since_head >= math.ceil(1.0 / node.p_ch)


def should_elect(node: NodeState, round_idx: int, streams: StreamFactory) -> bool:
    """Rotation-window eligibility plus the LEACH-style threshold draw.

    The node's `elect` stream is opened only once it is eligible, since an
    ineligible node draws nothing."""
    if not rotation_eligible(node):
        return False
    p = node.p_ch
    period = 1.0 / p
    threshold = p / (1.0 - p * math.fmod(round_idx, period))
    return streams.stream("elect", node.id, round_idx).random() < threshold


def choose_head(node: NodeState, heads: list, positions: list, state: SimState,
                eligible: bool):
    """Pick a head among the `n_nch` nearest candidates.

    `heads` is a list of head ids in ascending order and `positions` holds
    their positions in the same order; the ascending ids make the first of
    equally near heads the lowest id, so candidates rank by distance, then
    id.  Pre-convergence the node explores Unknown candidates first
    (nearest wins), then the best Known trust (nearest wins a tie).
    Post-convergence it wants the nearest candidate at or above its own
    detected threshold, falls back to Unknown, and otherwise self-declares
    when eligible or idles.  Returns a head id, SELF_DECLARE, or None;
    `run_round` says what a self-declared head does.
    """
    if len(heads) <= 1:  # nothing to rank, as in 40 % of `default` rounds
        nearest = heads
    else:
        # math.dist is SimState.distance, so the ranking is exactly the one
        # by that distance
        dists = list(map(math.dist, repeat(node.position), positions))
        nearest = []
        for _ in range(min(state.config.join.n_nch, len(heads))):
            i = dists.index(min(dists))  # the first minimum has the lowest id
            dists[i] = math.inf  # taken
            nearest.append(heads[i])
    # (trust or None while Unknown, head id), nearest first
    trusts = [(node.trust.value_of(h), h) for h in nearest]
    converged = node.tracker.converged
    if converged:
        t_th = node.tracker.last_t_th
        for t, head_id in trusts:
            if t is not None and t >= t_th:
                return head_id
    for t, head_id in trusts:
        if t is None:
            return head_id
    if trusts and not converged:
        return max(trusts, key=lambda item: item[0])[1]  # first maximum
    return SELF_DECLARE if eligible else None


def head_action(head: NodeState, rng: random.Random | None,
                config: SimConfig) -> tuple:
    """What the head does with one member packet, as (fate, delay_s):
    (FORWARDED, 0.0), (DROPPED, 0.0) or (FORWARDED_DELAYED, d).  Tier k
    drops with probability k*p_sf and delays with unconditional
    probability k*p_df.  A normal head draws nothing, so its `rng` may be
    None."""
    if not head.malicious:
        return Outcome.FORWARDED, 0.0
    k = head.tier
    p_drop = k * config.attack.p_sf
    p_delay = k * config.attack.p_df
    if rng.random() < p_drop:
        return Outcome.DROPPED, 0.0
    conditional = p_delay / (1.0 - p_drop) if p_drop < 1.0 else 0.0
    if rng.random() < conditional:
        # deliberate delay in (0, D_m]
        return Outcome.FORWARDED_DELAYED, config.radio.d_m_s * (1.0 - rng.random())
    return Outcome.FORWARDED, 0.0


def observe_forwarding(action: tuple, channel: ChannelState,
                       rng: random.Random | None, config: SimConfig) -> tuple:
    """What the member's overhearing records for one packet, given the
    head's (fate, delay_s) from `head_action`.

    Returns (outcome, listening duration, overheard flag).  Under a bad
    channel a genuinely forwarded packet is lost once and retransmitted at
    half the overhearing window; the retransmission is missed with
    probability p_no and otherwise captured as delayed with probability
    p_cd.  A dropped packet is a timeout at the full window.  A good
    channel draws nothing, so there `rng` may be None.
    """
    fate, delay_s = action
    d_m = config.radio.d_m_s
    p_no = config.effects.p_no
    p_cd = config.effects.p_cd
    if fate is Outcome.DROPPED:
        return Outcome.DROPPED, d_m, False
    if fate is Outcome.FORWARDED:
        if channel is ChannelState.GOOD:
            return Outcome.FORWARDED, 0.0, True
        if rng.random() < p_no:
            return Outcome.DROPPED, d_m, False
        if rng.random() < p_cd:
            return Outcome.FORWARDED_DELAYED, config.retransmit_interval_s, True
        return Outcome.FORWARDED, config.retransmit_interval_s, True
    # deliberate delay
    if channel is ChannelState.BAD and rng.random() < p_no:
        return Outcome.DROPPED, d_m, False
    return Outcome.FORWARDED_DELAYED, delay_s, True


def run_round(state: SimState, round_idx: int) -> RoundReport:
    """Execute one protocol round and report what happened.

    A self-declared head (a node with no head it will join, eligible to
    lead) counts in `report.heads` and restarts its rotation window, but it
    never broadcasts, hosts members or pays energy for its headship."""
    config = state.config
    energy_before = state.total_debited_j
    deaths_before = len(state.deaths)

    # (1) channel state, one draw shared by everyone this round
    if config.force_channel is not None:
        channel = ChannelState(config.force_channel)
    else:
        channel = sample_channel_state(
            config.channel, state.streams.stream("channel", round_idx=round_idx))
    report = RoundReport(round_idx=round_idx, channel=channel)

    alive = state.alive_nodes()
    if not alive:
        report.alive_end = 0
        return report

    # the round's fixed link costs, each computed once
    radio = config.radio
    ctrl = config.control_packet_bits
    data_bits = config.data_packet_bits
    ctrl_rx = rx_energy(radio, ctrl)
    data_rx = rx_energy(radio, data_bits)
    timeout = overhear_energy(radio, radio.d_m_s, data_bits, False)

    # (2) election: self-elected heads broadcast across the whole field
    heads = [node.id for node in alive
             if should_elect(node, round_idx, state.streams)]
    broadcast = tx_energy(radio, ctrl, config.field_diagonal_m)
    broadcast_ok = set()
    for head_id in heads:
        if state.debit(state.nodes[head_id], broadcast):
            broadcast_ok.add(head_id)
    for node in alive:
        heard = len(broadcast_ok) - (1 if node.id in broadcast_ok else 0)
        if heard > 0:
            state.debit(node, heard * ctrl_rx)
    live_heads = sorted(h for h in broadcast_ok if state.nodes[h].alive)
    head_positions = [state.nodes[h].position for h in live_heads]

    # (3) joining: non-heads pick a head and send a request with their
    # residual energy; an unservable node may self-declare.  Members join
    # in ascending id order, which is their slot order: member i of a
    # cluster sends in slot i.  Distance is symmetric, so a member's
    # request cost is also its head's acceptance cost.
    clusters: dict = {h: [] for h in live_heads}  # head id -> member ids
    links: dict = {}  # member id -> (head id, distance to it, request energy)
    self_declared: list = []
    head_set = set(heads)
    for node in alive:
        if node.id in head_set or not node.alive:
            continue
        choice = choose_head(node, live_heads, head_positions, state,
                             eligible=rotation_eligible(node))
        if choice is None:
            continue
        if choice == SELF_DECLARE:
            self_declared.append(node.id)
            continue
        head = state.nodes[choice]
        trust_at_selection = node.trust.value_of(choice) or 0.0  # Unknown counts 0
        d = state.distance(node.id, choice)
        request = tx_energy(radio, ctrl, d)
        state.debit(node, request)
        if not node.alive:
            continue  # request never left the radio
        state.debit(head, ctrl_rx)
        if not head.alive:
            continue
        clusters[choice].append(node.id)
        links[node.id] = (choice, d, request)
        node.head_history.append(trust_at_selection)
        del node.head_history[:-config.election.n_lch]
    clusters = {h: members for h, members in clusters.items() if members}

    # (4) acceptance messages with the residual-energy extremes of the
    # join requests and trust recommendations.  Nothing debits a member
    # between its request and this loop, so its energy is what it sent.
    for head_id, members in clusters.items():
        head = state.nodes[head_id]
        energies = [state.nodes[m].energy_j for m in members]
        e_max, e_min = max(energies), min(energies)
        recommendations = recommendation_items(head)
        for member_id in members:
            member = state.nodes[member_id]
            state.debit(head, links[member_id][2])
            if not head.alive or not member.alive:
                continue
            state.debit(member, ctrl_rx)
            if not member.alive:
                continue
            member.e_max = e_max
            member.e_min = e_min
            merge_recommendation(member.trust, recommendations,
                                 member.trust.value_of(head_id))

    # (5) data phase, member packets in slot order.  Only a malicious head
    # draws for a packet's fate and only a bad channel draws for what a
    # member overhears, so only they open a stream.
    for head_id, members in clusters.items():
        head = state.nodes[head_id]
        attack_rng = (state.streams.stream("attack", head_id, round_idx)
                      if head.malicious else None)
        uplink = tx_energy(radio, data_bits, math.dist(head.position, config.bs_position))
        for member_id in members:
            member = state.nodes[member_id]
            sent = state.debit(member, tx_energy(radio, data_bits, links[member_id][1]))
            if not sent:
                continue  # dead, or died mid-transmission: packet lost
            action = None  # stays None when the head dies before forwarding
            state.debit(head, data_rx)
            if head.alive:
                action = head_action(head, attack_rng, config)
                fate = action[0]
                if fate is Outcome.DROPPED:
                    report.drop_attacks += 1
                else:
                    if fate is Outcome.FORWARDED_DELAYED:
                        report.delay_attacks += 1
                    if state.debit(head, uplink):
                        report.packets_delivered += 1
                    else:
                        action = None
            if action is None:
                # the head died this round: timeout, but energy exhaustion
                # is not malice, so no trust evidence
                state.debit(member, timeout)
                continue
            if not member.alive:
                continue
            observe_rng = (state.streams.stream("observe", member_id, round_idx)
                           if channel is ChannelState.BAD else None)
            outcome, duration, overheard = observe_forwarding(action, channel,
                                                              observe_rng, config)
            state.debit(member, overhear_energy(radio, duration, data_bits, overheard))
            record_event(member.trust, head_id, outcome)

    # (6) per-member trust inference, threshold detection, convergence, and
    # the next round's election probability
    for node in state.nodes:
        if not node.alive:
            continue
        link = links.get(node.id)
        if link is not None:
            try:
                update_direct_trust(node.trust, state.engine, link[0])
            except NoEvidence:
                pass  # death-drops carry no evidence
            node.tracker.update(detect_threshold(node.trust.known_values(),
                                                 config.outlier))
        if not node.malicious:  # a malicious node keeps p0_init from deployment
            node.p_ch = election_probability(node, state)

    # (7) bookkeeping: head rotation windows, deaths, metrics
    became_head = head_set | set(self_declared)
    for node in state.nodes:
        if not node.alive:
            continue
        if node.id in became_head:
            node.rounds_since_head = 0
        elif node.rounds_since_head is not None:
            node.rounds_since_head += 1

    report.heads = sorted(became_head)
    report.clusters = [(h, tuple(members)) for h, members in clusters.items()]
    report.malicious_cluster_count = sum(state.nodes[h].malicious for h in clusters)
    report.energy_spent_j = state.total_debited_j - energy_before
    report.deaths = state.deaths[deaths_before:]
    report.alive_end = len(state.alive_nodes())
    return report
