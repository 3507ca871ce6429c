"""The per-round protocol engine: head election, cluster joining, TDMA
scheduling, the data phase with attack and channel effects, transmission
overhearing, and the trust/threshold updates that close the loop.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add

from .config import ElectionParams, SimConfig
from .network import NodeState, SimState
from .outlier import detect_threshold
from .phy import ChannelState, overhear_energy, rx_energy, sample_channel_state, tx_energy
from .rng import StreamFactory
from .trust import Outcome, merge_recommendation, record_event, update_direct_trust

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
    since each observed id appears once and the merge is per id.  Every
    member's `merge_recommendation` takes the values as trust in [0,1], so
    that range is checked here, once per list.
    """
    out = []
    for observed, ent in head.trust.entries.items():
        value = ent.value
        if value is None or ent.counters.total_forwarding <= 0:
            continue
        if value >= VOUCH_LEVEL and ent.counters.total_forwarding < VOUCH_MIN_EVIDENCE:
            continue
        if not 0.0 <= value <= 1.0:
            raise ValueError("recommended trust must lie in [0,1]")
        out.append((observed, value))
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
    # added left to right, as `sum` does before Python 3.12; from 3.12 it
    # compensates float rounding, and outputs would depend on the version
    avg = reduce(add, node.head_history, 0) / len(node.head_history)
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


def rotation_floor(params: ElectionParams) -> int:
    """The shortest rotation window any node can have, ceil(1/max(p0_init,
    p_dt)).  It is exact: `SimConfig.validate` makes p_dt the largest rate
    and keeps eta in [0, 1), so every `p_ch` that `election_probability`
    returns, and a malicious node's p0_init, is at most max(p0_init, p_dt)."""
    return math.ceil(1.0 / max(params.p0_init, params.p_dt))


def rotation_eligible(node: NodeState) -> bool:
    """True when the node has never been head or sat out its whole window.

    Inside the rotation floor `p_ch` may be stale (`update_nodes`), but
    every value it has held is at most max(p0_init, p_dt), so ceil(1/p_ch)
    is at least the floor and the node is ineligible, as it would be on a
    current value."""
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


def choose_head(node: NodeState, heads: list, positions: list, state: SimState):
    """Pick a head among the `n_nch` nearest candidates, or None when no
    candidate is acceptable.

    `heads` is a list of head ids in ascending order and `positions` holds
    their positions in the same order; the ascending ids make the first of
    equally near heads the lowest id, so candidates rank by distance, then
    id.  Pre-convergence the node explores Unknown candidates first
    (nearest wins), then the best Known trust (nearest wins a tie).
    Post-convergence it wants the nearest candidate at or above its own
    detected threshold and falls back to Unknown.  `join_heads` decides
    whether a node left without a head self-declares or idles.

    A converged node first scans the trust of every head and, when none is
    Unknown or at or above its threshold, returns None without measuring a
    distance.  This is exact: the nearest candidates are some of `heads`,
    so none of them would be acceptable either.  Once thresholds settle
    most nodes idle or self-declare this way in most rounds.
    """
    converged = node.tracker.converged
    if converged:
        t_th = node.tracker.last_t_th
        value_of = node.trust.value_of
        for h in heads:
            t = value_of(h)
            if t is None or t >= t_th:  # acceptable; the ranking picks which
                break
        else:
            return None
    # math.dist is SimState.distance, so the ranking is exactly the one by
    # that distance
    dists = list(map(math.dist, repeat(node.position), positions))
    nearest = []
    for _ in range(min(state.config.join.n_nch, len(heads))):
        i = dists.index(min(dists))  # the first minimum has the lowest id
        dists[i] = math.inf  # taken
        nearest.append(heads[i])
    # (trust or None while Unknown, head id), nearest first
    trusts = [(node.trust.value_of(h), h) for h in nearest]
    if converged:
        for t, head_id in trusts:
            if t is not None and t >= t_th:
                return head_id
    for t, head_id in trusts:
        if t is None:
            return head_id
    if trusts and not converged:
        return max(trusts, key=lambda item: item[0])[1]  # first maximum
    return None


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
    p_cd.  A dropped packet is a timeout at the full window.  A dropped
    packet and a good channel draw nothing, so there `rng` may be None.
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


def elect_heads(state: SimState, alive: list, round_idx: int, ctrl_rx: float) -> tuple:
    """Election: self-elected heads broadcast across the whole field and
    every other alive node pays to hear each broadcast that went out.

    Returns (heads, live_heads): the elected ids in ascending order, and
    those whose broadcast went out and who are still alive, ascending."""
    config = state.config
    heads = [node.id for node in alive
             if should_elect(node, round_idx, state.streams)]
    broadcast = tx_energy(config.radio, config.control_packet_bits, config.field_diagonal_m)
    broadcast_ok = set()
    for head_id in heads:
        if state.debit(state.nodes[head_id], broadcast):
            broadcast_ok.add(head_id)
    for node in alive:
        heard = len(broadcast_ok) - (1 if node.id in broadcast_ok else 0)
        if heard > 0:
            state.debit(node, heard * ctrl_rx)
    return heads, sorted(h for h in broadcast_ok if state.nodes[h].alive)


def join_heads(state: SimState, alive: list, heads: list, live_heads: list,
               ctrl_rx: float) -> tuple:
    """Joining: non-heads pick a head and send a request with their
    residual energy; a node left without a head self-declares when its
    rotation window allows, and otherwise idles.

    Members join in ascending id order, which is their slot order: member
    i of a cluster sends in slot i.  Distance is symmetric, so a member's
    request cost is also its head's acceptance cost.  Returns (clusters,
    links, became_head): head id -> member ids for each head with members,
    member id -> (head id, distance to it, request energy), and the set of
    elected and self-declared heads."""
    config = state.config
    radio, ctrl = config.radio, config.control_packet_bits
    head_positions = [state.nodes[h].position for h in live_heads]
    clusters: dict = {h: [] for h in live_heads}
    links: dict = {}
    became_head = set(heads)
    for node in alive:
        if node.id in became_head or not node.alive:
            continue
        choice = choose_head(node, live_heads, head_positions, state)
        if choice is None:
            if rotation_eligible(node):
                became_head.add(node.id)  # self-declared
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
    return clusters, links, became_head


def send_acceptances(state: SimState, clusters: dict, links: dict, ctrl_rx: float) -> None:
    """Acceptance messages with the residual-energy extremes of the join
    requests and the head's trust recommendations, which each member that
    hears its message merges.  Nothing debits a member between its request
    and this phase, so its energy is what it sent."""
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


def send_data(state: SimState, clusters: dict, links: dict, channel: ChannelState,
              round_idx: int) -> tuple:
    """Data phase, member packets in slot order: each head forwards or
    attacks, and each member records what it overhears of its own packet.

    Only a malicious head draws for a packet's fate and only a packet the
    head did not drop, under a bad channel, draws for what a member
    overhears, so only they open a stream.  Returns the round's (drop
    attacks, delay attacks, packets delivered to the base station)."""
    config = state.config
    radio, data_bits = config.radio, config.data_packet_bits
    data_rx = rx_energy(radio, data_bits)
    timeout = overhear_energy(radio, radio.d_m_s, data_bits, False)
    bs = (config.bs_x, config.bs_y)
    drops = delays = delivered = 0
    for head_id, members in clusters.items():
        head = state.nodes[head_id]
        attack_rng = (state.streams.stream("attack", head_id, round_idx)
                      if head.malicious else None)
        uplink = tx_energy(radio, data_bits, math.dist(head.position, bs))
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
                    drops += 1
                else:
                    if fate is Outcome.FORWARDED_DELAYED:
                        delays += 1
                    if state.debit(head, uplink):
                        delivered += 1
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
                           if channel is ChannelState.BAD and fate is not Outcome.DROPPED
                           else None)
            outcome, duration, overheard = observe_forwarding(action, channel,
                                                              observe_rng, config)
            state.debit(member, overhear_energy(radio, duration, data_bits, overheard))
            record_event(member.trust, head_id, outcome)
    return drops, delays, delivered


def update_nodes(state: SimState, alive: list, links: dict, became_head: set) -> None:
    """Per-member trust inference, threshold detection, convergence, head
    rotation windows and the next round's election probability.

    Nothing here debits, so no node dies.  `election_probability` never
    reads `rounds_since_head`, so the window moves first and `p_ch` is
    recomputed only where its value decides the next election: never
    head, or at or past the rotation floor.  Nothing it depends on changes
    before then."""
    config = state.config
    floor = rotation_floor(config.election)
    for node in alive:
        if not node.alive:
            continue
        link = links.get(node.id)
        if link is not None:
            update_direct_trust(node.trust, state.engine, link[0])
            node.tracker.update(detect_threshold(node.trust.known_values(),
                                                 config.outlier), config.outlier)
        if node.id in became_head:
            node.rounds_since_head = 0
        elif node.rounds_since_head is not None:
            node.rounds_since_head += 1
        # a malicious node keeps p0_init from deployment
        if not node.malicious and (node.rounds_since_head is None
                                   or node.rounds_since_head >= floor):
            node.p_ch = election_probability(node, state)


def run_round(state: SimState, round_idx: int) -> RoundReport:
    """Execute one protocol round and report what happened: one channel
    state drawn for everyone, then the phases in order.

    A self-declared head (a node that `choose_head` leaves without a head
    and that `rotation_eligible` lets lead) counts in `report.heads` and
    restarts its rotation window, but it never broadcasts, hosts members
    or pays energy for its headship."""
    config = state.config
    energy_before = state.total_debited_j
    deaths_before = len(state.deaths)
    if config.force_channel is not None:
        channel = ChannelState(config.force_channel)
    else:
        channel = sample_channel_state(
            config.channel, state.streams.stream("channel", round_idx=round_idx))
    report = RoundReport(round_idx=round_idx, channel=channel)
    alive = state.alive_nodes()
    if not alive:
        return report

    # what hearing a control packet costs, charged in the first three phases
    ctrl_rx = rx_energy(config.radio, config.control_packet_bits)
    heads, live_heads = elect_heads(state, alive, round_idx, ctrl_rx)
    clusters, links, became_head = join_heads(state, alive, heads, live_heads, ctrl_rx)
    send_acceptances(state, clusters, links, ctrl_rx)
    report.drop_attacks, report.delay_attacks, report.packets_delivered = send_data(
        state, clusters, links, channel, round_idx)
    update_nodes(state, alive, links, became_head)

    report.heads = sorted(became_head)
    report.clusters = [(h, tuple(members)) for h, members in clusters.items()]
    report.malicious_cluster_count = sum(state.nodes[h].malicious for h in clusters)
    report.energy_spent_j = state.total_debited_j - energy_before
    report.deaths = state.deaths[deaths_before:]
    report.alive_end = len(alive) - len(report.deaths)
    return report
