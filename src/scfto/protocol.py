"""The per-round protocol engine: head election, cluster joining, TDMA
scheduling, the data phase with attack and channel effects, transmission
overhearing, and the trust/threshold updates that close the loop.
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field

from .config import SimConfig
from .network import BS, NodeState, SimState
from .outlier import detect_threshold
from .phy import ChannelState, overhear_energy, rx_energy, sample_channel_state, tx_energy
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
    reputation across the network.
    """
    out = []
    for observed, ent in sorted(head.trust.entries.items()):
        if ent.value is None or ent.counters.total_forwarding <= 0:
            continue
        if ent.value >= VOUCH_LEVEL and ent.counters.total_forwarding < VOUCH_MIN_EVIDENCE:
            continue
        out.append((observed, ent.value))
    return out


class ActionKind(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"
    DELAY = "delay"


@dataclass(frozen=True)
class HeadAction:
    kind: ActionKind
    delay_s: float = 0.0


@dataclass
class ClusterState:
    head: int
    members: list = field(default_factory=list)  # in slot order once scheduled
    e_max: float = 0.0
    e_min: float = 0.0

    def schedule(self) -> None:
        # member i of the ascending-id order sends in slot i: a deterministic
        # bijection members -> 0..m-1
        self.members.sort()


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
    avg = sum(t for _, t in node.head_history) / len(node.head_history)
    label = state.engine.classify_trust(avg)
    p_x = {
        "complete_trust": params.p_ct,
        "trust": params.p_t,
        "medium_trust": params.p_mt,
    }.get(label, params.p_dt)  # medium distrust and below share the top rate
    if node.e_max is None or node.e_max == node.e_min:
        term = 1.0
    else:
        deficit = (node.e_max - node.energy_j) / (node.e_max - node.e_min)
        term = 1.0 - params.eta * min(1.0, max(0.0, deficit))
    return term * p_x


def _election_p(node: NodeState, config: SimConfig) -> float:
    # malicious nodes mimic normal behavior at the fixed initial probability
    return config.election.p0_init if node.malicious else node.p_ch


def rotation_eligible(node: NodeState, config: SimConfig) -> bool:
    """True when the node has never been head or sat out its whole window."""
    if node.rounds_since_head is None:
        return True
    p = _election_p(node, config)
    return node.rounds_since_head >= math.ceil(1.0 / p)


def should_elect(node: NodeState, round_idx: int, rng: random.Random,
                 config: SimConfig) -> bool:
    """Rotation-window eligibility plus the LEACH-style threshold draw."""
    p = _election_p(node, config)
    if not rotation_eligible(node, config):
        return False
    period = 1.0 / p
    threshold = p / (1.0 - p * math.fmod(round_idx, period))
    return rng.random() < threshold


def choose_head(node: NodeState, heads: list, state: SimState, eligible: bool):
    """Pick a head among the nearest candidates.

    `heads` is a list of head ids.  Pre-convergence the node explores
    Unknown candidates first (nearest wins), then the best Known trust.
    Post-convergence it wants the nearest candidate at or above its own
    detected threshold, falls back to Unknown, and otherwise self-declares
    when eligible or idles.  Returns a head id, SELF_DECLARE, or None.
    """
    n_nch = state.config.join.n_nch
    ranked = sorted(heads, key=lambda h: (state.distance(node.id, h), h))
    candidates = ranked[:n_nch]
    trust_of = node.trust.value_of  # None while Unknown

    if not node.tracker.converged:
        for head_id in candidates:  # already nearest-first
            if trust_of(head_id) is None:
                return head_id
        known = [(trust_of(h), h) for h in candidates]
        if known:
            best = max(known, key=lambda item: (item[0],
                                                -state.distance(node.id, item[1]),
                                                -item[1]))
            return best[1]
        return SELF_DECLARE if eligible else None

    t_th = node.tracker.last_t_th
    for head_id in candidates:
        t = trust_of(head_id)
        if t is not None and t_th is not None and t >= t_th:
            return head_id
    for head_id in candidates:
        if trust_of(head_id) is None:
            return head_id
    return SELF_DECLARE if eligible else None


def head_action(head: NodeState, rng: random.Random, config: SimConfig) -> HeadAction:
    """What the head does with one member packet.  Tier k drops with
    probability k*p_sf and delays with unconditional probability k*p_df."""
    if not head.malicious:
        return HeadAction(ActionKind.FORWARD)
    k = head.tier
    p_drop = k * config.attack.p_sf
    p_delay = k * config.attack.p_df
    if rng.random() < p_drop:
        return HeadAction(ActionKind.DROP)
    conditional = p_delay / (1.0 - p_drop) if p_drop < 1.0 else 0.0
    if rng.random() < conditional:
        # deliberate delay in (0, D_m]
        d = config.radio.d_m_s * (1.0 - rng.random())
        return HeadAction(ActionKind.DELAY, delay_s=d)
    return HeadAction(ActionKind.FORWARD)


def observe_forwarding(action: HeadAction, channel: ChannelState,
                       rng: random.Random, config: SimConfig) -> tuple:
    """What the member's overhearing records for one packet.

    Returns (outcome, listening duration, overheard flag).  Under a bad
    channel a genuinely forwarded packet is lost once and retransmitted at
    half the overhearing window; the retransmission is missed with
    probability p_no and otherwise captured as delayed with probability
    p_cd.  A dropped packet is a timeout at the full window.
    """
    d_m = config.radio.d_m_s
    p_no = config.effects.p_no
    p_cd = config.effects.p_cd
    if action.kind is ActionKind.DROP:
        return Outcome.DROPPED, d_m, False
    if action.kind is ActionKind.FORWARD:
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
    return Outcome.FORWARDED_DELAYED, action.delay_s, True


def run_round(state: SimState, round_idx: int) -> RoundReport:
    """Execute one protocol round and report what happened."""
    config = state.config
    energy_before = state.total_debited_j
    deaths_before = len(state.deaths)

    # (1) channel state, one draw shared by everyone this round
    if config.force_channel == "good":
        channel = ChannelState.GOOD
    elif config.force_channel == "bad":
        channel = ChannelState.BAD
    else:
        channel = sample_channel_state(
            config.channel, state.streams.stream("channel", round_idx=round_idx))
    report = RoundReport(round_idx=round_idx, channel=channel)

    alive = state.alive_nodes()
    if not alive:
        report.alive_end = 0
        return report

    # (2) election: self-elected heads broadcast across the whole field
    heads: list = []
    for node in alive:
        rng = state.streams.stream("elect", node.id, round_idx)
        if should_elect(node, round_idx, rng, config):
            heads.append(node.id)
    diag = config.field_diagonal_m
    ctrl = config.control_packet_bits
    broadcast_ok = set()
    for head_id in heads:
        if state.debit(state.node(head_id), tx_energy(config.radio, ctrl, diag),
                       round_idx):
            broadcast_ok.add(head_id)
    for node in alive:
        heard = len(broadcast_ok) - (1 if node.id in broadcast_ok else 0)
        if heard > 0 and node.alive:
            state.debit(node, heard * rx_energy(config.radio, ctrl), round_idx)
    live_heads = sorted(h for h in broadcast_ok if state.node(h).alive)

    # (3) joining: non-heads pick a head and send a request with their
    # residual energy; an unservable node may self-declare
    clusters: dict = {h: ClusterState(head=h) for h in live_heads}
    requester_energy: dict = {h: {} for h in live_heads}
    self_declared: list = []
    head_set = set(heads)
    for node in alive:
        if node.id in head_set or not node.alive:
            continue
        choice = choose_head(node, live_heads, state,
                             eligible=rotation_eligible(node, config))
        if choice is None:
            continue
        if choice == SELF_DECLARE:
            self_declared.append(node.id)
            continue
        head = state.node(choice)
        trust_at_selection = node.trust.value_of(choice) or 0.0  # Unknown counts 0
        state.debit(node, tx_energy(config.radio, ctrl,
                                    state.distance(node.id, choice)), round_idx)
        if not node.alive:
            continue  # request never left the radio
        if head.alive:
            state.debit(head, rx_energy(config.radio, ctrl), round_idx)
        if not head.alive:
            continue
        clusters[choice].members.append(node.id)
        requester_energy[choice][node.id] = node.energy_j
        node.push_head(choice, trust_at_selection, config.election.n_lch)

    # (4) slot schedules and acceptance messages with energy extremes and
    # trust recommendations
    for head_id, cluster in clusters.items():
        if not cluster.members:
            continue
        cluster.schedule()
        head = state.node(head_id)
        energies = list(requester_energy[head_id].values())
        cluster.e_max = max(energies)
        cluster.e_min = min(energies)
        recommendations = recommendation_items(head)
        for member_id in cluster.members:
            member = state.node(member_id)
            if head.alive:
                state.debit(head, tx_energy(config.radio, ctrl,
                                            state.distance(head_id, member_id)),
                            round_idx)
            if not head.alive or not member.alive:
                continue
            state.debit(member, rx_energy(config.radio, ctrl), round_idx)
            if not member.alive:
                continue
            member.e_max = cluster.e_max
            member.e_min = cluster.e_min
            t_head = member.trust.value_of(head_id)
            for observed, t_rec in recommendations:
                if observed == member_id:
                    continue
                merge_recommendation(member.trust, observed, t_head, t_rec)

    # (5) data phase, member packets in slot order
    data_bits = config.data_packet_bits
    for head_id, cluster in clusters.items():
        if not cluster.members:
            continue
        head = state.node(head_id)
        attack_rng = state.streams.stream("attack", head_id, round_idx)
        for member_id in cluster.members:
            member = state.node(member_id)
            if not member.alive:
                continue
            sent = state.debit(member, tx_energy(config.radio, data_bits,
                                                 state.distance(member_id, head_id)),
                               round_idx)
            if not sent:
                continue  # died mid-transmission, packet lost
            action = None  # stays None when the head dies before forwarding
            if head.alive:
                state.debit(head, rx_energy(config.radio, data_bits), round_idx)
            if head.alive:
                action = head_action(head, attack_rng, config)
                if action.kind is ActionKind.DROP:
                    report.drop_attacks += 1
                elif action.kind is ActionKind.DELAY:
                    report.delay_attacks += 1
                if action.kind is not ActionKind.DROP:
                    if state.debit(head, tx_energy(config.radio, data_bits,
                                                   state.distance(head_id, BS)),
                                   round_idx):
                        report.packets_delivered += 1
                    else:
                        action = None
            if action is None:
                # the head died this round: timeout, but energy exhaustion
                # is not malice, so no trust evidence
                if member.alive:
                    state.debit(member, overhear_energy(config.radio,
                                                        config.radio.d_m_s,
                                                        data_bits, False), round_idx)
                continue
            if not member.alive:
                continue
            observe_rng = state.streams.stream("observe", member_id, round_idx)
            outcome, duration, overheard = observe_forwarding(action, channel,
                                                              observe_rng, config)
            state.debit(member, overhear_energy(config.radio, duration,
                                                data_bits, overheard), round_idx)
            record_event(member.trust, head_id, outcome)

    # (6) per-member trust inference, threshold detection, convergence, and
    # the next round's election probability
    members_of: dict = {}
    for head_id, cluster in clusters.items():
        for member_id in cluster.members:
            members_of[member_id] = head_id
    for node in state.nodes:
        if not node.alive:
            continue
        head_id = members_of.get(node.id)
        if head_id is not None:
            try:
                update_direct_trust(node.trust, state.engine, head_id)
            except NoEvidence:
                pass  # death-drops carry no evidence
            node.tracker.update(detect_threshold(node.trust.known_values(),
                                                 config.outlier))
        if not node.malicious:
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
    populated = [(h, tuple(c.members)) for h, c in sorted(clusters.items())
                 if c.members]
    report.clusters = populated
    report.malicious_cluster_count = sum(1 for h, _ in populated
                                         if state.node(h).malicious)
    report.energy_spent_j = state.total_debited_j - energy_before
    report.deaths = [node_id for r, node_id in state.deaths[deaths_before:]]
    report.alive_end = len(state.alive_nodes())
    return report
