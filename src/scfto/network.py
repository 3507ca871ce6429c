"""Network state: node records, deployment, distances, and the energy
ledger.  Positions never change after deployment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import SimConfig, TIERS
from .fuzzy import FuzzyTrustEngine
from .outlier import ConvergenceTracker
from .rng import StreamFactory
from .trust import TrustTable

NORMAL = 0  # tier 0 is a normal node; tiers 1..3 are malicious


@dataclass(slots=True)
class NodeState:
    # the seven values `init_network` sets per node lead, so that it builds
    # each node with one positional call; every other caller passes keywords
    id: int
    position: tuple
    energy_j: float
    tier: int = NORMAL
    # head probability for the next election; `run_round` keeps it current
    # only where the node was never head or is at or past the rotation floor.
    # Inside the floor it holds its last value, which `rotation_eligible`
    # still reads but which gives the same answer as any current value
    # (`protocol.rotation_floor`)
    p_ch: float = 0.07
    trust: TrustTable = None
    tracker: ConvergenceTracker = None
    head_history: list = field(default_factory=list)  # trust at selection, last n_lch heads
    rounds_since_head: int | None = None  # None means "never been head"
    alive: bool = True
    # latest acceptance-message energy extremes, for the election formula
    e_max: float | None = None
    e_min: float | None = None

    @property
    def malicious(self) -> bool:
        return self.tier != NORMAL


class SimState:
    """Owns the nodes, the derived random streams, and the energy ledger."""

    def __init__(self, config: SimConfig, nodes: list):
        self.config = config
        self.nodes = nodes
        self.streams = StreamFactory(config.seed)
        self.engine = FuzzyTrustEngine(config.trust_flc)
        self.total_debited_j = 0.0
        self.deaths: list = []  # node ids, in order of death

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes `a` and `b`."""
        return math.dist(self.nodes[a].position, self.nodes[b].position)

    def alive_nodes(self) -> list:
        return [n for n in self.nodes if n.alive]

    def debit(self, node: NodeState, amount: float) -> bool:
        """Charge energy; returns False when the node could not pay in full
        (the action fails silently and the node dies at zero).  A dead node
        pays nothing and gets False; paying the last joule exactly is True."""
        if amount < 0:
            raise ValueError("debit amount must be nonnegative")
        if not node.alive:
            return False
        paid = min(node.energy_j, amount)
        node.energy_j -= paid
        self.total_debited_j += paid
        if node.energy_j <= 0.0:
            node.energy_j = 0.0
            node.alive = False
            self.deaths.append(node.id)
        return paid == amount


def apportion_tiers(total: int, mix) -> tuple:
    """Largest-remainder apportionment of `total` malicious nodes over the
    three tiers."""
    quotas = [total * r for r in mix]
    floors = [int(math.floor(q)) for q in quotas]
    remainder = total - sum(floors)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[:remainder]:
        floors[i] += 1
    return tuple(floors)


def init_network(config: SimConfig) -> SimState:
    """Deploy nodes uniformly at random and assign malicious tiers."""
    # SimState's engine checks the controller, unless it equals the last
    # one an engine was built from, which was checked then
    config.validate(flc=False)
    state = SimState(config, [])

    # width * random() is exactly what uniform(0.0, width) computes
    draw = state.streams.stream("deploy").random
    positions = [(config.field_width_m * draw(), config.field_height_m * draw())
                 for _ in range(config.node_count)]

    malicious_total = int(math.floor(config.node_count * config.malicious_fraction + 0.5))
    per_tier = apportion_tiers(malicious_total, config.tier_mix)
    roles = state.streams.stream("roles")
    malicious_ids = sorted(roles.sample(range(config.node_count), malicious_total))
    tier_of = {}
    cursor = 0
    for tier, count in zip(TIERS, per_tier):
        for node_id in malicious_ids[cursor: cursor + count]:
            tier_of[node_id] = tier
        cursor += count

    e0, p0 = config.initial_energy_j, config.election.p0_init
    state.nodes = [NodeState(i, pos, e0, tier_of.get(i, NORMAL), p0,
                             TrustTable(i), ConvergenceTracker())
                   for i, pos in enumerate(positions)]
    return state
