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


@dataclass
class NodeState:
    id: int
    position: tuple
    energy_j: float
    tier: int = NORMAL
    head_history: list = field(default_factory=list)  # trust at selection, last n_lch heads
    rounds_since_head: int | None = None  # None means "never been head"
    alive: bool = True
    p_ch: float = 0.07
    # latest acceptance-message energy extremes, for the election formula
    e_max: float | None = None
    e_min: float | None = None
    trust: TrustTable = None
    tracker: ConvergenceTracker = None

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
    config.validate(flc=False)  # the engine SimState builds checks the controller
    streams = StreamFactory(config.seed)

    deploy = streams.stream("deploy")
    positions = [(deploy.uniform(0.0, config.field_width_m),
                  deploy.uniform(0.0, config.field_height_m))
                 for _ in range(config.node_count)]

    malicious_total = int(math.floor(config.node_count * config.malicious_fraction + 0.5))
    per_tier = apportion_tiers(malicious_total, config.tier_mix)
    roles = streams.stream("roles")
    malicious_ids = sorted(roles.sample(range(config.node_count), malicious_total))
    tier_of = {}
    cursor = 0
    for tier, count in zip(TIERS, per_tier):
        for node_id in malicious_ids[cursor: cursor + count]:
            tier_of[node_id] = tier
        cursor += count

    nodes = []
    for node_id in range(config.node_count):
        node = NodeState(
            id=node_id,
            position=positions[node_id],
            energy_j=config.initial_energy_j,
            tier=tier_of.get(node_id, NORMAL),
            p_ch=config.election.p0_init,
            trust=TrustTable(node_id),
            tracker=ConvergenceTracker(th_d=config.outlier.th_d,
                                       n_s=config.outlier.n_s),
        )
        nodes.append(node)
    return SimState(config, nodes)
