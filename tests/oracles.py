"""Independent oracles that only tests use: the energy ledger balance of a
simulation state, an exhaustive type reducer to check EIASC against and the
sort-based head choice to check the k-minimum ranking against."""
import math

from scfto.fuzzy import NoEvidenceError, WeightedEndpointList
from scfto.network import NodeState, SimState
from scfto.protocol import SELF_DECLARE


def energy_ledger_error(state: SimState) -> float:
    """Relative imbalance of initial energy vs (debits + remaining)."""
    initial = state.config.node_count * state.config.initial_energy_j
    remaining = sum(n.energy_j for n in state.nodes)
    return abs(initial - (state.total_debited_j + remaining)) / initial


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


def reference_choose_head(node: NodeState, heads: list, positions: list, state: SimState,
                          eligible: bool):
    """`protocol.choose_head` by sorting every (distance, id) pair."""
    pos = node.position
    ranked = sorted([(math.dist(pos, p), h) for p, h in zip(positions, heads)])
    # (trust or None while Unknown, head id), nearest first
    trusts = [(node.trust.value_of(h), h) for _, h in ranked[:state.config.join.n_nch]]
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
