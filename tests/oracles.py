"""Independent oracles that only tests use: the energy ledger balance of a
simulation state and an exhaustive type reducer to check EIASC against."""
from scfto.fuzzy import NoEvidenceError, WeightedEndpointList
from scfto.network import SimState


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
